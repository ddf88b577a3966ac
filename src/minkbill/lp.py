"""Dense two-phase simplex solver over arrays.

All linear programs in this package are small (a handful of variables, at
most a few thousand constraints), dense, and must be solved deterministically:
the same input has to produce bit-identical bases across runs so that search
results and reports are reproducible.  A hand-rolled tableau simplex with
Dantzig pricing (falling back to Bland's rule to rule out cycling) is enough.

Conventions: maximize ``objective @ x`` subject to the rows
``constraints @ x <= rhs`` (``==`` where ``equality`` is set) and
``lower <= x <= upper``.  Infinite bounds, the default, leave a variable
free.  Every step works on whole arrays: variables are mapped onto
nonnegative simplex columns by one substitution matrix, a pivot is one rank-1
update, and the solution is re-checked row-wise in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

EPS_LP = 1e-10          # feasibility tolerance used when re-checking solutions
_PIVOT_TOL = 1e-9       # entries smaller than this never act as pivots
_BLAND_AFTER = 300      # switch from Dantzig to Bland after this many pivots
_MAX_PIVOTS = 20000


class NumericalFailure(RuntimeError):
    """The simplex iteration exceeded its pivot budget or produced an
    unacceptably infeasible 'solution'."""


@dataclass
class LinearProgram:
    objective: np.ndarray                   # (n,)
    constraints: np.ndarray                 # (m, n), one row per constraint
    rhs: np.ndarray                         # (m,)
    equality: Optional[np.ndarray] = None   # (m,) bool; None: every row is <=
    lower: Optional[np.ndarray] = None      # (n,), -inf = none; None: all -inf
    upper: Optional[np.ndarray] = None      # (n,), +inf = none; None: all +inf


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray]
    objective_value: Optional[float]


def _pivot(tab, rhs, red, basis, row, col):
    piv = tab[row, col]
    tab[row] /= piv
    rhs[row] /= piv
    f = tab[:, col].copy()
    f[row] = 0.0
    rows = np.nonzero(f)[0]
    tab[rows] -= f[rows, None] * tab[row]
    rhs[rows] -= f[rows] * rhs[row]
    f = red[col]
    if f != 0.0:
        red -= f * tab[row]
    basis[row] = col


def _iterate(tab, rhs, red, basis, ncols, counter):
    """Run simplex pivots until optimal/unbounded; entering columns are
    restricted to indices < ncols."""
    while True:
        counter[0] += 1
        if counter[0] > _MAX_PIVOTS:
            raise NumericalFailure("pivot budget exhausted")
        cand = red[:ncols]
        if counter[0] <= _BLAND_AFTER:
            col = int(np.argmax(cand))
            if cand[col] <= _PIVOT_TOL:
                return "optimal"
        else:
            pos = np.nonzero(cand > _PIVOT_TOL)[0]
            if pos.size == 0:
                return "optimal"
            col = int(pos[0])
        colvals = tab[:, col]
        rows = np.nonzero(colvals > _PIVOT_TOL)[0]
        if rows.size == 0:
            return "unbounded"
        ratios = rhs[rows] / colvals[rows]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-12]
        # break ties on the smallest basis index (keeps Bland's rule valid)
        row = int(ties[np.argmin(basis[ties])])
        _pivot(tab, rhs, red, basis, row, col)


def _standard_simplex(c, A, b):
    """max c@x  s.t.  A@x <= b, x >= 0.  Returns (status, x or None)."""
    m, n = A.shape
    neg = b < 0
    art = np.nonzero(neg)[0]
    n_art = art.size
    sign = np.where(neg, -1.0, 1.0)
    tab = np.zeros((m, n + m + n_art))
    tab[:, :n] = A * sign[:, None]
    tab[np.arange(m), n + np.arange(m)] = sign
    tab[art, n + m + np.arange(n_art)] = 1.0
    rhs = b * sign
    basis = n + np.arange(m)
    basis[art] = n + m + np.arange(n_art)
    counter = [0]
    if n_art:
        d = np.zeros(n + m + n_art)
        d[n + m:] = -1.0
        red = d - d[basis] @ tab
        _iterate(tab, rhs, red, basis, n + m + n_art, counter)
        art_value = float(d[basis] @ rhs)
        if art_value < -1e-8:
            return "infeasible", None
        # drive remaining (zero-valued) artificials out of the basis if we can
        for i in np.nonzero(basis >= n + m)[0]:
            cols = np.nonzero(np.abs(tab[i, : n + m]) > _PIVOT_TOL)[0]
            if cols.size:
                _pivot(tab, rhs, np.zeros_like(red), basis, i, int(cols[0]))
    c_ext = np.zeros(n + m + n_art)
    c_ext[:n] = c
    red = c_ext - c_ext[basis] @ tab
    counter[0] = 0
    status = _iterate(tab, rhs, red, basis, n + m, counter)
    if status != "optimal":
        return status, None
    x = np.zeros(n)
    inner = basis < n
    x[basis[inner]] = rhs[inner]
    return "optimal", x


def _bounds(values, nv, fill):
    out = np.full(nv, fill) if values is None else np.asarray(values, float)
    if out.shape != (nv,):
        raise ValueError("bounds length mismatch")
    return out


def solve(lp: LinearProgram) -> LpSolution:
    obj = np.asarray(lp.objective, float)
    nv = obj.size
    A = np.asarray(lp.constraints, float).reshape(-1, nv)
    b = np.asarray(lp.rhs, float).reshape(-1)
    m = A.shape[0]
    if b.shape != (m,):
        raise ValueError("constraint arity mismatch")
    eq = (np.zeros(m, bool) if lp.equality is None
          else np.asarray(lp.equality, bool).reshape(m))
    lower = _bounds(lp.lower, nv, -np.inf)
    upper = _bounds(lp.upper, nv, np.inf)

    # x = S @ y + shift with y >= 0: a lower bound shifts the variable, an
    # upper bound alone negates it, a free variable splits into two columns
    has_lo = np.isfinite(lower)
    has_up = np.isfinite(upper)
    split = ~(has_lo | has_up)
    start = np.concatenate(([0], np.cumsum(1 + split)[:-1])).astype(int)
    ncols = nv + int(split.sum())
    S = np.zeros((nv, ncols))
    S[np.arange(nv), start] = np.where(has_lo | split, 1.0, -1.0)
    S[split, start[split] + 1] = -1.0
    shift = np.where(has_lo, lower, np.where(has_up, upper, 0.0))

    # an equality row a @ x == b becomes a @ x <= b followed by -a @ x <= -b;
    # a box-bounded variable adds one row y <= upper - lower at the end
    idx = np.repeat(np.arange(m), 1 + eq)
    sgn = np.ones(idx.size)
    sgn[1:][idx[1:] == idx[:-1]] = -1.0
    rows = A[idx] * sgn[:, None]
    box = has_lo & has_up
    box_rows = np.zeros((int(box.sum()), ncols))
    box_rows[np.arange(box_rows.shape[0]), start[box]] = 1.0
    A_std = np.vstack([rows @ S, box_rows])
    b_std = np.concatenate([b[idx] * sgn - rows @ shift, upper[box] - lower[box]])

    status, y = _standard_simplex(obj @ S, A_std, b_std)
    if status != "optimal":
        return LpSolution(status, None, None)
    x = S @ y + shift
    _recheck(A, b, eq, x, lower, upper)
    return LpSolution("optimal", x, float(obj @ x))


def _recheck(A, b, eq, x, lower, upper):
    """Independent feasibility check of the reported solution."""
    resid = A @ x - b
    viol = np.where(eq, np.abs(resid), resid)
    tol = EPS_LP + 1e-9 * (1.0 + np.abs(b) + np.abs(A) @ np.abs(x))
    bad = np.nonzero(viol > tol)[0]
    if bad.size:
        i = bad[0]
        raise NumericalFailure(
            f"solution violates constraint by {viol[i]:.3e} (tol {tol[i]:.3e})")
    if np.any(x < lower - 1e-9):
        raise NumericalFailure("solution violates a lower bound")
    if np.any(x > upper + 1e-9):
        raise NumericalFailure("solution violates an upper bound")
