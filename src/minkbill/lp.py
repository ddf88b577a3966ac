"""Dense two-phase simplex solver over arrays, for one LP or a stack of LPs.

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

``solve_stack`` solves B problems of one shape at once on one (B, m, n)
tableau and returns arrays: each member's status (B,) and x (B, n).  The
standard form, the tableau and the re-check are built for the whole stack,
and the pivots run in lockstep: every member prices, takes its ratio test
and breaks ties exactly as it would alone, and a member that stops leaves
the live part of the stack, so its solution does not depend on the other
members.  ``solve`` is a stack of one that returns one ``LpSolution``; the
3-bounce search calls ``solve_stack`` only.  ``solve_interval`` gives, with
no tableau, what the simplex gives on LPs in one variable; the 2-bounce
search decides every side of a face tuple with it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

EPS_LP = 1e-10          # feasibility tolerance used when re-checking solutions
_PIVOT_TOL = 1e-9       # entries smaller than this never act as pivots
_BLAND_AFTER = 300      # switch from Dantzig to Bland after this many pivots
_MAX_PIVOTS = 20000
_UPDATE_BLOCK = 1 << 14  # entries of tab a pivot updates per numpy call


class NumericalFailure(RuntimeError):
    """The simplex iteration exceeded its pivot budget or produced an
    unacceptably infeasible 'solution'."""


@dataclass
class LinearProgram:
    """One LP, or for ``solve_stack`` a stack of B LPs: ``constraints`` is
    then (B, m, n), ``objective`` and ``rhs`` either carry the leading B
    axis or are shared by every member, and every member shares
    ``equality`` (``solve_interval`` also takes one per member, (B, m)),
    ``lower`` and ``upper``."""

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


def _pivot_stack(tab, rhs, red, basis, row, col):
    """One simplex pivot on member k of the stack at (row[k], col[k]) for
    every k: the pivot row is divided by its pivot, and a rank-1 update
    clears the pivot column from the other rows and the reduced costs red.
    A row whose pivot-column entry is zero changes by an exact zero.  The
    update runs in blocks of rows of at most _UPDATE_BLOCK entries (one row
    at least), so that a small stack takes one numpy call and a large one
    makes no temporary of its size."""
    k = np.arange(len(row))
    piv = tab[k, row, col]
    prow = tab[k, row] / piv[:, None]
    prhs = rhs[k, row] / piv
    f = tab[k, :, col]
    f[k, row] = 0.0
    tab[k, row] = prow
    rhs[k, row] = prhs
    step = max(1, _UPDATE_BLOCK // tab[:, 0].size)
    for i in range(0, tab.shape[1], step):
        tab[:, i:i + step] -= f[:, i:i + step, None] * prow[:, None]
    rhs -= f * prhs[:, None]
    red -= red[k, col][:, None] * prow
    basis[k, row] = col


def _iterate_stack(tab, rhs, red, basis, ncols):
    """Run simplex pivots on every member of a stack until it is optimal or
    unbounded, with entering columns restricted to indices < ncols.  Each
    member prices by Dantzig's rule (Bland's after _BLAND_AFTER pivots),
    takes the ratio test and breaks its ties on the smallest basis index.
    The pivots run in lockstep: all live members have made the same number
    of steps, so one counter serves for the Bland switch and the budget.
    The live members are a prefix of the arrays; one that stops trades
    places with one behind it, so no working copy is made.  Returns each
    position's status ("numerical" for an exhausted budget) and the
    permutation: position i now holds what position perm[i] held."""
    status = np.full(len(tab), "", "<U10")
    perm = np.arange(len(tab))
    live = len(tab)
    counter = 0
    while live:
        counter += 1
        t, r, c, bs = tab[:live], rhs[:live], red[:live], basis[:live]
        cand = c[:, :ncols]
        if counter <= _BLAND_AFTER:
            col = cand.argmax(axis=1)
        else:
            col = (cand > _PIVOT_TOL).argmax(axis=1)
        k = np.arange(live)
        colvals = t[k, :, col]
        pos = colvals > _PIVOT_TOL
        verdict = np.where(cand[k, col] <= _PIVOT_TOL, "optimal",
                           np.where(pos.any(axis=1), "", "unbounded"))
        if counter > _MAX_PIVOTS:
            verdict[:] = "numerical"
        stop = verdict != ""
        if stop.any():
            end, live = live, live - int(stop.sum())
            a = np.nonzero(stop[:live])[0]
            b = live + np.nonzero(~stop[live:])[0]
            for arr in (tab, rhs, red, basis, perm, verdict, col, colvals, pos):
                arr[a], arr[b] = arr[b], arr[a]
            status[live:end] = verdict[live:end]
            if not live:
                break
            t, r, c, bs = tab[:live], rhs[:live], red[:live], basis[:live]
            col, colvals, pos = col[:live], colvals[:live], pos[:live]
        ratios = np.divide(r, colvals, out=np.full(r.shape, np.inf), where=pos)
        ties = ratios <= ratios.min(axis=1)[:, None] + 1e-12
        # break ties on the smallest basis index (keeps Bland's rule valid)
        row = np.where(ties, bs, np.iinfo(bs.dtype).max).argmin(axis=1)
        _pivot_stack(t, r, c, bs, row, col)
    return status, perm


def _drive_out(tab, rhs, basis, first_art):
    """Pivot the remaining (zero-valued) artificials out of the basis where
    their row allows it."""
    for i in np.nonzero(basis >= first_art)[0]:
        cols = np.nonzero(np.abs(tab[i, :first_art]) > _PIVOT_TOL)[0]
        if cols.size:
            _pivot_stack(tab[None], rhs[None], np.zeros((1, tab.shape[1])),
                         basis[None], np.array([i]), cols[:1])


def _standard_simplex(c, A, b):
    """max c[k] @ y  s.t.  A[k] @ y <= b[k], y >= 0, for each member k of a
    stack, on one tableau.  The rows where a member's right-hand side is
    negative get its artificial columns, in row order, exactly as it would
    alone; a member with fewer of them than the widest has all-zero columns
    after its own, whose phase-1 reduced cost stays -1, so they never enter.
    So every member pivots as it would alone.  Returns each member's status
    and y."""
    B, m, n = A.shape
    neg = b < 0
    n_art = int(neg.sum(axis=1).max())
    width = n + m + n_art
    sign = np.where(neg, -1.0, 1.0)
    tab = np.zeros((B, m, width))
    tab[:, :, :n] = A * sign[:, :, None]
    tab[:, np.arange(m), n + np.arange(m)] = sign
    rhs = b * sign
    basis = np.empty((B, m), int)
    basis[:] = n + np.arange(m)
    held = np.arange(B)  # the member at each position of the stack
    if n_art:
        kk, ii = np.nonzero(neg)
        art = n + m + np.cumsum(neg, axis=1)[kk, ii] - 1
        tab[kk, ii, art] = 1.0
        basis[kk, ii] = art
        d = np.zeros(width)
        d[n + m:] = -1.0
        red = d - np.matmul(d[basis][:, None, :], tab)[:, 0]
        status, perm = _iterate_stack(tab, rhs, red, basis, width)
        held = held[perm]
        art_value = np.matmul(d[basis][:, None, :], rhs[:, :, None])[:, 0, 0]
        phase1 = np.where(status == "numerical", "numerical",
                          np.where(art_value < -1e-8, "infeasible", "optimal"))
        feasible = phase1 == "optimal"
        if not feasible.any():
            status[held] = phase1
            return status, np.zeros((B, n))
        # drive remaining (zero-valued) artificials out of the basis if we can
        for k in np.nonzero(feasible & (basis >= n + m).any(axis=1))[0]:
            _drive_out(tab[k], rhs[k], basis[k], n + m)
        # a member that phase 1 stopped gets a zero objective, so that it
        # stops at once in phase 2
        c = np.where(feasible[:, None], c[held], 0.0)
    c_ext = np.zeros((B, width))
    c_ext[:, :n] = c
    cb = c_ext[np.arange(B)[:, None], basis]
    red = c_ext - np.matmul(cb[:, None, :], tab)[:, 0]
    status, perm = _iterate_stack(tab, rhs, red, basis, n + m)
    if n_art:
        status = np.where(feasible[perm], status, phase1[perm])
    held = held[perm]
    y = np.zeros((B, n))  # meaningful for the optimal members only
    kk, ii = np.nonzero(basis < n)
    y[held[kk], basis[kk, ii]] = rhs[kk, ii]
    status[held] = status.copy()
    return status, y


def _violations(A, b, eq, x):
    """Each row's violation at each member's x (B, n), and the tolerance the
    re-check allows it."""
    resid = np.matmul(A, x[:, :, None])[:, :, 0] - b
    tol = EPS_LP + 1e-9 * (1.0 + np.abs(b)
                           + np.matmul(np.abs(A), np.abs(x)[:, :, None])[:, :, 0])
    return np.where(eq, np.abs(resid), resid), tol


def _recheck(A, b, eq, x, lower, upper) -> dict:
    """Independent feasibility check of every member's solution: why each
    failing member fails, by member index."""
    viol, tol = _violations(A, b, eq, x)
    bad = viol > tol
    why = {}
    for k in np.nonzero(bad.any(axis=1) | ((x < lower - 1e-9)
                                          | (x > upper + 1e-9)).any(axis=1))[0]:
        i = np.argmax(bad[k])
        why[k] = (f"solution violates constraint by {viol[k, i]:.3e} "
                  f"(tol {tol[k, i]:.3e})" if bad[k, i]
                  else "solution violates a bound")
    return why


# bounded, and read-only since every caller shares the cached arrays
@functools.lru_cache(maxsize=256)
def _layout(eq: bytes, has_lo: bytes, has_up: bytes):
    """The part of the standard form that depends only on which rows are
    equalities and which bounds are finite: the substitution matrix S, the
    source row and sign of each standard row, and the box-bounded variables
    with their rows."""
    eq, has_lo, has_up = (np.frombuffer(v, bool) for v in (eq, has_lo, has_up))
    # x = S @ y + shift with y >= 0: a lower bound shifts the variable, an
    # upper bound alone negates it, a free variable splits into two columns
    split = ~(has_lo | has_up)
    start = np.concatenate(([0], np.cumsum(1 + split)[:-1])).astype(int)
    S = np.zeros((split.size, split.size + int(split.sum())))
    S[np.arange(split.size), start] = np.where(has_lo | split, 1.0, -1.0)
    S[split, start[split] + 1] = -1.0
    # an equality row a @ x == b becomes a @ x <= b followed by -a @ x <= -b;
    # a box-bounded variable adds one row y <= upper - lower at the end
    idx = np.repeat(np.arange(eq.size), 1 + eq)
    sgn = np.ones(idx.size)
    sgn[1:][idx[1:] == idx[:-1]] = -1.0
    box = np.nonzero(has_lo & has_up)[0]
    box_rows = np.zeros((box.size, S.shape[1]))
    box_rows[np.arange(box.size), start[box]] = 1.0
    for arr in (S, idx, sgn, box, box_rows):
        arr.setflags(write=False)
    return S, idx, sgn, box, box_rows


def _solve(obj, A, b, equality, lower, upper):
    """Solve the stack obj (B, n), A (B, m, n), b (B, m) under the shared
    (n,) bounds.  Returns each member's status and x (meaningful where
    optimal), and why each member that failed the re-check fails (status
    "numerical", as for an exhausted budget)."""
    B, m, nv = A.shape
    eq = (np.zeros(m, bool) if equality is None
          else np.asarray(equality, bool).reshape(m))
    lower = (np.full(nv, -np.inf) if lower is None
             else np.asarray(lower, float).reshape(nv))
    upper = (np.full(nv, np.inf) if upper is None
             else np.asarray(upper, float).reshape(nv))
    has_lo, has_up = np.isfinite(lower), np.isfinite(upper)
    S, idx, sgn, box, box_rows = _layout(eq.tobytes(), has_lo.tobytes(),
                                         has_up.tobytes())
    shift = np.where(has_lo, lower, np.where(has_up, upper, 0.0))
    rows = A[:, idx] * sgn[:, None]
    A_std = np.zeros((B, idx.size + box.size, S.shape[1]))
    A_std[:, :idx.size] = rows @ S
    A_std[:, idx.size:] = box_rows
    b_std = np.empty((B, idx.size + box.size))
    b_std[:, :idx.size] = (b[:, idx] * sgn
                           - np.matmul(rows, shift[..., None])[..., 0])
    b_std[:, idx.size:] = (upper - lower)[box]
    c = obj @ S

    status, y = _standard_simplex(c, A_std, b_std)
    x = y @ S.T + shift
    why = {}
    optimal = status == "optimal"
    if optimal.any():
        why = {k: reason for k, reason in
               _recheck(A, b, eq, x, lower, upper).items() if optimal[k]}
        status[list(why)] = "numerical"
    return status, x, why


def solve(lp: LinearProgram) -> LpSolution:
    """Solve one LP.  NumericalFailure if the pivot budget runs out or the
    solution fails the re-check."""
    obj = np.asarray(lp.objective, float).reshape(-1)
    nv = obj.size
    A = np.asarray(lp.constraints, float).reshape(1, -1, nv)
    b = np.asarray(lp.rhs, float).reshape(1, -1)
    if b.shape[1] != A.shape[1]:
        raise ValueError("constraint arity mismatch")
    [status], [x], why = _solve(obj[None], A, b, lp.equality, lp.lower,
                                lp.upper)
    if status == "numerical":
        raise NumericalFailure(why.get(0, "pivot budget exhausted"))
    if status != "optimal":
        return LpSolution(str(status), None, None)
    return LpSolution("optimal", x, float(obj @ x))


def solve_stack(lp: LinearProgram) -> Tuple[np.ndarray, np.ndarray]:
    """Solve a stack of LPs (see LinearProgram) in lockstep: each member's
    status (B,) and x (B, n), zero where a member is not optimal.  A member
    that solve would raise NumericalFailure for has status "numerical"; the
    other members are unaffected."""
    A = np.asarray(lp.constraints, float)
    if A.ndim != 3:
        raise ValueError("a stack needs constraints of shape (B, m, n)")
    B, m, nv = A.shape
    if B == 0:
        return np.zeros(0, "<U10"), np.zeros((0, nv))
    obj = np.broadcast_to(np.asarray(lp.objective, float), (B, nv))
    b = np.broadcast_to(np.asarray(lp.rhs, float), (B, m))
    status, x, _ = _solve(obj, A, b, lp.equality, lp.lower, lp.upper)
    x[status != "optimal"] = 0.0
    return status, x


def solve_interval(lp: LinearProgram) -> Tuple[np.ndarray, np.ndarray]:
    """solve_stack in closed form for LPs in one variable t with finite
    bounds, such as every side of a 2-bounce face tuple: t is where the
    simplex stops.  Phase 1 raises t from its lower bound through the lower
    bounds of the rows violated there until an upper bound blocks it, so
    t = min(largest lower, smallest upper bound); an equality pins t (to the
    smaller of two values; below the lower bound only a negative objective
    moves it back), and a positive objective takes t to the upper bound.
    Rows are bounds only where their coefficient exceeds the pivot
    tolerance.  Feasible means phase 1's summed violation <= 1e-8 and the
    re-check's row and bound tolerances hold."""
    A = np.asarray(lp.constraints, float)
    B, m, _ = A.shape
    b = np.broadcast_to(np.asarray(lp.rhs, float), (B, m))
    eq = np.broadcast_to(False if lp.equality is None else lp.equality, (B, m))
    (lower,), (upper,) = lp.lower, lp.upper
    # the standard form's rows in y = t - lower >= 0, an equality as two
    a = np.concatenate([A[:, :, 0], -A[:, :, 0]], 1)
    rhs = np.concatenate([b, -b], 1) - a * lower
    live, halves = np.concatenate([np.ones_like(eq), eq], 1), np.tile(eq, 2)
    ratio = np.divide(rhs, a, out=np.zeros_like(a), where=np.abs(a) > _PIVOT_TOL)
    up = live & (a > _PIVOT_TOL)
    pin = np.where(up & halves, ratio, np.inf).min(axis=1, initial=np.inf)
    lo = np.where(live & (a < -_PIVOT_TOL), ratio, 0.0).max(axis=1, initial=0.0)
    hi = np.where(up & (rhs >= 0), ratio, np.inf).min(axis=1, initial=upper - lower)
    c = np.broadcast_to(np.asarray(lp.objective, float), (B, 1))[:, 0]
    y = np.minimum(np.where(pin < np.inf, pin, np.where(c > _PIVOT_TOL, hi, lo)), hi)
    y = np.where(c < -_PIVOT_TOL, np.maximum(y, 0.0), y)
    viol, tol = _violations(A, b, eq, (y + lower)[:, None])
    ok = ((np.where(live, a * y[:, None] - rhs, 0.0).clip(0.0).sum(axis=1) <= 1e-8)
          & (viol <= tol).all(axis=1) & (y >= -1e-9) & (y <= upper - lower + 1e-9))
    return np.where(ok, "optimal", "infeasible"), np.where(ok, y + lower, 0.0)[:, None]
