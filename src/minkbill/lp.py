"""Linear programs over arrays, solved deterministically: the same input
gives bit-identical answers, and a member of a stack gets the answer it
would get alone, so that search results and reports are reproducible.

``solve_dual3`` solves a stack of LPs in three free variables, max c @ x
s.t. A @ x <= b, by the dual simplex from a dual-feasible start basis the
caller knows in closed form.  Each step solves the 3x3 basis by its
cofactors: a member needs O(m) memory and no tableau (Seidel, DCG 1991, on
LPs of fixed dimension).  The 3-bounce search solves its inbody LPs with
it, and the q-side fits with a vertex contact or a singular system; its
other fits, three edge contacts, are one solve by the same 3x3 kernel.
``solve_interval`` gives, with no tableau, what the simplex gives on a
stack of LPs in one variable t in [0, 1]; the 2-bounce search decides every
side of a face tuple with it.  ``solve`` is the scalar reference, kept for
the tests and the tracer (no search calls it): a dense two-phase tableau
simplex on one LP, maximize ``objective @ x`` subject to ``constraints @ x
<= rhs`` (``==`` where ``equality`` is set) and ``lower <= x <= upper``
(infinite bounds, the default, leave a variable free), pivoting by
Dantzig's rule with a Bland fallback.  All three take arrays and return a
status, "optimal", "infeasible", "unbounded" (``solve`` only) or
"numerical", and x, zero unless the status is "optimal".
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

EPS_LP = 1e-10          # feasibility tolerance used when re-checking solutions
_PIVOT_TOL = 1e-9       # entries smaller than this never act as pivots
_BLAND_AFTER = 300      # switch from Dantzig to Bland after this many pivots
_MAX_PIVOTS = 20000
_DUAL_BLAND_AFTER = 50  # solve_dual3 enters by Bland's rule after this many steps
_DUAL_STEPS = 200       # solve_dual3's step budget per member
_NEXT = np.array([1, 2, 0])  # the cyclic successor of each of three indices


def _pivot(tab, rhs, red, basis, row, col):
    """One simplex pivot at (row, col): the pivot row is divided by its
    pivot, and a rank-1 update clears the pivot column from the other rows
    and the reduced costs red."""
    piv = tab[row, col]
    prow = tab[row] / piv
    prhs = rhs[row] / piv
    f = tab[:, col].copy()
    f[row] = 0.0
    tab[row] = prow
    rhs[row] = prhs
    tab -= f[:, None] * prow
    rhs -= f * prhs
    red -= red[col] * prow
    basis[row] = col


def _iterate(tab, rhs, red, basis, ncols):
    """Run simplex pivots until optimal or unbounded, with entering columns
    restricted to indices < ncols: Dantzig's rule (Bland's after
    _BLAND_AFTER pivots), the ratio test, ties broken on the smallest basis
    index.  Returns that status, or "numerical" when _MAX_PIVOTS pivots
    leave it neither; phase 1 as well as phase 2 stops on "numerical"."""
    for step in range(_MAX_PIVOTS + 1):
        cand = red[:ncols]
        col = cand.argmax() if step < _BLAND_AFTER else (cand > _PIVOT_TOL).argmax()
        if cand[col] <= _PIVOT_TOL:
            return "optimal"
        colvals = tab[:, col]
        pos = colvals > _PIVOT_TOL
        if not pos.any():
            return "unbounded"
        if step == _MAX_PIVOTS:
            break
        ratios = np.divide(rhs, colvals, out=np.full(rhs.shape, np.inf), where=pos)
        # ties relative to the least ratio: a small pivot can scale all ratios
        ties = ratios <= ratios.min() + 1e-12 * abs(ratios.min())
        # break ties on the smallest basis index (keeps Bland's rule valid)
        row = np.where(ties, basis, np.iinfo(basis.dtype).max).argmin()
        _pivot(tab, rhs, red, basis, row, col)
    return "numerical"


def _drive_out(tab, rhs, basis, first_art):
    """Pivot the remaining (zero-valued) artificials out of the basis where
    their row allows it, in row order onto the row's first nonzero column."""
    for i in np.nonzero(basis >= first_art)[0]:
        cols = np.nonzero(np.abs(tab[i, :first_art]) > _PIVOT_TOL)[0]
        if cols.size:
            _pivot(tab, rhs, np.zeros(tab.shape[1]), basis, i, cols[0])


def _standard_simplex(c, A, b):
    """max c @ y  s.t.  A @ y <= b, y >= 0 by the two-phase tableau simplex:
    the rows with a negative right-hand side get an artificial column each,
    in row order.  Returns the status and y (meaningful where optimal)."""
    m, n = A.shape
    neg = b < 0
    width = n + m + int(neg.sum())
    sign = np.where(neg, -1.0, 1.0)
    tab = np.zeros((m, width))
    tab[:, :n] = A * sign[:, None]
    tab[np.arange(m), n + np.arange(m)] = sign
    rhs = b * sign
    basis = n + np.arange(m)
    if neg.any():
        art = np.arange(n + m, width)
        tab[neg, art] = 1.0
        basis[neg] = art
        d = np.zeros(width)
        d[n + m:] = -1.0
        if _iterate(tab, rhs, d - d[basis] @ tab, basis, width) == "numerical":
            return "numerical", None
        if d[basis] @ rhs < -1e-8:
            return "infeasible", None
        _drive_out(tab, rhs, basis, n + m)
    c_ext = np.zeros(width)
    c_ext[:n] = c
    status = _iterate(tab, rhs, c_ext - c_ext[basis] @ tab, basis, n + m)
    y = np.zeros(n)
    y[basis[basis < n]] = rhs[basis < n]
    return status, y


def _violations(A, b, eq, x):
    """Each row's violation at each member's x (B, n), and the tolerance the
    re-check allows it."""
    resid = np.matmul(A, x[:, :, None])[:, :, 0] - b
    tol = EPS_LP + 1e-9 * (1.0 + np.abs(b)
                           + np.matmul(np.abs(A), np.abs(x)[:, :, None])[:, :, 0])
    return np.where(eq, np.abs(resid), resid), tol


def solve(objective, constraints, rhs, equality=None, lower=None, upper=None
          ) -> Tuple[str, np.ndarray]:
    """One LP by the two-phase tableau simplex: objective (n,), constraints
    (m, n), rhs and equality (m,), lower and upper (n,).  "numerical" if the
    pivot budget runs out or the solution fails the re-check."""
    obj = np.asarray(objective, float).reshape(-1)
    nv = obj.size
    A = np.asarray(constraints, float).reshape(-1, nv)
    b = np.asarray(rhs, float).reshape(-1)
    m = len(A)
    if b.size != m:
        raise ValueError("constraint arity mismatch")
    eq = np.zeros(m, bool) if equality is None else np.asarray(equality, bool).reshape(m)
    lower = np.full(nv, -np.inf) if lower is None else np.asarray(lower, float).reshape(nv)
    upper = np.full(nv, np.inf) if upper is None else np.asarray(upper, float).reshape(nv)
    has_lo, has_up = np.isfinite(lower), np.isfinite(upper)
    # x = S @ y + shift with y >= 0: a lower bound shifts the variable, an
    # upper bound alone negates it, a free variable splits into two columns
    split = ~(has_lo | has_up)
    start = np.concatenate(([0], np.cumsum(1 + split)[:-1])).astype(int)
    S = np.zeros((nv, nv + int(split.sum())))
    S[np.arange(nv), start] = np.where(has_lo | split, 1.0, -1.0)
    S[split, start[split] + 1] = -1.0
    shift = np.where(has_lo, lower, np.where(has_up, upper, 0.0))
    # an equality row a @ x == b becomes a @ x <= b followed by -a @ x <= -b;
    # a box-bounded variable adds one row y <= upper - lower at the end
    idx = np.repeat(np.arange(m), 1 + eq)
    sgn = np.ones(idx.size)
    sgn[1:][idx[1:] == idx[:-1]] = -1.0
    box = np.nonzero(has_lo & has_up)[0]
    rows = A[idx] * sgn[:, None]
    A_std = np.zeros((idx.size + box.size, S.shape[1]))
    A_std[:idx.size] = rows @ S
    A_std[idx.size + np.arange(box.size), start[box]] = 1.0
    b_std = np.concatenate([b[idx] * sgn - rows @ shift, (upper - lower)[box]])

    status, y = _standard_simplex(obj @ S, A_std, b_std)
    if status != "optimal":
        return status, np.zeros(nv)
    x = y @ S.T + shift
    # the re-check: an optimal x that breaks a row or a bound failed
    viol, tol = _violations(A[None], b[None], eq, x[None])
    if (viol > tol).any() or (x < lower - 1e-9).any() or (x > upper + 1e-9).any():
        return "numerical", np.zeros(nv)
    return "optimal", x


def solve_interval(objective, constraints, rhs, equality
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """What solve gives, in closed form, for a stack of LPs in one variable t
    in [0, 1], such as every side of a 2-bounce face tuple: objective (B, 1),
    constraints (B, m, 1), rhs and equality (B, m) (or shared by every
    member).  t is where the simplex stops.  Phase 1 raises t from 0 through
    the lower bounds of the rows violated there until an upper bound blocks
    it, so t = min(largest lower, smallest upper bound); an equality pins t
    (to the smaller of two values; below 0 only a negative objective moves it
    back), and a positive objective takes t to the upper bound.  Rows are
    bounds only where their coefficient exceeds the pivot tolerance.
    Feasible means phase 1's summed violation <= 1e-8 and the re-check's row
    and bound tolerances hold.  Returns each member's status (B,),
    "optimal" or "infeasible", and t (B, 1), zero where infeasible."""
    A = np.asarray(constraints, float)
    B, m, _ = A.shape
    b = np.broadcast_to(np.asarray(rhs, float), (B, m))
    eq = np.broadcast_to(equality, (B, m))
    # the standard form's rows in t >= 0, an equality as two
    a = np.concatenate([A[:, :, 0], -A[:, :, 0]], 1)
    rhs = np.concatenate([b, -b], 1)
    live, halves = np.concatenate([np.ones_like(eq), eq], 1), np.tile(eq, 2)
    ratio = np.divide(rhs, a, out=np.zeros_like(a), where=np.abs(a) > _PIVOT_TOL)
    up = live & (a > _PIVOT_TOL)
    pin = np.where(up & halves, ratio, np.inf).min(axis=1, initial=np.inf)
    lo = np.where(live & (a < -_PIVOT_TOL), ratio, 0.0).max(axis=1, initial=0.0)
    hi = np.where(up & (rhs >= 0), ratio, np.inf).min(axis=1, initial=1.0)
    c = np.broadcast_to(np.asarray(objective, float), (B, 1))[:, 0]
    t = np.minimum(np.where(pin < np.inf, pin, np.where(c > _PIVOT_TOL, hi, lo)), hi)
    t = np.where(c < -_PIVOT_TOL, np.maximum(t, 0.0), t)
    viol, tol = _violations(A, b, eq, t[:, None])
    ok = ((np.where(live, a * t[:, None] - rhs, 0.0).clip(0.0).sum(axis=1) <= 1e-8)
          & (viol <= tol).all(axis=1) & (t >= -1e-9) & (t <= 1.0 + 1e-9))
    # + 0.0 makes a zero t +0.0, as the shift by the lower bound does in solve
    return np.where(ok, "optimal", "infeasible"), np.where(ok, t + 0.0, 0.0)[:, None]


def _cofactors3(M) -> Tuple[np.ndarray, np.ndarray]:
    """The 3x3 kernel of solve_dual3 and bounce3's direct fits on a stack M
    (B, 3, 3): row i is the cross product of rows i+1 and i+2 of M, and
    over the determinant (B,) it is column i of the inverse."""
    r1, r2 = M[:, _NEXT], M[:, _NEXT[_NEXT]]
    cof = r1[..., _NEXT] * r2[..., _NEXT[_NEXT]] - r1[..., _NEXT[_NEXT]] * r2[..., _NEXT]
    return cof, (M[:, 0] * cof[:, 0]).sum(1)


def solve_dual3(objective, constraints, rhs, basis) -> Tuple[np.ndarray, np.ndarray]:
    """max objective @ x s.t. constraints @ x <= rhs for a stack of LPs in
    three free variables, objective (B, 3), constraints (B, m, 3) and rhs
    (B, m) (or shared by every member), by the dual simplex from the start
    basis (B, 3): rows of which the objective is a nonnegative combination.
    The most violated row enters (the first one after _DUAL_BLAND_AFTER
    steps), and the basis row of least ratio dual weight / coefficient
    leaves, ties on the smallest row.  Status: "optimal" when every row holds
    within _violations' tolerance, "infeasible" when the entering row has no
    coefficient above _PIVOT_TOL, "numerical" after _DUAL_STEPS steps; x is
    zero where a member is not optimal."""
    A = np.asarray(constraints, float)
    B, m, _ = A.shape
    b = np.broadcast_to(np.asarray(rhs, float), (B, m))
    c = np.broadcast_to(np.asarray(objective, float), (B, 3))
    rows = np.broadcast_to(np.asarray(basis, int), (B, 3)).copy()
    status, x = np.full(B, "numerical", "<U10"), np.zeros((B, 3))
    held = np.arange(B)  # the member at each position of the working stack
    for step in range(_DUAL_STEPS):
        if not held.size:  # every member decided, or an empty stack
            break
        k = np.arange(len(held))[:, None]
        inv, det = _cofactors3(A[k, rows])
        inv /= det[:, None, None]
        xk = (inv * b[k, rows][..., None]).sum(1)
        viol, tol = _violations(A, b, False, xk)
        bad = viol > tol
        enter = (bad.argmax(1) if step >= _DUAL_BLAND_AFTER
                 else np.where(bad, viol, -np.inf).argmax(1))
        w = (inv * A[k[:, 0], enter][:, None]).sum(2)
        y = (inv * c[:, None]).sum(2).clip(0.0)
        pos = w > _PIVOT_TOL
        ratio = np.divide(y, w, out=np.full(w.shape, np.inf), where=pos)
        ties = ratio <= ratio.min(1)[:, None] + 1e-12
        rows[k[:, 0], np.where(ties, rows, m).argmin(1)] = enter
        optimal = ~bad.any(1)
        infeasible = ~optimal & ~pos.any(1)
        status[held[optimal]], x[held[optimal]] = "optimal", xk[optimal]
        status[held[infeasible]] = "infeasible"
        keep = ~(optimal | infeasible)
        if not keep.all():
            A, b, c, rows, held = (v[keep] for v in (A, b, c, rows, held))
    return status, x
