"""Linear programs over arrays, solved deterministically: the same input
gives bit-identical answers, and a member of a stack gets the answer it
would get alone, so that search results and reports are reproducible.

``solve_dual3`` solves a stack of LPs in three free variables, max c @ x
s.t. A @ x <= b, by the dual simplex from a dual-feasible start basis the
caller knows in closed form.  Each step solves the 3x3 basis by its
cofactors: a member needs O(m) memory and no tableau (Seidel, DCG 1991, on
LPs of fixed dimension).  The 3-bounce search solves its inbody LPs and its
q-side fits with it.  ``solve_interval`` gives, with no tableau, what the
simplex gives on LPs in one variable; the 2-bounce search decides every
side of a face tuple with it.

``solve_stack`` is a dense two-phase tableau simplex over a ``LinearProgram``:
maximize ``objective @ x`` subject to ``constraints @ x <= rhs`` (``==``
where ``equality`` is set) and ``lower <= x <= upper`` (infinite bounds, the
default, leave a variable free).  B problems of one shape share one
(B, m, n) tableau and pivot in lockstep, by Dantzig's rule with a Bland
fallback; each pivot is one rank-1 update, and a member that stops leaves
the live part of the stack.  ``solve`` is its stack of one.  No search calls
either: they are the general reference of the tests and the tracer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

EPS_LP = 1e-10          # feasibility tolerance used when re-checking solutions
_PIVOT_TOL = 1e-9       # entries smaller than this never act as pivots
_BLAND_AFTER = 300      # switch from Dantzig to Bland after this many pivots
_MAX_PIVOTS = 20000
_UPDATE_BLOCK = 1 << 14  # entries of tab a pivot updates per numpy call
_DUAL_BLAND_AFTER = 50  # solve_dual3 enters by Bland's rule after this many steps
_DUAL_STEPS = 200       # solve_dual3's step budget per member
_NEXT = np.array([1, 2, 0])  # the cyclic successor of each of three indices


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


def _layout(eq, has_lo, has_up):
    """The part of the standard form that depends only on which rows are
    equalities and which bounds are finite: the substitution matrix S, the
    source row and sign of each standard row, and the box-bounded variables
    with their rows."""
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
    return S, idx, sgn, box, box_rows


def _solve(obj, A, b, equality, lower, upper):
    """Solve the stack obj (B, n), A (B, m, n), b (B, m) under the shared
    (n,) bounds.  Returns each member's status and x (meaningful where
    optimal); a member whose x fails the re-check is "numerical", as for an
    exhausted budget."""
    B, m, nv = A.shape
    eq = (np.zeros(m, bool) if equality is None
          else np.asarray(equality, bool).reshape(m))
    lower = (np.full(nv, -np.inf) if lower is None
             else np.asarray(lower, float).reshape(nv))
    upper = (np.full(nv, np.inf) if upper is None
             else np.asarray(upper, float).reshape(nv))
    has_lo, has_up = np.isfinite(lower), np.isfinite(upper)
    S, idx, sgn, box, box_rows = _layout(eq, has_lo, has_up)
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
    # the re-check: an optimal x that breaks a row or a bound failed
    viol, tol = _violations(A, b, eq, x)
    fails = (viol > tol).any(1) | ((x < lower - 1e-9) | (x > upper + 1e-9)).any(1)
    status[(status == "optimal") & fails] = "numerical"
    return status, x


def solve(lp: LinearProgram) -> LpSolution:
    """Solve one LP.  NumericalFailure if the pivot budget runs out or the
    solution fails the re-check."""
    obj = np.asarray(lp.objective, float).reshape(-1)
    nv = obj.size
    A = np.asarray(lp.constraints, float).reshape(1, -1, nv)
    b = np.asarray(lp.rhs, float).reshape(1, -1)
    if b.shape[1] != A.shape[1]:
        raise ValueError("constraint arity mismatch")
    [status], [x] = _solve(obj[None], A, b, lp.equality, lp.lower, lp.upper)
    if status == "numerical":
        raise NumericalFailure("pivot budget exhausted or solution failed the re-check")
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
    status, x = _solve(obj, A, b, lp.equality, lp.lower, lp.upper)
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
        k = np.arange(len(held))[:, None]
        # column i of the inverse basis is the cross product of the basis
        # rows i+1 and i+2 over the determinant
        r1, r2 = A[k, rows[:, _NEXT]], A[k, rows[:, _NEXT[_NEXT]]]
        inv = (r1[..., _NEXT] * r2[..., _NEXT[_NEXT]]
               - r1[..., _NEXT[_NEXT]] * r2[..., _NEXT])
        inv /= (A[k[:, 0], rows[:, 0]] * inv[:, 0]).sum(1)[:, None, None]
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
        verdict = np.where(bad.any(1), np.where(pos.any(1), "", "infeasible"),
                           "optimal")
        stop = verdict != ""
        status[held[stop]] = verdict[stop]
        x[held[verdict == "optimal"]] = xk[verdict == "optimal"]
        if stop.any():
            A, b, c, rows, held = (v[~stop] for v in (A, b, c, rows, held))
        if not held.size:
            break
    return status, x
