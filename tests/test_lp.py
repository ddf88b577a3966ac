from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from minkbill import lp as lpmod
from minkbill.bounce2 import _cycle_rows
from minkbill.bounce3 import search_three_bounce
from minkbill.geom import NormalConeRep
from minkbill.lp import solve, solve_interval
from minkbill.randgen import random_instance

from references import spy

INF = np.inf


def test_simple_maximum():
    # max x + y on the triangle x,y >= 0, x + 2y <= 4, 3x + y <= 6
    c = np.array([1.0, 1.0])
    status, x = solve(c, np.array([[1.0, 2.0], [3.0, 1.0]]), np.array([4.0, 6.0]),
                      lower=np.array([0.0, 0.0]), upper=np.array([INF, INF]))
    assert status == "optimal"
    assert np.allclose(x, [1.6, 1.2])
    assert c @ x == pytest.approx(2.8)


def test_infeasible():
    status, x = solve(np.array([1.0]), np.array([[1.0]]), np.array([-1.0]),
                      lower=np.array([0.0]), upper=np.array([INF]))
    assert status == "infeasible" and np.array_equal(x, [0.0])


def test_unbounded():
    status, x = solve(np.array([1.0]), np.zeros((0, 1)), np.zeros(0),
                      lower=np.array([0.0]), upper=np.array([INF]))
    assert status == "unbounded" and np.array_equal(x, [0.0])


def test_equality_constraint():
    # max y with x + y == 2, y <= 1.5
    status, x = solve(np.array([0.0, 1.0]), np.array([[1.0, 1.0], [0.0, 1.0]]),
                      np.array([2.0, 1.5]), equality=np.array([True, False]),
                      lower=np.array([-INF, -INF]), upper=np.array([INF, INF]))
    assert status == "optimal"
    assert x[0] + x[1] == pytest.approx(2.0)
    assert x[1] == pytest.approx(1.5)


def test_free_variables_negative_optimum():
    # max -x with x >= -3 expressed through a constraint on a free variable
    status, x = solve(np.array([-1.0]), np.array([[-1.0]]), np.array([3.0]),
                      lower=np.array([-INF]), upper=np.array([INF]))
    assert status == "optimal"
    assert x[0] == pytest.approx(-3.0)


def test_box_bounds():
    status, x = solve(np.array([1.0, -1.0]), np.zeros((0, 2)), np.zeros(0),
                      lower=np.array([0.0, -2.0]), upper=np.array([3.0, 5.0]))
    assert status == "optimal"
    assert np.allclose(x, [3.0, -2.0])


# the default pivot rule, and Bland's rule from the first pivot
PIVOT_RULES = pytest.mark.parametrize("bland_after", [None, 0])


def _pivot_rule(mp, bland_after):
    if bland_after is not None:
        mp.setattr(lpmod, "_BLAND_AFTER", bland_after)


@PIVOT_RULES
def test_degenerate_does_not_cycle(bland_after, monkeypatch):
    # classic Beale-style degeneracy; must terminate at 0.05
    _pivot_rule(monkeypatch, bland_after)
    c = np.array([0.75, -150.0, 0.02, -6.0])
    status, x = solve(c, np.array([
        [0.25, -60.0, -1.0 / 25.0, 9.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]), np.array([0.0, 0.0, 1.0]), lower=np.zeros(4), upper=np.full(4, INF))
    assert status == "optimal"
    assert c @ x == pytest.approx(0.05)


def test_deterministic():
    lp = (np.array([1.0, 2.0, -1.0]),
          np.array([[1.0, 1.0, 1.0],
                    [2.0, -1.0, 0.0],
                    [0.0, 1.0, 4.0],
                    [0.0, 0.0, -1.0]]),
          np.array([5.0, 3.0, 7.0, 2.0]), None,
          np.array([0.0, 0.0, -INF]), np.array([INF, INF, INF]))
    _, a = solve(*lp)
    _, b = solve(*lp)
    assert a.tobytes() == b.tobytes()


def test_pivot_budget(monkeypatch):
    """solve returns "numerical" when its pivot budget runs out in phase 2:
    the LP of test_simple_maximum needs no phase 1 and takes two pivots, so
    it solves at _MAX_PIVOTS = 2 (the optimality check after the last pivot
    still runs) and is "numerical", x zero, at 1."""
    lp = (np.array([1.0, 1.0]), np.array([[1.0, 2.0], [3.0, 1.0]]),
          np.array([4.0, 6.0]), None, np.zeros(2))
    pivots = []
    pivot = lpmod._pivot
    monkeypatch.setattr(lpmod, "_pivot",
                        lambda *args: pivots.append(args) or pivot(*args))
    assert solve(*lp)[0] == "optimal" and len(pivots) == 2
    monkeypatch.setattr(lpmod, "_MAX_PIVOTS", 2)
    status, x = solve(*lp)
    assert status == "optimal" and np.allclose(x, [1.6, 1.2])
    monkeypatch.setattr(lpmod, "_MAX_PIVOTS", 1)
    status, x = solve(*lp)
    assert status == "numerical" and np.array_equal(x, np.zeros(2))


def test_pivot_budget_in_phase_1(monkeypatch):
    """A budget spent in phase 1 is "numerical", x zero, and phase 2 never
    runs: min x + y s.t. x + y >= 1 starts infeasible at 0 and needs a
    phase-1 pivot, which _MAX_PIVOTS = 0 does not allow; read as phase 1's
    verdict, that stop would say "infeasible".  Phase 1 enters over all four
    columns, the artificial one included, and phase 2 over three."""
    lp = (np.array([-1.0, -1.0]), np.array([[-1.0, -1.0]]), np.array([-1.0]),
          None, np.zeros(2))
    ncols = spy(monkeypatch, lpmod, "_iterate", lambda *args: args[-1])
    status, x = solve(*lp)
    assert status == "optimal" and x.sum() == pytest.approx(1.0) and ncols == [4, 3]
    monkeypatch.setattr(lpmod, "_MAX_PIVOTS", 0)
    ncols.clear()
    status, x = solve(*lp)
    assert status == "numerical" and np.array_equal(x, np.zeros(2)) and ncols == [4]


@st.composite
def box_lps(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_cons = draw(st.integers(0, 6))
    A = rng.normal(size=(n_cons, 2))
    b = rng.uniform(0.5, 3, size=n_cons)
    obj = rng.normal(size=2)
    return obj, A, b, None, np.zeros(2), np.ones(2)


@PIVOT_RULES
@settings(max_examples=60, deadline=None)
@given(box_lps())
def test_against_grid_enumeration(bland_after, lp):
    """On a box-bounded problem the simplex optimum dominates every feasible
    grid point and its solution is feasible."""
    with pytest.MonkeyPatch.context() as mp:
        _pivot_rule(mp, bland_after)
        status, x = solve(*lp)
    c, A, b = lp[:3]
    assert status == "optimal"  # box-bounded, 0 is feasible here
    assert np.all(A @ x <= b + 1e-7)
    xs = np.linspace(0, 1, 21)
    gx, gy = np.meshgrid(xs, xs)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    feas = np.all(pts @ A.T <= b + 1e-12, axis=1)
    if feas.any():
        best = float((pts[feas] @ c).max())
        assert c @ x >= best - 1e-7


@st.composite
def mixed_lps(draw):
    """1-4 variables, <= and == rows with small integer data, and every kind
    of variable bound: free, lower only, upper only, and box."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 5))
    coeff = st.integers(-3, 3)
    A = np.array(draw(st.lists(st.lists(coeff, min_size=n, max_size=n),
                               min_size=m, max_size=m)), float).reshape(m, n)
    b = np.array(draw(st.lists(st.integers(-4, 6), min_size=m, max_size=m)),
                 float)
    eq = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)), bool)
    lower = np.full(n, -INF)
    upper = np.full(n, INF)
    for j in range(n):
        kind = draw(st.sampled_from(["free", "lower", "upper", "box"]))
        if kind in ("lower", "box"):
            lower[j] = draw(st.integers(-3, 2))
        if kind == "upper":
            upper[j] = draw(st.integers(-2, 3))
        if kind == "box":
            upper[j] = lower[j] + draw(st.integers(0, 4))
    obj = np.array(draw(st.lists(coeff, min_size=n, max_size=n)), float)
    return obj, A, b, eq.reshape(m), lower, upper


@settings(max_examples=300, deadline=None)
@given(mixed_lps())
@example((np.array([0.0, 0.0, 0.0, 1.0]),
          np.array([[0.0, 0.0, -1.0, -1.0],
                    [0.0, 1.0, 0.0, -1.0],
                    [0.0, -1.0, 1.0, 1.0]]),
          np.zeros(3), np.zeros(3, bool),
          np.array([-INF, 1.0, -INF, -INF]), np.full(4, INF)))
@example((np.array([0.0, 0.0, 1.0, 1.0]),
          np.array([[0.0, 0.0, 0.0, -2.0],
                    [0.0, 0.0, -1.0, -1.0]]),
          np.zeros(2), np.zeros(2, bool),
          np.array([-INF, -INF, 1.0, 1.0]), np.full(4, INF)))
def test_matches_scipy_linprog(lp):
    """Differential test: the same status as scipy's HiGHS, and the same
    optimal objective value. HiGHS runs without presolve: its presolve
    calls some feasible unbounded problems infeasible (scipy 1.17, e.g.
    max x3 s.t. -x2-x3 <= 0, x1-x3 <= 0, -x1+x2+x3 <= 0, x1 >= 1).
    Without presolve it leaves some unbounded problems with the model
    status Unknown (linprog status 4; e.g. max x3+x4 s.t. -2x4 <= 0,
    -x3-x4 <= 0, x3, x4 >= 1, free x1, x2 in no row); those are asked
    again with presolve."""
    optimize = pytest.importorskip("scipy.optimize")
    c, A, b, eq, lower, upper = lp

    def highs(presolve):
        return optimize.linprog(
            -c,
            A_ub=A[~eq] if (~eq).any() else None,
            b_ub=b[~eq] if (~eq).any() else None,
            A_eq=A[eq] if eq.any() else None,
            b_eq=b[eq] if eq.any() else None,
            bounds=[(None if np.isinf(lo) else lo,
                     None if np.isinf(up) else up)
                    for lo, up in zip(lower, upper)],
            method="highs", options={"presolve": presolve})

    ref = highs(presolve=False)
    if ref.status == 4:
        ref = highs(presolve=True)
    expected = {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
    status, x = solve(*lp)
    assert status == expected
    if expected == "optimal":
        want = -ref.fun
        assert abs(c @ x - want) <= 1e-7 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# the closed form of a 2-bounce side with one variable against the simplex


def _direction(angle):
    return np.array([[np.cos(angle), np.sin(angle)]])


def _cone(*angles):
    """The cone spanned by the directions at angles (one: a ray)."""
    return NormalConeRep((_direction(angles[0]), _direction(angles[-1])),
                         np.bool_(len(angles) == 1))


def _affine(c, d=(0.0, 0.0)):
    """The point c + t d in the one variable t, a stack of one in the form
    of bounce2._point: (1, 2, 2), the constant, then the coefficient."""
    return np.array([[c, d]], float)


def _side(rows, objective):
    """The arrays solve_interval takes for the LP in t of one side's rows
    (_cycle_rows' A, b, is_equality), a stack of one: objective (1,),
    constraints (1, m, 1), rhs (1, m) and the equality flags (m,)."""
    A, b, eq = rows
    return np.array([objective], float), A, b, eq[0]


def _member(objective, constraints, rhs, equality):
    """The same LP for solve, with t in [0, 1] as bounds."""
    return objective, constraints[0], rhs[0], equality, np.zeros(1), np.ones(1)


@st.composite
def one_variable_sides(draw):
    """The LP of a 2-bounce side with one variable: the point q(t) = A + t D
    on a facet and a fixed point F close a 2-gon whose edges F - q and q - F
    lie in two cones.  F sits so that the line of F - q(s) hits the facet at
    s, and each cone is aimed at that direction give or take an offset: a
    ray with a wedge, two wedges, a ray through an end of the facet in
    integers (so s is exactly 0 or 1), or two rays that are parallel up to
    a tiny angle (parallel facets of the other body).  The tilt of those
    stays clear of the band (about 1e-10) where both of their values are
    feasible to within the tolerance but only one of them to within the
    bounds, so that the simplex's verdict follows the pin its pivots reach
    first."""
    kind = draw(st.sampled_from(
        ("ray+wedge", "two wedges", "t at an end", "near-parallel rays")))
    offset = st.sampled_from((0.0, 0.0, 1e-6, -1e-6, 0.1, -0.3))
    if kind == "t at an end":
        step = st.integers(-3, 3)
        A = np.array([draw(step), draw(step)], float)
        D = np.array(draw(st.sampled_from(((1, 0), (0, 2), (1, 1), (-2, 1)))), float)
        s = draw(st.sampled_from((0.0, 1.0)))
        u = np.array(draw(st.sampled_from(((0, 1), (0, -1), (1, 0), (-1, 0)))), float)
        if abs(u[0] * D[1] - u[1] * D[0]) == 0:
            u = u[::-1].copy()
        F = A + s * D + draw(st.integers(1, 3)) * u
        aim = np.arctan2(u[1], u[0])
    else:
        angle = st.floats(0, 2 * np.pi)
        A = np.array([draw(st.floats(-3, 3)), draw(st.floats(-3, 3))])
        D = draw(st.floats(0.1, 3)) * _direction(draw(angle))[0]
        s = draw(st.floats(-0.2, 1.2))
        aim = draw(angle)
        F = A + s * D + draw(st.floats(0.1, 3)) * _direction(aim)[0]
    width = st.floats(0.01, 3.0)
    spread = draw(width)
    first = aim + draw(offset)
    second = aim + np.pi + draw(offset)
    wedge = (second - draw(st.floats(0, 1)) * spread,)
    wedge += (wedge[0] + spread,)
    if kind == "two wedges":
        cones = (_cone(first - spread / 2, first + spread / 2), _cone(*wedge))
    elif kind == "near-parallel rays":
        tilt = draw(st.sampled_from((0.0, 1e-15, 1e-6)))
        cones = (_cone(first), _cone(first + np.pi + tilt))
    else:
        cones = (_cone(first), _cone(*wedge))
    points = [_affine(A, D), _affine(F)]
    if draw(st.booleans()):  # the 2-gon (F, q): its edges swap their cones
        points.reverse()
        cones = cones[::-1]
    return _side(_cycle_rows(points, cones), draw(st.sampled_from((0.0, 0.0, 1.0, -1.0))))


@pytest.mark.parametrize("objective", [0.0, -1.0])
def test_solve_interval_pin_just_below_lower_bound(objective):
    """An equality pins t 1e-9 below its lower bound.  The simplex leaves t
    there with no objective, the bound check fails, and solve returns
    "numerical" with x zero; a negative objective steps t back to the bound,
    where the equality holds to within its tolerance.  solve_interval
    follows it both ways."""
    side = (np.array([objective]), np.array([[[1.0], [-1.0], [0.5403023058681398]]]),
            np.array([[-1.0000001e-09, 1.0000001e-09, 0.8414709848078965]]),
            np.array([True, False, False]))
    [status], [[t]] = solve_interval(*side)
    simplex, [x] = solve(*_member(*side))
    if objective:
        assert (status, t) == (simplex, x) == ("optimal", 0.0)
    else:
        assert status == "infeasible"
        assert (simplex, x) == ("numerical", 0.0)


@pytest.mark.parametrize("delta", [1e-4, -1e-5, 1e-6])
@pytest.mark.parametrize("s", [-0.2, 0.0, 0.3, 1.0, 1.2])
def test_solve_interval_generator_nearly_along_the_facet(delta, s):
    """A ray delta rad off the direction of the facet pins t = s through a
    coefficient of sin(delta): both solvers give the verdict of the
    geometry (feasible iff s is on the facet) and the same t, to 1e-9."""
    A, D = np.zeros(2), np.array([1.0, 0.0])
    F = A + s * D + 2.0 * _direction(delta)[0]
    side = _side(_cycle_rows([_affine(A, D), _affine(F)],
                             (_cone(delta), _cone(delta + np.pi - 0.2, delta + np.pi + 0.2))),
                 0.0)
    [status], [[t]] = solve_interval(*side)
    simplex, [x] = solve(*_member(*side))
    _, constraints, _, eq = side
    assert abs(constraints[0, eq, 0]).max() < 1.1e-4
    assert status == simplex == ("optimal" if 0 <= s <= 1 else "infeasible")
    if status == "optimal":
        assert abs(t - x) <= 1e-9 and abs(t - s) <= 1e-6


def _small_pivot_side():
    """A drawn side (a wedge then a ray, objective 1) on which the simplex
    stopped 1.4e-9 past a bound: phase 1 pivots on the wedge row's -2e-6
    coefficient, which scales the next ratio test to ratios of about 1e-9,
    and a tie rule of 1e-12 absolute took the row of the smaller basis
    index (bound 0.5000000019) for the least ratio (0.5000000005)."""
    return _side(_cycle_rows([_affine((1.0, 0.0)), _affine((0.0, 0.0), (2.0, 0.0))],
                             (_cone(np.pi + 1e-6, np.pi + np.arcsin(0.263445)), _cone(0.0))),
                 1.0)


@settings(max_examples=400, deadline=None)
@given(one_variable_sides())
@example(_small_pivot_side())
def test_solve_interval_matches_simplex(side):
    """solve_interval decides each drawn side as the simplex does, and puts t
    where the simplex puts it: to 1e-12 where an equality pins it (with the
    search's zero objective), and at the end of the interval that the
    objective picks otherwise.  Two kinds of draw leave the simplex's t to
    rounding, and there t is compared to 1e-9: a generator nearly along the
    facet makes a coefficient tiny, and the simplex pivots on it; and a row
    violated by more than rounding but less than the tolerances at an end of
    the facet or at another row's bound leaves t to the order in which the
    simplex drives out its artificial columns.  Where the simplex's own
    point fails its re-check ("numerical"), a t that solve_interval finds
    must satisfy every row to within 1e-8 and the bounds."""
    [status], [[t]] = solve_interval(*side)
    objective, constraints, rhs, eq = side
    A, b = constraints[0, :, 0], rhs[0]
    simplex, [x] = solve(*_member(*side))
    if simplex == "numerical":
        resid = A * t - b
        assert status == "infeasible" or (
            (np.where(eq, np.abs(resid), resid) <= 1e-8).all() and -1e-9 <= t <= 1 + 1e-9)
        return
    assert status == simplex
    if status != "optimal":
        assert t == 0.0
        return
    ends = np.concatenate([[0.0, 1.0], b[A != 0] / A[A != 0]])
    resid = A[:, None] * ends - b[:, None]
    viol = np.where(eq[:, None], np.abs(resid), resid)
    tol = 1e-9 if (((A != 0) & (np.abs(A) < 1e-3)).any()
                   or ((viol > 1e-12) & (viol <= 1e-8)).any()) else 1e-12
    a = A[eq]
    pins = b[eq][np.abs(a) > 1e-9] / a[np.abs(a) > 1e-9]
    if not pins.size:
        assert abs(t - x) <= tol
    elif not objective.any():
        # two near-parallel rays pin t to two values; the simplex may stop at
        # either (and with an objective it may slide t along an equality by
        # as much as that equality's tolerance allows)
        assert abs(t - x) <= tol + np.ptp(pins)


def _recording(calls):
    """lp.solve_dual3, recording each call's stack and answers."""
    solve_dual3 = lpmod.solve_dual3

    def recording(objective, constraints, rhs, basis):
        status, x = solve_dual3(objective, constraints, rhs, basis)
        B, m, _ = np.shape(constraints)
        calls.append((np.broadcast_to(objective, (B, 3)), np.asarray(constraints),
                      np.broadcast_to(rhs, (B, m)), status, x))
        return status, x
    return recording


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 8), st.integers(3, 10),
       st.booleans())
def test_solve_dual3_matches_scipy_linprog(seed, nk, nt, moved):
    """Differential test of the dual simplex on the LPs it is made for: the
    inbody LPs and the q-side fits of search_three_bounce on a random
    instance, with T moved off the origin where `moved`.  Up to 12 members
    of each stack are asked of scipy's HiGHS: the same status, and the same
    optimal objective value to 1e-9 relative to max(1, |value|)."""
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(seed)
    K, T = random_instance(rng, nk, nt)
    if moved:
        T = T.translate(rng.uniform(-4.0, 4.0, size=2))
    calls = []
    with mock.patch.object(lpmod, "solve_dual3", _recording(calls)):
        search_three_bounce(K, T)
    for c, A, b, status, x in calls:
        for k in rng.permutation(len(A))[:12]:
            ref = optimize.linprog(-c[k], A_ub=A[k], b_ub=b[k],
                                   bounds=(None, None), method="highs")
            assert status[k] == {0: "optimal", 2: "infeasible"}[ref.status]
            if ref.status == 0:
                assert c[k] @ x[k] == pytest.approx(-ref.fun, rel=1e-9, abs=1e-9)
