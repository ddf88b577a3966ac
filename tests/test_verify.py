import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minkbill import lp as lpmod
from minkbill.bounce2 import search_two_bounce
from minkbill.bounce3 import search_three_bounce
from minkbill.fixtures import example_g_curve, fixture_names, load, regular_ngon
from minkbill.geom import (EPS_GEO, ClosedCurve, ConvexPolytope2, Face,
                           GeometryError, InvalidPolytope, ZeroVector,
                           find_face)
from minkbill.pairs import make_pair
from minkbill.randgen import random_instance, random_polytope
from minkbill.verify import (LineNotSupporting, boundary_grid, brute_force_min,
                             certify, check_weak_rule, _immovable_table,
                             _subset_immovable_table)

from test_geom import _reference_in_f

SQUARE = ConvexPolytope2.from_vertices([(1, -1), (1, 1), (-1, 1), (-1, -1)])


def _chord_pair():
    # vertical chord in the square with itself as geometry
    q = [(0, -1), (0, 1)]
    p = [(0, 1), (0, -1)]
    return make_pair(SQUARE, SQUARE, q, p,
                     (Face.edge(3), Face.edge(1)),
                     (Face.edge(1), Face.edge(3)))


def test_certify_valid_chord():
    pair = _chord_pair()
    cert = certify(SQUARE, SQUARE, pair)
    assert cert.certified
    assert cert.system_residual < 1e-12
    assert cert.dual_length_residual < 1e-12
    assert pair.length == pytest.approx(4.0)


def test_certify_detects_broken_reflection():
    pair = _chord_pair()
    bad = make_pair(SQUARE, SQUARE, [(0, -1), (0.4, 1)], pair.p.vertices,
                    pair.k_faces, pair.t_faces)
    cert = certify(SQUARE, SQUARE, bad)
    assert not cert.certified
    assert cert.system_residual > 1e-3


def test_certify_detects_off_face_vertex():
    pair = _chord_pair()
    bad = make_pair(SQUARE, SQUARE, pair.q.vertices,
                    [(0.5, 1.2), (0, -1)], pair.k_faces, pair.t_faces)
    cert = certify(SQUARE, SQUARE, bad)
    assert not cert.certified
    assert cert.face_residual > 0.1


def test_forced_dual_fails_on_example_a():
    fx = load("exampleA")
    q, p = fx.curves["q"], fx.forced_duals["q"]
    pair = make_pair(fx.K, fx.T, q.vertices, p.vertices,
                     tuple(find_face(fx.K, v) for v in q.vertices),
                     tuple(find_face(fx.T, v) for v in p.vertices))
    cert = certify(fx.K, fx.T, pair)
    assert not cert.certified
    assert cert.system_residual > 0.1


# --- weak rule --------------------------------------------------------------

def _g_normals(K, q):
    return [np.asarray(K.normals[find_face(K, v).index])
            if find_face(K, v).is_edge else None
            for v in q.vertices]


def test_weak_rule_holds_on_family_member():
    fx = load("exampleG")
    q = example_g_curve(0.25)
    normals = _g_normals(fx.K, q)
    assert check_weak_rule(fx.K, fx.T, q, normals) <= 1e-9


def test_weak_rule_flags_non_minimizer():
    fx = load("exampleG")
    # same supporting lines, but one vertex displaced along its line
    q = example_g_curve(0.25)
    v = q.vertices.copy()
    d = fx.K.vertices[1] - fx.K.vertices[2]
    v[0] = v[0] - 0.2 * d / np.hypot(*d)
    moved = ClosedCurve.from_vertices(v)
    normals = _g_normals(fx.K, q)
    assert check_weak_rule(fx.K, fx.T, moved, normals) > 1e-3


def test_weak_rule_rejects_non_supporting_line():
    fx = load("exampleG")
    q = example_g_curve(0.25)
    with pytest.raises(LineNotSupporting):
        check_weak_rule(fx.K, fx.T, q, [(0.0, -1.0), (0.0, -1.0)])


def test_weak_rule_rejects_zero_normal():
    fx = load("exampleF_aux")
    with pytest.raises(ZeroVector):
        check_weak_rule(fx.K, fx.T, fx.curves["q"], [(0.0, 0.0), (0.0, 1.0)])


# --- brute force ------------------------------------------------------------

def test_boundary_grid_counts():
    pts, masks = boundary_grid(SQUARE, 8)
    assert pts.shape == (32, 2)
    # corner points carry two facet bits
    assert bin(int(masks[0])).count("1") == 2


def test_brute_force_square_chord():
    assert brute_force_min(SQUARE, SQUARE, 2, 8) == pytest.approx(4.0)


def test_brute_force_example_f():
    fx = load("exampleF_aux")
    assert brute_force_min(fx.K, fx.T, 2, 128) == pytest.approx(4.0, abs=0.05)


def test_brute_force_triangle_m3():
    from minkbill.fixtures import equilateral_triangle, regular_ngon
    K = equilateral_triangle()
    val = brute_force_min(K, regular_ngon(32), 3, 64)
    # true minimum is the Fagnano orbit, about 2.598 for the 32-gon geometry
    assert 2.4 < val < 2.8


def test_brute_never_below_search(rng):
    for _ in range(3):
        K, T = random_instance(rng, int(rng.integers(3, 6)),
                               int(rng.integers(3, 6)))
        alg = min(p.length for p in search_two_bounce(K, T))
        assert brute_force_min(K, T, 2, 64) >= alg - 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 10**6))
def test_mask_table_matches_margin_lp(seed, pick):
    """The facet-subset criterion used by the oracle agrees with the
    translation-margin LP on boundary point sets."""
    rng = np.random.default_rng(seed)
    K = random_polytope(rng, int(rng.integers(3, 7)))
    pts, masks = boundary_grid(K, 6)
    tab = _subset_immovable_table(K)
    i = pick % len(pts)
    j = (pick * 7919 + 13) % len(pts)
    subset = pts[[i, j]]
    assert tab[masks[i] | masks[j]] == _reference_in_f(K, subset)


def _reference_immovable_table(normals):
    """The facet-subset table built one mask at a time, by a loop over the
    sorted angles of the selected normals."""
    n = normals.shape[0]
    angles = np.arctan2(normals[:, 1], normals[:, 0])
    tab = np.zeros(1 << n, bool)
    for mask in range(1, 1 << n):
        sel = sorted(angles[i] for i in range(n) if mask >> i & 1)
        if len(sel) == 1:
            continue
        gap = max(sel[k + 1] - sel[k] for k in range(len(sel) - 1))
        gap = max(gap, 2 * math.pi - (sel[-1] - sel[0]))
        tab[mask] = gap <= math.pi + 1e-12
    return tab


def test_mask_table_matches_reference_loop(rng):
    bodies = [regular_ngon(n, phase=phase) for n in range(3, 17)
              for phase in (0.0, 0.1 * n)]
    bodies += [random_polytope(rng, int(rng.integers(3, 11))) for _ in range(30)]
    for K in bodies:
        got = _subset_immovable_table(K)
        assert np.array_equal(got, _reference_immovable_table(K.normals)), K.n
    # facets 0 and 3 of the hexagon are a strip: gap pi, immovable
    assert _subset_immovable_table(regular_ngon(6))[0b001001]
    with pytest.raises(GeometryError):
        _subset_immovable_table(regular_ngon(17))


def _certify_cases():
    """Fixture pairs (built from the fixture curves, and the pairs the
    searches find on the small fixtures) and the pairs of seeded random
    instances, with certificates of both outcomes."""
    cases = [(SQUARE, SQUARE, _chord_pair())]
    fx = load("exampleA")
    q, p = fx.curves["q"], fx.forced_duals["q"]
    cases.append((fx.K, fx.T, make_pair(
        fx.K, fx.T, q.vertices, p.vertices,
        tuple(find_face(fx.K, v) for v in q.vertices),
        tuple(find_face(fx.T, v) for v in p.vertices))))
    bodies = [(load(name).K, load(name).T) for name in
              ("exampleA", "exampleD", "exampleE", "exampleF_aux", "exampleG")]
    rng = np.random.default_rng(11)
    bodies += [random_instance(rng, int(rng.integers(3, 9)),
                               int(rng.integers(3, 9))) for _ in range(5)]
    for K, T in bodies:
        pairs = search_two_bounce(K, T) + search_three_bounce(K, T)
        cases += [(K, T, pair) for pair in pairs]
        # the same pair with its dual reversed: a certificate that fails
        cases += [(K, T, make_pair(K, T, pair.q.vertices, pair.p.vertices[::-1],
                                   pair.k_faces, pair.t_faces[::-1]))
                  for pair in pairs[:2] if pair.q.m == 2]
    return cases


def test_certify_runs_no_lp(monkeypatch):
    """A certificate is recomputed without the LP solver the searches use:
    with every binding of lp.solve and lp.solve_stack in the package made to
    raise, certify returns the same certificates."""
    cases = _certify_cases()
    want = [certify(K, T, pair) for K, T, pair in cases]
    assert {c.certified for c in want} == {True, False}

    def no_lp(*args, **kwargs):
        raise AssertionError("the LP solver was called")

    solvers = (lpmod.solve, lpmod.solve_stack)
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "minkbill":
            continue
        for attr, value in list(vars(mod).items()):
            if any(value is f for f in solvers):
                monkeypatch.setattr(mod, attr, no_lp)
    with pytest.raises(AssertionError):
        search_two_bounce(SQUARE, SQUARE)  # the patch does reach the solver
    assert [certify(K, T, pair) for K, T, pair in cases] == want


def test_mask_table_cache_stays_bounded(rng):
    """The oracle keeps the facet-subset tables of a bounded number of
    bodies, however many distinct bodies a process meets."""
    limit = _immovable_table.cache_info().maxsize
    bodies = [random_polytope(rng, int(rng.integers(3, 7)))
              for _ in range(2 * limit)]
    for K in bodies:
        brute_force_min(K, K, 2, 2)
    assert _immovable_table.cache_info().currsize == limit
    # a cached table is returned as is, and cannot be altered by a caller
    tab = _subset_immovable_table(bodies[-1])
    assert tab is _subset_immovable_table(bodies[-1])
    assert not tab.flags.writeable


def _reference_brute_force_min(K, T, m, grid_per_facet):
    """The oracle as it was before degeneracy was read from the facet masks:
    an (N, N, |V(T)|) support temporary, EPS_GEO distance and cross-product
    thresholds, and one fancy-indexed (N, N) block per row."""
    if m not in (2, 3):
        raise ValueError("only m = 2 and m = 3 are supported")
    pts, masks = boundary_grid(K, grid_per_facet)
    ok = _subset_immovable_table(K)
    N = pts.shape[0]
    G = pts @ T.vertices.T  # (N, |V(T)|); support of a difference is a max over columns
    scale2 = max(1.0, K.diameter() ** 2)
    if m == 2:
        sup = (G[None, :, :] - G[:, None, :]).max(axis=2)  # sup[i,j] = h_T(x_j - x_i)
        pairmask = masks[:, None] | masks[None, :]
        d = pts[:, None, :] - pts[None, :, :]
        dist2 = (d ** 2).sum(axis=2)
        valid = ok[pairmask] & (dist2 > (EPS_GEO ** 2) * scale2)
        lengths = np.where(valid, sup + sup.T, np.inf)
        return float(lengths.min())

    best = np.inf
    sup = (G[None, :, :] - G[:, None, :]).max(axis=2)
    for i in range(N - 2):
        idx = np.arange(i + 1, N)
        tm = ok[(masks[i] | masks[idx])[:, None] | masks[idx][None, :]]
        di = pts[idx] - pts[i]
        # noncollinearity of the triangle (i, j, k)
        crossjk = np.abs(di[:, 0][:, None] * di[:, 1][None, :]
                         - di[:, 1][:, None] * di[:, 0][None, :])
        valid = tm & (crossjk > EPS_GEO * scale2)
        if not valid.any():
            continue
        L = (sup[i, idx][:, None] + sup[np.ix_(idx, idx)] + sup[idx, i][None, :])
        cand = float(np.where(valid, L, np.inf).min())
        best = min(best, cand)
    return best


def _oracle_instances():
    """(K, T, grid) triples: seeded random bodies, regular n-gon pairs (with
    and without parallel facets), and the fixtures whose K the oracle takes."""
    rng = np.random.default_rng(20240601)
    for _ in range(60):
        K, T = random_instance(rng, int(rng.integers(3, 9)),
                               int(rng.integers(3, 13)))
        yield K, T, int(rng.integers(2, 41))
    for nk in (3, 4, 6, 8):
        for nt in (3, 4, 5, 12):
            yield regular_ngon(nk), regular_ngon(nt), 12
    for name in fixture_names():
        fx = load(name)
        if fx.K.n <= 16:
            yield fx.K, fx.T, 10


def test_brute_force_matches_reference():
    """Reading degeneracy from the facet masks returns the very floats of the
    threshold-based oracle, for 2-gons and for triangles."""
    for K, T, grid in _oracle_instances():
        for m in (2, 3):
            assert brute_force_min(K, T, m, grid) == \
                _reference_brute_force_min(K, T, m, grid), (K.n, T.n, grid, m)


def _scaled(P, c, shift):
    return ConvexPolytope2.from_vertices(c * P.vertices + shift)


def test_brute_force_is_covariant_under_scale_and_translation():
    """brute_force_min(cK + s, dT + t) = c d brute_force_min(K, T): exactly for
    powers of two with no translation, to rounding with one."""
    rng = np.random.default_rng(7)
    scales = (2.0 ** -14, 2.0 ** -12, 2.0 ** 10)
    checked = 0
    for _ in range(10):
        K, T = random_instance(rng, int(rng.integers(4, 9)),
                               int(rng.integers(4, 9)))
        s, t = rng.normal(size=2) * 5, rng.normal(size=2) * 5
        base = [brute_force_min(K, T, m, 64) for m in (2, 3)]
        for c in scales:
            for d in scales:
                try:
                    cK, dT = _scaled(K, c, 0.0), _scaled(T, d, 0.0)
                except InvalidPolytope:
                    continue  # too small for from_vertices' absolute tolerance
                checked += 1
                for m, b in zip((2, 3), base):
                    assert brute_force_min(cK, dT, m, 64) == c * d * b, (c, d, m)
        for c, d in zip(scales, scales[1:] + scales[:1]):
            try:
                cKs, dTt = _scaled(K, c, c * s), _scaled(T, d, d * t)
            except InvalidPolytope:
                continue
            for m, b in zip((2, 3), base):
                assert brute_force_min(cKs, dTt, m, 64) == \
                    pytest.approx(c * d * b, rel=1e-9), (c, d, m)
    assert checked >= 40


def test_brute_force_memory_is_quadratic_in_the_grid():
    """The oracle's peak allocation stays within a few (N, N) float arrays and
    does not grow with the number of vertices of T."""
    K = regular_ngon(8)
    N = boundary_grid(K, 64)[0].shape[0]
    peaks = []
    for nt in (6, 48):
        T = regular_ngon(nt)
        brute_force_min(K, T, 3, 8)  # warm the mask-table cache
        tracemalloc.start()
        try:
            brute_force_min(K, T, 3, 64)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 8 * N * N * 8
    assert max(peaks) <= 1.2 * min(peaks)
