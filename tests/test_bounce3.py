import math

import numpy as np
import pytest

from minkbill.bounce3 import (FitRejected, NoInbody, NotSpanning, build_gamma,
                              build_xi, dual_normal_choices, facet_triple_count,
                              facet_triples, find_inbody, fit_to_k,
                              search_three_bounce, solve_facet_triple,
                              spanning_triples)
from minkbill.fixtures import (equilateral_triangle, fixture_names, load,
                               regular_ngon)
from minkbill.geom import (EPS_GEO, ConvexPolytope2, GeometryError, find_face,
                           normal_cone, positively_spans)
from minkbill.lp import LinearProgram, solve
from minkbill.randgen import random_instance, random_polytope
from minkbill.verify import certify


def test_facet_triples_count():
    hexagon = regular_ngon(6)
    triples = list(facet_triples(hexagon))
    assert len(triples) == facet_triple_count(hexagon) == 6 * 5 * 4 // 3
    assert len(set(triples)) == len(triples)
    for i, j, k in triples:
        assert i < j and i < k and j != k  # smallest index first, both orders


def test_build_gamma_equilateral():
    tri = equilateral_triangle()
    gamma = build_gamma(tri.normals)
    assert np.allclose(gamma.alphas, -1.0)
    edges = np.roll(gamma.vertices, -1, axis=0) - gamma.vertices
    for i in range(3):
        assert np.allclose(edges[i], gamma.alphas[i] * gamma.normals[i])
    assert np.allclose(edges.sum(axis=0), 0.0, atol=1e-12)


def test_build_gamma_rejects_nonspanning():
    with pytest.raises(NotSpanning):
        build_gamma([(1, 0), (0, 1), (1, 1)])


def test_build_xi_closes_with_positive_betas():
    tri = equilateral_triangle()
    xi = build_xi(-tri.normals)
    assert all(b > 0 for b in xi.betas)
    edges = np.roll(xi.vertices, -1, axis=0) - xi.vertices
    assert np.allclose(edges.sum(axis=0), 0.0, atol=1e-12)


def test_find_inbody_triangle_in_ngon():
    gamma = build_gamma(equilateral_triangle().normals)
    ib = find_inbody(gamma.vertices, regular_ngon(64))
    assert ib.scale > 0
    # all contact points on the boundary
    for v in ib.vertices:
        s = regular_ngon(64).normals @ v - regular_ngon(64).offsets
        assert abs(s.max()) < 1e-7


def test_inbody_rejection_reasons():
    fx = load("exampleA")
    for triple, reason in (((0, 1, 2), "HalfspaceViolation"),
                           ((0, 2, 1), "NotOnBoundary")):
        gamma = build_gamma(fx.K.normals[list(triple)])
        with pytest.raises(NoInbody) as err:
            find_inbody(gamma.vertices, fx.T)
        assert err.value.reason == reason


def test_fit_rejects_off_facet():
    # a tiny triangle fitted to a huge one lands outside the chosen facets
    tri = equilateral_triangle()
    xi = build_xi(-tri.normals)
    stretched = ConvexPolytope2.from_vertices(
        [(100, 0), (0, 0.01), (0, -0.01)])
    with pytest.raises((FitRejected, NotSpanning)):
        fit_to_k(xi, stretched, (0, 1, 2))


def test_fagnano_orbit_is_midpoint_triangle():
    K = equilateral_triangle()
    pairs = search_three_bounce(K, regular_ngon(64))
    assert pairs
    best = pairs[0]
    mid = 0.5 * (K.vertices + np.roll(K.vertices, -1, axis=0))
    # compare as point sets; the 64-gon discretization of the disk shifts the
    # orbit by a few hundredths
    for v in best.q.vertices:
        assert min(np.hypot(*(mid - v).T)) < 0.05
    # Euclidean perimeter of the midpoint triangle is 3 * sqrt(3)/2 * side
    assert best.length == pytest.approx(1.5 * math.sqrt(3), abs=0.01)


def test_example_a_triple_empty():
    fx = load("exampleA")
    assert search_three_bounce(fx.K, fx.T) == []


def test_same_faces_same_length():
    K = equilateral_triangle()
    T = regular_ngon(32)
    for triple in facet_triples(K):
        by_faces = {}
        for pair in solve_facet_triple(K, T, triple):
            by_faces.setdefault(pair.t_faces, []).append(pair.length)
        for lengths in by_faces.values():
            assert max(lengths) - min(lengths) < 1e-9


def test_returned_pairs_certified(rng):
    for _ in range(5):
        K, T = random_instance(rng, int(rng.integers(3, 7)),
                               int(rng.integers(3, 7)))
        for pair in search_three_bounce(K, T):
            assert pair.q.m == 3
            assert certify(K, T, pair).certified


def test_dual_normal_choices_include_extreme_rays():
    gamma = build_gamma(equilateral_triangle().normals)
    ib = find_inbody(gamma.vertices, regular_ngon(3, phase=0.3))
    choices = dual_normal_choices(ib, regular_ngon(3, phase=0.3), samples=8)
    assert choices
    # every facet contact contributes exactly its normal
    for f, combo in zip(ib.t_faces, choices[0]):
        if f.is_edge:
            assert np.allclose(combo, regular_ngon(3, phase=0.3).normals[f.index])


def _inbody_per_vertex(tri, T):
    """Outcome of the inbody LP written with one row per facet of T and
    vertex of the triangle (3 |V(T)| rows), followed by the contact tests of
    find_inbody: (reason or "ok", lambda, contact faces)."""
    A = np.array([[a @ t, a[0], a[1]] for a in T.normals for t in tri])
    sol = solve(LinearProgram(np.array([1.0, 0.0, 0.0]), A,
                              np.repeat(T.offsets, 3),
                              lower=np.array([0.0, -np.inf, -np.inf])))
    if sol.status != "optimal" or sol.x[0] <= EPS_GEO:
        return "DegenerateLp", None, None
    lam = sol.x[0]
    try:
        faces = tuple(find_face(T, v, tol=1e-7) for v in lam * tri + sol.x[1:])
    except GeometryError:
        return "NotOnBoundary", lam, None
    gens = [g for f in faces for g in normal_cone(T, f).generators]
    if not positively_spans(gens):
        return "HalfspaceViolation", lam, faces
    return "ok", lam, faces


def test_inbody_one_row_per_facet_matches_per_vertex_rows(rng):
    outcomes = []
    for _ in range(150):
        T = random_polytope(rng, int(rng.integers(3, 16)))
        if rng.random() < 0.5:
            tri = rng.normal(size=(3, 2))
        else:
            K = random_polytope(rng, int(rng.integers(3, 10)))
            triples = spanning_triples(K)
            tri = build_gamma(K.normals[triples[rng.integers(len(triples))]]
                              ).vertices
        reason, lam, faces = _inbody_per_vertex(tri, T)
        try:
            ib = find_inbody(tri, T)
        except NoInbody as err:
            assert err.reason == reason
        else:
            assert reason == "ok"
            assert ib.scale == pytest.approx(lam, rel=1e-12)
            assert ib.t_faces == faces
        outcomes.append(reason)
    assert outcomes.count("ok") >= 10 and outcomes.count("NotOnBoundary") >= 10


def _build_gamma_accepts(K, triple):
    try:
        build_gamma(K.normals[list(triple)])
    except NotSpanning:
        return False
    return True


def test_spanning_triples_match_build_gamma(rng):
    bodies = [body for name in fixture_names()
              for body in (load(name).K, load(name).T) if body.n <= 30]
    bodies += [regular_ngon(n) for n in (3, 4, 6, 12)]
    bodies += [random_polytope(rng, n) for n in (3, 4, 5, 8, 13, 21, 30)]
    for K in bodies:
        expected = [t for t in facet_triples(K) if _build_gamma_accepts(K, t)]
        assert [tuple(t) for t in spanning_triples(K).tolist()] == expected
