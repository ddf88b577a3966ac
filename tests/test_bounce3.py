import itertools
import math

import numpy as np
import pytest

from minkbill import bounce3
from minkbill.bounce3 import (FitRejected, NoInbody, NotSpanning, build_gamma,
                              facet_triple_count, facet_triples, find_inbody,
                              fit_family, fit_to_k, search_three_bounce,
                              solve_facet_triple, spanning_triples)
from minkbill.fixtures import (equilateral_triangle, fixture_names, load,
                               regular_ngon)
from minkbill.geom import (EPS_GEO, ConvexPolytope2, Face, GeometryError,
                           face_distance, find_face, normal_cone,
                           positively_spans, support_many)
from minkbill.lp import LinearProgram, NumericalFailure, solve
from minkbill.pairs import make_pair
from minkbill.randgen import random_instance, random_polytope
from minkbill.verify import certified_pair, certify


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
    # with the facet normals of a triangle T taken in one order, the only
    # triangle with edges along them and vertices on the lines of a
    # needle-thin K puts its vertices outside the facets of K; in the other
    # order it fits
    T = regular_ngon(3)
    needle = ConvexPolytope2.from_vertices([(100, 0), (0, 0.01), (0, -0.01)])
    with pytest.raises(FitRejected) as err:
        fit_to_k(needle, T, (0, 1, 2), (Face.edge(2), Face.edge(1), Face.edge(0)))
    assert err.value.reason == "infeasible"
    t_faces = (Face.edge(1), Face.edge(2), Face.edge(0))
    q = fit_to_k(needle, T, (0, 1, 2), t_faces)
    for r in range(3):
        assert face_distance(needle, Face.edge(r), q[r]) < 1e-9
        dq, n = q[(r + 1) % 3] - q[r], T.normals[t_faces[r].index]
        assert abs(dq[0] * n[1] - dq[1] * n[0]) < 1e-9 and dq @ n > 0


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


def test_same_faces_same_length(rng):
    """The two ends of the q-side family (min and max sum(t)) have the same
    length, so the centre that fit_to_k keeps is not a choice.  An end may
    put two q on one vertex of K, so the length is summed directly."""
    instances = [(equilateral_triangle(), regular_ngon(n)) for n in range(3, 25)]
    instances += [(load(name).K, load(name).T) for name in fixture_names()]
    instances += [random_instance(rng, int(rng.integers(3, 7)),
                                  int(rng.integers(3, 7))) for _ in range(40)]
    families = 0
    for K, T in instances:
        for triple in map(tuple, spanning_triples(K).tolist()):
            try:
                ib = find_inbody(build_gamma(K.normals[list(triple)]).vertices, T)
                t_faces = ib.t_faces[1:] + ib.t_faces[:1]
                low, high = fit_family(K, T, triple, t_faces)
            except (NoInbody, FitRejected):
                continue
            length = [support_many(T, np.roll(q, -1, axis=0) - q).sum()
                      for q in (low, high)]
            assert abs(length[0] - length[1]) < 1e-9
            families += np.abs(low - high).max() > 1e-6
    assert families >= 10


def test_fit_numerical_failure_is_a_reject(monkeypatch):
    def fail(rows, objective, upper):
        raise NumericalFailure("solution violates a constraint")
    K = equilateral_triangle()
    T = regular_ngon(32)
    triple = (0, 1, 2)
    ib = find_inbody(build_gamma(K.normals[list(triple)]).vertices, T)
    t_faces = ib.t_faces[1:] + ib.t_faces[:1]
    assert solve_facet_triple(K, T, triple)
    monkeypatch.setattr(bounce3, "_solve_rows", fail)
    with pytest.raises(FitRejected) as err:
        fit_to_k(K, T, triple, t_faces)
    assert err.value.reason == "numerical"
    assert solve_facet_triple(K, T, triple) == []


def test_returned_pairs_certified(rng):
    for _ in range(5):
        K, T = random_instance(rng, int(rng.integers(3, 7)),
                               int(rng.integers(3, 7)))
        for pair in search_three_bounce(K, T):
            assert pair.q.m == 3
            assert certify(K, T, pair).certified


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


def _sampled_fan_pairs(K, T, triple, samples=8):
    """The q-side solved by sampling, kept as a reference for the exact LP:
    a fan of `samples` unit normals across each vertex contact cone (both
    extreme rays included), one triangle xi per combination with edges along
    the chosen normals, and a 3x3 solve for the scale mu > 0 and shift that
    put the vertices of mu * xi + e on the facets of K."""
    try:
        inbody = find_inbody(build_gamma(K.normals[list(triple)]).vertices, T)
    except (NotSpanning, NoInbody):
        return []
    fans = []
    for f in inbody.t_faces:
        cone = normal_cone(T, f)
        a0, width = cone.angles()
        angs = a0 + width * np.linspace(0.0, 1.0, samples)
        fans.append([cone.generators[0]] if cone.is_ray else
                    [np.array([math.cos(a), math.sin(a)]) for a in angs])
    p = np.roll(inbody.vertices, -1, axis=0)
    t_faces = inbody.t_faces[1:] + inbody.t_faces[:1]
    k_faces = tuple(Face.edge(i) for i in triple)
    normals, offsets = K.normals[list(triple)], K.offsets[list(triple)]
    out = []
    for n1, n2, n3 in itertools.product(*fans):
        # xi_{i+1} - xi_i = beta_{i+1} n_{i+1} with beta_1 = 1, xi_1 = 0
        A = np.column_stack([n2, n3])
        if abs(np.linalg.det(A)) <= EPS_GEO:
            continue
        b2, b3 = np.linalg.solve(A, -n1)
        if b2 <= EPS_GEO or b3 <= EPS_GEO:
            continue
        xi = np.array([np.zeros(2), b2 * n2, b2 * n2 + b3 * n3])
        M = np.column_stack([(normals * xi).sum(axis=1), normals])
        if abs(np.linalg.det(M)) <= 1e-12:
            continue
        mu, e1, e2 = np.linalg.solve(M, offsets)
        if mu <= EPS_GEO:
            continue
        q = mu * xi + np.array([e1, e2])
        on_facets = True
        for r, fi in enumerate(triple):
            a, b = K.facet_segment(fi)
            t = float((q[r] - a) @ (b - a)) / float((b - a) @ (b - a))
            on_facets &= -1e-9 <= t <= 1 + 1e-9
        if on_facets:
            pair = certified_pair(K, T, make_pair(K, T, q, p, k_faces, t_faces))
            if pair is not None:
                out.append(pair)
    return out


def test_exact_fit_matches_sampled_fan(rng):
    """Wherever the sampled fan certifies a pair, the exact q-side LP finds
    one of the same length, and both give the same 3-bounce minimum."""
    instances = [(load(name).K, load(name).T) for name in fixture_names()]
    instances += [random_instance(rng, int(rng.integers(3, 8)),
                                  int(rng.integers(3, 8))) for _ in range(200)]
    fan_triples = 0
    for K, T in instances:
        ref_min = exact_min = math.inf
        for triple in map(tuple, spanning_triples(K).tolist()):
            ref = _sampled_fan_pairs(K, T, triple)
            exact = solve_facet_triple(K, T, triple)
            for pair in ref:
                assert exact
                assert exact[0].length == pytest.approx(pair.length, rel=1e-12)
            fan_triples += bool(ref)
            ref_min = min([ref_min] + [pair.length for pair in ref])
            exact_min = min([exact_min] + [pair.length for pair in exact])
        assert exact_min == pytest.approx(ref_min, rel=1e-12) or (
            exact_min == ref_min == math.inf)
    assert fan_triples >= 100
