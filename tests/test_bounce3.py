import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from minkbill import bounce2, bounce3, lp as lpmod
from minkbill.bounce2 import SearchStats, _chord_reach
from minkbill.bounce3 import (facet_triples, find_inbody, fit_to_k, gamma_triangles,
                              search_three_bounce, solve_facet_triple,
                              spanning_triples)
from minkbill.fixtures import (equilateral_triangle, fixture_names, load,
                               regular_ngon)
from minkbill.geom import (EPS_ANG, EPS_GEO, ConvexPolytope2, Face, GeometryError,
                           InvalidPolytope, angles, cross2, face_array, face_distances,
                           face_cones, face_tuples, find_face, find_faces, largest_gap,
                           normal_cone, positively_spans, rotation, support_many)
from minkbill.lp import solve
from minkbill.pairs import Pairs, dedupe, make_pair, sort_pairs
from minkbill.randgen import random_instance, random_polytope
from minkbill.verify import certify

import corpus
from conftest import polytopes
from references import (Affine, assert_same_pairs, assert_same_search, certified_pair,
                        face_key, product_chord_reach, reference_cone_rows, reference_dedupe,
                        reference_find_faces, rows_reach, sorted_pairs, spy)


class NotSpanning(GeometryError):
    pass


class NoFit(Exception):
    """A reference fit of one triple found no q, for the reason given."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def build_gamma(normals):
    """Reference for spanning_triples and gamma_triangles, one triple at a
    time: the vertices of the triangle with gamma_{i+1} - gamma_i =
    alpha_i n_i, all alpha_i < 0, normalized by alpha_1 = -1 and
    gamma_1 = 0; NotSpanning where there is none."""
    n1, n2, n3 = (np.asarray(v, float) for v in normals)
    if not positively_spans([n1, n2, n3]):
        raise NotSpanning("facet normals do not positively span the plane")
    # alpha_2 n2 + alpha_3 n3 = n1 (closing the triangle with alpha_1 = -1)
    A = np.column_stack([n2, n3])
    if abs(float(np.linalg.det(A))) <= EPS_GEO:
        raise NotSpanning("two of the normals are parallel")
    a2, a3 = np.linalg.solve(A, n1)
    if a2 >= -EPS_GEO or a3 >= -EPS_GEO:
        raise NotSpanning("no negatively oriented closing coefficients")
    g1 = np.zeros(2)
    g2 = g1 - n1           # alpha_1 = -1
    g3 = g2 + a2 * n2
    return np.array([g1, g2, g3])


def _survivors(K, T):
    """The spanning triples of K whose inbody placement in T stands, with
    p (B, 3, 2) and the contact face ids of T (B, 3), p_r being the vertex
    fed by facet r + 1: what search_three_bounce fits."""
    triples = spanning_triples(K)
    reason, _, verts, faces = find_inbody(gamma_triangles(K, triples), T)
    ok = reason == ""
    return (triples[ok],) + tuple(np.roll(v[ok], -1, axis=1) for v in (verts, faces))


def _generator_triples(n):
    """facet_triples as a generator, as it was written before the index
    mask: i, then the ordered pairs of larger indices."""
    for i in range(n):
        for j, k in itertools.permutations(range(i + 1, n), 2):
            yield i, j, k


def test_facet_triples_count():
    hexagon = regular_ngon(6)
    triples = list(map(tuple, facet_triples(hexagon).tolist()))
    assert len(triples) == 6 * 5 * 4 // 3
    assert len(set(triples)) == len(triples)
    for i, j, k in triples:
        assert i < j and i < k and j != k  # smallest index first, both orders
    assert triples == list(_generator_triples(6))


def test_triples_from_lo_to_hi_are_those_of_their_first_indices():
    """facet_triples and spanning_triples from lo to below hi are the rows,
    in order, whose first index is in that range."""
    K = random_polytope(np.random.default_rng(3), 9)
    for triples in (facet_triples, spanning_triples):
        every = triples(K)
        for lo, hi in ((0, 9), (0, 1), (2, 5), (7, 9), (4, 4)):
            want = every[(lo <= every[:, 0]) & (every[:, 0] < hi)]
            assert np.array_equal(triples(K, lo, hi), want), (lo, hi)
        assert np.array_equal(triples(K, 3), every[every[:, 0] >= 3])


def test_build_gamma_equilateral():
    tri = equilateral_triangle()
    gamma = gamma_triangles(tri, [(0, 1, 2)])[0]
    edges = np.roll(gamma, -1, axis=0) - gamma
    alphas = np.einsum("ij,ij->i", edges, tri.normals)  # unit normals
    assert np.allclose(alphas, -1.0)
    for i in range(3):
        assert np.allclose(edges[i], alphas[i] * tri.normals[i])
    assert np.allclose(edges.sum(axis=0), 0.0, atol=1e-12)


def test_build_gamma_rejects_nonspanning():
    with pytest.raises(NotSpanning):
        build_gamma([(1, 0), (0, 1), (1, 1)])


def test_find_inbody_triangle_in_ngon():
    gamma = build_gamma(equilateral_triangle().normals)
    [reason], [x], [verts], _ = find_inbody(gamma[None], regular_ngon(64))
    assert reason == ""
    assert x[0] > 0
    # all contact points on the boundary
    for v in verts:
        s = regular_ngon(64).normals @ v - regular_ngon(64).offsets
        assert abs(s.max()) < 1e-7


def test_inbody_rejection_reasons():
    fx = load("exampleA")
    for triple, reason in (((0, 1, 2), "HalfspaceViolation"),
                           ((0, 2, 1), "NotOnBoundary")):
        gamma = build_gamma(fx.K.normals[list(triple)])
        [got], *_ = find_inbody(gamma[None], fx.T)
        assert got == reason


def test_fit_rejects_off_facet():
    # with the facet normals of a triangle T taken in one order, the only
    # triangle with edges along them and vertices on the lines of a
    # needle-thin K puts its vertices outside the facets of K; in the other
    # order it fits
    T = regular_ngon(3)
    needle = ConvexPolytope2.from_vertices([(100, 0), (0, 0.01), (0, -0.01)])
    _, [reason] = fit_to_k(needle, T, [(0, 1, 2)],
                           face_array(T, [(Face.edge(2), Face.edge(1), Face.edge(0))]))
    assert reason == "infeasible"
    t_faces = (Face.edge(1), Face.edge(2), Face.edge(0))
    [q], [reason] = fit_to_k(needle, T, [(0, 1, 2)], face_array(T, [t_faces]))
    assert reason == ""
    for r in range(3):
        assert face_distances(needle, needle.n + r, q[r]) < 1e-9
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
    for v in best.q:
        assert min(np.hypot(*(mid - v).T)) < 0.05
    # Euclidean perimeter of the midpoint triangle is 3 * sqrt(3)/2 * side
    assert best.length == pytest.approx(1.5 * math.sqrt(3), abs=0.01)


def test_example_a_triple_empty():
    fx = load("exampleA")
    assert len(search_three_bounce(fx.K, fx.T)) == 0


def _lp_fit_stack(K, T, triples, faces):
    """fit_to_k as it was before the direct solve: every member's fit is
    the 15-row LP pair, minimizing and maximizing sum(t) in one solve_dual3
    stack.  Returns the two ends (B, 3, 2) each and the reject reasons."""
    triples = np.asarray(triples, int).reshape(-1, 3)
    B = len(triples)
    q = [bounce2._point(K, K.n + triples[:, r], r, 3) for r in range(3)]
    rows, bounds, eq = bounce2._cycle_rows(q, [face_cones(T, faces[:, r]) for r in range(3)])
    coef, bound, ray = rows[:, ::2], bounds[:, ::2], eq[:, ::2]
    eye = np.broadcast_to(np.eye(3), (B, 3, 3))
    A = np.concatenate([rows, np.where(ray[..., None], -coef, 0.0), -eye, eye], 1)
    b = np.concatenate([bounds, np.where(ray, -bound, 0.0), np.zeros((B, 3)), np.ones((B, 3))], 1)
    status, x = lpmod.solve_dual3(
        np.repeat([-1.0, 1.0], 3 * B).reshape(2 * B, 3), np.concatenate([A, A]),
        np.concatenate([b, b]), np.repeat([[9, 10, 11], [12, 13, 14]], B, 0))
    status = status.reshape(2, B)
    reason = np.where(status[0] == "optimal", status[1], status[0])
    # each q_r at both ends, by the matrix product of the map's coefficients
    x = x.reshape(2, B, 3, 1)
    low, high = np.stack([e[:, 0] + np.matmul(e[:, 1:].swapaxes(1, 2), x)[..., 0] for e in q], 2)
    return low, high, np.where(reason == "optimal", "", reason).astype(object)


def test_same_faces_same_length(rng):
    """The two ends of the q-side family (min and max sum(t)) have the same
    length, so the centre that the LP path keeps is not a choice, and the
    search's q has that length too where it is direct (three edge
    contacts).  An end may put two q on one vertex of K, so the length is
    summed directly."""
    instances = [(equilateral_triangle(), regular_ngon(n)) for n in range(3, 25)]
    instances += [(load(name).K, load(name).T) for name in fixture_names()]
    instances += [random_instance(rng, int(rng.integers(3, 7)),
                                  int(rng.integers(3, 7))) for _ in range(40)]
    families = 0
    for K, T in instances:
        triples, _, faces = _survivors(K, T)
        low, high, reason = _lp_fit_stack(K, T, triples, faces)
        fit, fit_reason = fit_to_k(K, T, triples, faces)
        assert fit_reason.tolist() == reason.tolist()
        ok, edges = reason == "", (faces >= T.n).all(1)
        for lo, hi, q, edge in zip(low[ok], high[ok], fit[ok], edges[ok]):
            length = [support_many(T, np.roll(v, -1, axis=0) - v).sum()
                      for v in (lo, hi, q)]
            assert abs(length[0] - length[1]) < 1e-9
            assert abs(length[2] - length[0]) < 1e-9 or not edge
            families += np.abs(lo - hi).max() > 1e-6
    assert families >= 10


def test_fit_numerical_failure_is_a_reject(monkeypatch):
    """A fit whose LP runs out of steps rejects its triple only, with the
    reason "numerical".  Every fit of this instance has three edge contacts
    and is direct, so no budget changes it; with every system taken as
    singular, all of them go to the LP, and under a budget of 4 steps some
    fits of one stack fail, and the others keep their reasons and q bit for
    bit.  A stack of one (fit_to_k, solve_facet_triple) of a failing triple
    rejects it, and fits it under the full budget."""
    K, T = random_instance(np.random.default_rng(0), 6, 7)
    triples, _, faces = _survivors(K, T)
    direct = fit_to_k(K, T, triples, faces)
    steps = lpmod._DUAL_STEPS
    monkeypatch.setattr(lpmod, "_DUAL_STEPS", 4)
    q, reason = fit_to_k(K, T, triples, faces)
    assert (faces >= T.n).all() and (direct[1] == "").sum() >= 2
    assert reason.tolist() == direct[1].tolist() and q.tobytes() == direct[0].tobytes()

    monkeypatch.setattr(bounce3, "_SINGULAR", np.inf)
    monkeypatch.setattr(lpmod, "_DUAL_STEPS", steps)
    clean = fit_to_k(K, T, triples, faces)
    assert clean[1].tolist() == direct[1].tolist()
    monkeypatch.setattr(lpmod, "_DUAL_STEPS", 4)
    q, reason = fit_to_k(K, T, triples, faces)
    failed = reason == "numerical"
    assert 0 < failed.sum() < len(reason)
    for k in np.flatnonzero(~failed):
        assert reason[k] == clean[1][k]
        assert q[k].tobytes() == clean[0][k].tobytes()

    # a triple that fits under the full budget, and not under this one
    k = np.flatnonzero(failed & (clean[1] == ""))[0]
    triple = tuple(triples[k].tolist())
    [placed], _, _, ids = find_inbody(gamma_triangles(K, [triple]), T)
    assert placed == "" and np.array_equal(np.roll(ids, -1, 1), faces[k:k + 1])
    assert fit_to_k(K, T, [triple], faces[k:k + 1])[1].tolist() == ["numerical"]
    assert len(solve_facet_triple(K, T, triple)) == 0
    monkeypatch.setattr(lpmod, "_DUAL_STEPS", steps)
    [q], [reason] = fit_to_k(K, T, [triple], faces[k:k + 1])
    assert reason == "" and q.tobytes() == clean[0][k].tobytes()
    assert solve_facet_triple(K, T, triple)


def test_returned_pairs_certified(rng):
    for _ in range(5):
        K, T = random_instance(rng, int(rng.integers(3, 7)),
                               int(rng.integers(3, 7)))
        for pair in search_three_bounce(K, T):
            assert len(pair.q) == 3
            assert certify(K, T, pair).certified


def _inbody_per_vertex(tri, T):
    """Outcome of the inbody LP written with one row per facet of T and
    vertex of the triangle (3 |V(T)| rows), followed by the contact tests of
    find_inbody: (reason or "ok", lambda, contact faces)."""
    A = np.array([[a @ t, a[0], a[1]] for a in T.normals for t in tri])
    status, x = solve(np.array([1.0, 0.0, 0.0]), A, np.repeat(T.offsets, 3),
                      lower=np.array([0.0, -np.inf, -np.inf]))
    reason, lam, _, faces = _placement(tri, T, status, x)
    return reason, lam, faces


def test_inbody_one_row_per_facet_matches_per_vertex_rows(rng):
    """150 triangles in stacks of 1 to 5 per random T; about 30 % of the T
    are moved off the origin, so that the inbody LPs run phase 1."""
    outcomes = []
    while len(outcomes) < 150:
        T = random_polytope(rng, int(rng.integers(3, 16)))
        if rng.random() < 0.3:
            T = T.translate(rng.uniform(-4.0, 4.0, size=2))
        tris = []
        for _ in range(int(rng.integers(1, 6))):
            if rng.random() < 0.5:
                tris.append(rng.normal(size=(3, 2)))
            else:
                K = random_polytope(rng, int(rng.integers(3, 10)))
                triples = spanning_triples(K)
                tris.append(build_gamma(
                    K.normals[triples[rng.integers(len(triples))]]))
        got, x, _, ids = find_inbody(np.array(tris), T)
        for tri, r, scale, t_faces in zip(tris, got, x[:, 0], face_tuples(T, ids)):
            reason, lam, faces = _inbody_per_vertex(tri, T)
            if r:
                assert r == reason
            else:
                assert reason == "ok"
                assert scale == pytest.approx(lam, rel=1e-12)
                assert t_faces == faces
            outcomes.append(reason)
    assert outcomes.count("ok") >= 10 and outcomes.count("NotOnBoundary") >= 10


def _placement(tri, T, status, x):
    """The contact tests of find_inbody for one triangle, written per vertex,
    after its inbody LP ended with status and x: find_face per vertex and
    positively_spans of the contact normal cones.  Returns (reason or "ok",
    lambda, vertices, contact faces)."""
    if status != "optimal" or float(x[0]) <= EPS_GEO:
        return ("numerical" if status == "numerical" else "DegenerateLp",
                None, None, None)
    lam = float(x[0])
    verts = lam * tri + x[1:]
    try:
        faces = tuple(find_face(T, v, tol=1e-7) for v in verts)
    except GeometryError:
        return "NotOnBoundary", lam, verts, None
    gens = [g for f in faces for g in normal_cone(T, f).generators]
    if not positively_spans(gens):
        return "HalfspaceViolation", lam, verts, faces
    return "ok", lam, verts, faces


def _inbody_alone(tri, T):
    """find_inbody for one triangle: the rows of the support column
    (T.normals @ tri.T).max(axis=1) with the normals, and lambda >= 0 last,
    solved as a solve_dual3 stack of one from facets 0, k - 1 and k of T, k
    the first normal at or past the antipode of facet 0; then _placement."""
    rows = np.zeros((T.n + 1, 3))
    rows[:-1, 0] = (T.normals @ tri.T).max(axis=1)
    rows[:-1, 1:] = T.normals
    rows[-1, 0] = -1.0
    k = next(k for k in range(1, T.n) if cross2(T.normals[0], T.normals[k]) <= 0)
    [status], [x] = lpmod.solve_dual3(np.array([1.0, 0.0, 0.0]), rows[None],
                                      np.append(T.offsets, 0.0)[None],
                                      [[0, k - 1, k]])
    return _placement(tri, T, status, x)


def _simplex_inbody_alone(tri, T):
    """find_inbody for one triangle as it was before the dual simplex: one
    lp.solve of the tableau simplex, lambda >= 0 a bound; then _placement."""
    status, x = solve(np.array([1.0, 0.0, 0.0]),
                      np.column_stack([(T.normals @ tri.T).max(axis=1), T.normals]),
                      T.offsets, lower=np.array([0.0, -np.inf, -np.inf]))
    return _placement(tri, T, status, x)


def test_stacked_inbody_matches_one_triangle_at_a_time(rng):
    """find_inbody on a stack gives, bit for bit, what the per-triangle
    pipeline gives each member: random triangles, dual triangles, and
    triangles on three vertices of T (contacts at vertices of T), with some
    T moved off the origin."""
    outcomes = []
    at_vertex = 0
    for _ in range(60):
        T = random_polytope(rng, int(rng.integers(3, 16)))
        if rng.random() < 0.3:
            T = T.translate(rng.uniform(-4.0, 4.0, size=2))
        K = random_polytope(rng, int(rng.integers(3, 10)))
        tris = list(rng.normal(size=(3, 3, 2)))
        tris += list(gamma_triangles(K, spanning_triples(K))[:4])
        for _ in range(3):
            tris.append(T.vertices[np.sort(rng.choice(T.n, 3, replace=False))])
        got, x, placements, ids = find_inbody(np.array(tris), T)
        for k, t_faces in enumerate(face_tuples(T, ids)):
            reason, lam, verts, faces = _inbody_alone(tris[k], T)
            outcomes.append(reason)
            if got[k]:
                assert got[k] == reason
                continue
            assert reason == "ok"
            assert x[k, 0] == lam
            assert placements[k].tobytes() == verts.tobytes()
            assert t_faces == faces
            at_vertex += any(not f.is_edge for f in faces)
    assert outcomes.count("ok") >= 20 and at_vertex >= 20


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
        expected = [t for t in _generator_triples(K.n)
                    if _build_gamma_accepts(K, t)]
        triples = spanning_triples(K)
        assert [tuple(t) for t in triples.tolist()] == expected
        want = [build_gamma(K.normals[list(t)]) for t in expected]
        assert np.array_equal(gamma_triangles(K, triples),
                              np.reshape(want, (-1, 3, 2)))


def _two_term_spanning_triples(K):
    """spanning_triples as it was written with an angular-gap term next to
    Cramer's signs: the facet triples whose normals leave no gap of pi or
    more, whose n2 and n3 are not parallel, and whose closing coefficients
    are negative."""
    tri = facet_triples(K)
    n1, n2, n3 = (K.normals[tri[:, c]] for c in range(3))
    det = cross2(n2, n3)
    solvable = np.abs(det) > EPS_GEO
    det = np.where(solvable, det, 1.0)
    ok = (solvable & (largest_gap(K.face_table.angles[0, tri]) < math.pi - EPS_ANG)
          & (cross2(n1, n3) / det < -EPS_GEO) & (cross2(n2, n1) / det < -EPS_GEO))
    return tri[ok]


def _cramer_spanning_triples(K):
    """spanning_triples as it was written with Cramer's signs alone: the
    facet triples whose n2 and n3 are not parallel and whose closing
    coefficients are negative."""
    tri = facet_triples(K)
    n1, n2, n3 = (K.normals[tri[:, c]] for c in range(3))
    det = cross2(n2, n3)
    solvable = np.abs(det) > EPS_GEO
    det = np.where(solvable, det, 1.0)
    ok = solvable & (cross2(n1, n3) / det < -EPS_GEO) & (cross2(n2, n1) / det < -EPS_GEO)
    return tri[ok]


def test_angular_gap_alone_decides_spanning():
    """The angular gap alone, Cramer's signs alone and both together keep
    the same triples: the three forms give equal triple arrays on every
    body of the corpus with at most 64 facets, on regular 3- to 64-gons and
    on 300 random bodies."""
    rng = np.random.default_rng(5)
    bodies = {id(P): P for name in corpus.BUILDERS for _, K, T in corpus.cases(name)
              for P in (K, T) if P.n <= 64}
    triples = 0
    for P in [*bodies.values(), *map(regular_ngon, range(3, 65)),
              *(random_polytope(rng, int(rng.integers(3, 26))) for _ in range(300))]:
        want = _two_term_spanning_triples(P)
        assert np.array_equal(spanning_triples(P), want)
        assert np.array_equal(_cramer_spanning_triples(P), want)
        triples += len(want)
    assert triples >= 1_000_000  # 1,024,858


def _sampled_fan_pairs(K, T, triple, samples=8):
    """The q-side solved by sampling, kept as a reference for the exact LP:
    a fan of `samples` unit normals across each vertex contact cone (both
    extreme rays included), one triangle xi per combination with edges along
    the chosen normals, and a 3x3 solve for the scale mu > 0 and shift that
    put the vertices of mu * xi + e on the facets of K."""
    try:
        gamma = build_gamma(K.normals[list(triple)])
    except NotSpanning:
        return []
    [reason], _, [verts], faces = find_inbody(gamma[None], T)
    if reason:
        return []
    [inbody_faces] = face_tuples(T, faces)
    fans = []
    for f in inbody_faces:
        cone = normal_cone(T, f)
        a0, width = cone.angles()
        angs = a0 + width * np.linspace(0.0, 1.0, samples)
        fans.append([cone.generators[0]] if cone.is_ray else
                    [np.array([math.cos(a), math.sin(a)]) for a in angs])
    p = np.roll(verts, -1, axis=0)
    t_faces = inbody_faces[1:] + inbody_faces[:1]
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
            a, b = K.face_table.ends[K.n + fi]
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


def _fit_rows(K, T, triple, t_faces):
    """The q-side fit of one triple, written per triple: the points q_r on
    facet triple[r] (as Affine in t) and the rows of the 2-bounce
    reference, (coefficients, bound, is_equality), two per contact."""
    q = []
    for r, fi in enumerate(triple):
        a, b = K.face_table.ends[K.n + fi]
        M = np.zeros((2, 3))
        M[:, r] = b - a
        q.append(Affine(a, M))
    rows = []
    for r in range(3):
        reference_cone_rows(rows, q[(r + 1) % 3] - q[r],
                             normal_cone(T, t_faces[r]))
    return q, rows


def _fit_lp(K, T, triple, t_faces):
    """The points q_r and the rows of _fit_rows, with the 15 rows (A, b) of
    one triple's fit: those rows, an equality again as an inequality of the
    opposite sense (a zero row for a wedge), then -t <= 0 and t <= 1."""
    q, rows = _fit_rows(K, T, triple, t_faces)
    A = np.array([r for r, _, _ in rows]
                 + [-r if e else np.zeros(3) for r, _, e in rows[::2]]
                 + list(-np.eye(3)) + list(np.eye(3)))
    b = np.array([b for _, b, _ in rows]
                 + [-b if e else 0.0 for _, b, e in rows[::2]] + [0.0] * 3 + [1.0] * 3)
    return q, rows, A, b


def _reference_fit_family(K, T, triple, t_faces):
    """The ends of one triple's q-side family by the dual simplex, one
    triple at a time: the rows of _fit_lp and a solve_dual3 stack of one
    per objective, started from the bounds it pushes against."""
    q, _, A, b = _fit_lp(K, T, triple, t_faces)
    ends = []
    for sign, start in ((-1.0, [9, 10, 11]), (1.0, [12, 13, 14])):
        [status], [x] = lpmod.solve_dual3(sign * np.ones(3), A[None], b[None],
                                          [start])
        if status != "optimal":
            raise NoFit(status)
        ends.append(np.array([e.at(x) for e in q]))
    return tuple(ends)


def _reference_fit(K, T, triple, t_faces):
    """The q that the search keeps for one triple: with three edge contacts
    and a regular system, the equalities of _fit_rows solved by
    lp._cofactors3 on a stack of one, NoFit("infeasible") unless the
    rows of _fit_lp pass lp._violations; otherwise the centre of
    _reference_fit_family."""
    q, rows, A, b = _fit_lp(K, T, triple, t_faces)
    M = np.array([r for r, _, _ in rows[::2]])
    [cof], [det] = lpmod._cofactors3(M[None])
    if (all(f.is_edge for f in t_faces)
            and abs(det) > bounce3._SINGULAR * np.prod(np.linalg.norm(M, axis=1))):
        x = (cof / det * np.array([b for _, b, _ in rows[::2]])[:, None]).sum(0)
        viol, tol = lpmod._violations(A[None], b[None], False, x[None])
        if (viol > tol).any():
            raise NoFit("infeasible")
        return np.array([e.at(x) for e in q])
    low, high = _reference_fit_family(K, T, triple, t_faces)
    return 0.5 * (low + high)


def _simplex_fit_family(K, T, triple, t_faces):
    """_reference_fit_family as it was before the dual simplex: the rows of
    _fit_rows with their equalities, t in [0, 1] as bounds, and two lp.solve
    calls of the tableau simplex."""
    q, rows = _fit_rows(K, T, triple, t_faces)
    ones = np.ones(3)
    ends = []
    for sign in (-1.0, 1.0):
        status, x = solve(sign * ones, np.array([row for row, _, _ in rows]),
                          np.array([b for _, b, _ in rows]),
                          np.array([e for _, _, e in rows]), np.zeros(3), ones)
        if status != "optimal":
            raise NoFit(status)
        ends.append(np.array([e.at(x) for e in q]))
    return tuple(ends)


def _triple_outcomes(K, T, simplex=False):
    """search_three_bounce one facet triple at a time: build_gamma, the
    inbody LP of that triangle alone, the per-triple fit and certified_pair;
    with simplex, both LPs by the tableau simplex as before the dual
    simplex, and q the centre of the fit's two ends.  Per spanning triple:
    (inbody reason, contact faces, fit reason or None, certified pair or
    None)."""
    inbody = _simplex_inbody_alone if simplex else _inbody_alone
    fit = (lambda *args: 0.5 * np.add(*_simplex_fit_family(*args))) if simplex else _reference_fit
    out = []
    for triple in map(tuple, spanning_triples(K).tolist()):
        reason, _, verts, faces = inbody(build_gamma(K.normals[list(triple)]), T)
        if reason != "ok":
            out.append((reason, faces, None, None))
            continue
        t_faces = faces[1:] + faces[:1]
        try:
            q = fit(K, T, triple, t_faces)
        except NoFit as err:
            out.append((reason, faces, err.reason, None))
            continue
        out.append((reason, faces, "", certified_pair(K, T, make_pair(
            K, T, q, np.roll(verts, -1, axis=0),
            tuple(Face.edge(i) for i in triple), t_faces))))
    return out


def _per_triple_search(K, T, simplex=False):
    """The pairs of _triple_outcomes, deduplicated and sorted as the search
    returns them."""
    return sorted_pairs(reference_dedupe([pair for *_, pair in _triple_outcomes(K, T, simplex)
                                          if pair is not None]))


def test_search_matches_per_triple_reference():
    """The stacked search_three_bounce (one solve_dual3 stack per (K, T) for
    the inbody LPs and one for the fits) finds exactly the pairs of the
    per-triple pipeline, whose LPs are stacks of one, bit for bit."""
    pairs = 0
    for (_, K, T), got in zip(corpus.cases("search"), corpus.three_bounce("search")):
        assert_same_pairs(got, _per_triple_search(K, T))
        pairs += len(got)
    assert pairs >= 50


@pytest.mark.parametrize("name", ["search", "oracle", "ngon"])
def test_facet_triple_is_the_search_on_one_triple(name):
    """solve_facet_triple is the search's pipeline on a batch of one: the
    pairs of all spanning triples of an instance, one triple at a time,
    deduplicated and sorted, are search_three_bounce's, bit for bit."""
    pairs = 0
    for (_, K, T), want in zip(corpus.cases(name), corpus.three_bounce(name)):
        got = Pairs.empty(K, T, 3).join([solve_facet_triple(K, T, triple) for triple in
                                         map(tuple, spanning_triples(K).tolist())])
        assert_same_pairs(sort_pairs(dedupe(got)), want)
        pairs += len(want)
    assert pairs >= {"search": 100, "oracle": 40, "ngon": 2}[name]


def _no_prefilter(K, T):
    """_contact_tables for a search with no prefilter: every face reaches
    every chord, and no side needs any slack."""
    return np.ones((2 * T.n, K.n, K.n), bool), np.full((K.n, K.n), -np.inf)


def test_chord_prefilter_changes_no_pair(monkeypatch):
    """The contact screen before the inbody LPs and the gather of its reach
    table before the fits leave search_three_bounce's candidates unchanged,
    bit for bit, against a search with neither, on the fixtures and 120
    random instances, while most of the inbody LPs and fits are saved."""
    instances = [(K, T) for _, K, T in corpus.cases("search")]
    fits, runs = spy(monkeypatch, bounce3, "fit_to_k", lambda K, T, tr, *_: len(tr)), []
    for tables in (bounce3._contact_tables, _no_prefilter):
        monkeypatch.setattr(bounce3, "_contact_tables", tables)
        stats, start = SearchStats(), len(fits)
        runs.append(([search_three_bounce(K, T, stats) for K, T in instances],
                     stats.inbody_triples, sum(fits[start:])))
    (got, inbody, fitted), (want, members, unscreened) = runs
    assert members == sum(len(spanning_triples(K)) for K, _ in instances)
    assert inbody < members // 2 and fitted < unscreened // 2
    assert sum(map(len, got)) >= 50
    for a, b in zip(got, want):
        assert [(p.k_faces, p.t_faces, p.length, p.q.tobytes(),
                 p.p.tobytes(), p.certificate) for p in a] == \
               [(p.k_faces, p.t_faces, p.length, p.q.tobytes(),
                 p.p.tobytes(), p.certificate) for p in b]


def test_no_fit_stage_and_no_step_on_an_empty_stack(monkeypatch):
    """solve_dual3 takes no step (no lp._violations call) on an empty
    stack, and _solve_triples runs no fit_to_k when the gather of the reach
    table keeps no placed triple, as it does on some of the fixtures and
    random instances.  The placed triples that the gather keeps are counted
    on _survivors: the contact screen keeps each of them (see
    _contact_tables)."""
    kept = []
    for _, K, T in corpus.cases("search"):
        triples, _, faces = _survivors(K, T)
        reach, _ = bounce3._contact_tables(K, T)
        kept.append(int(reach[faces, triples, np.roll(triples, -1, 1)].all(1).sum()))
    fits = spy(monkeypatch, bounce3, "fit_to_k", lambda K, T, triples, *faces: len(triples))
    steps = spy(monkeypatch, lpmod, "_violations", lambda A, *rest: len(A))
    status, x = lpmod.solve_dual3(np.zeros((0, 3)), np.zeros((0, 4, 3)),
                                  np.zeros((0, 4)), np.zeros((0, 3), int))
    assert status.shape == (0,) and x.shape == (0, 3) and steps == []
    for _, K, T in corpus.cases("search"):
        search_three_bounce(K, T)
    assert kept.count(0) >= 10
    assert len(fits) == len(kept) - kept.count(0)
    assert min(fits) > 0 and min(steps) > 0


def test_empty_contact_screen_skips_the_inbody_stage(monkeypatch):
    """When the contact screen keeps no triple, _solve_triples returns
    before find_inbody, so no inbody stack is empty, and the pairs are, bit
    for bit, those of the search with no prefilter."""
    instances = [(K, T) for _, K, T in corpus.cases("search")]
    members = spy(monkeypatch, bounce3, "find_inbody", lambda triangles, T: len(triangles))
    got, screened = [], []
    for K, T in instances:
        stats = SearchStats()
        got.append(search_three_bounce(K, T, stats))
        screened.append(stats.inbody_triples)
    assert 0 not in members and screened.count(0) >= 5
    monkeypatch.setattr(bounce3, "_contact_tables", _no_prefilter)
    for (K, T), pairs, kept in zip(instances, got, screened):
        want = search_three_bounce(K, T)
        assert_same_pairs(pairs, want)
        assert kept or not want
    assert sum(map(len, got)) >= 50


def _product_reach(K, T, triples, faces):
    """The row test of step 3 on each side of each triple (B, 3), as one
    (B, 3, 2, 2, 2) product of the cones with the corner chords (as
    _chords_reach was, which took all three sides)."""
    ends = K.face_table.ends[K.n + np.asarray(triples)]
    v = np.roll(ends, -1, 1)[:, :, :, None] - ends[:, :, None]
    return rows_reach(face_cones(T, faces), v)


def _unscreened_three_bounce(K, T):
    """search_three_bounce before the contact screen: the inbody LPs of all
    spanning triples, then the fits of the placed triples that
    _product_reach keeps (as _solve_triples was)."""
    triples, p, faces = _survivors(K, T)
    tried = np.flatnonzero(_product_reach(K, T, triples, faces).all(axis=1))
    if not tried.size:
        return Pairs.empty(K, T, 3)
    q, fit = fit_to_k(K, T, triples[tried], faces[tried])
    fits = tried[fit == ""]
    return sort_pairs(dedupe(bounce3.certified_pairs(K, T, q[fit == ""], p[fits],
                                                     K.n + triples[fits], faces[fits])))


def _joined(calls):
    """The stacks of a search's certified_pairs calls, one list of arrays
    per call, as the one stack of a search in a single block."""
    return [list(map(np.concatenate, zip(*calls)))] if calls else []


def test_contact_screen_drops_only_triples_the_fits_reject(monkeypatch):
    """The contact screen of search_three_bounce drops only facet triples
    that the unscreened search would not pass to certification: the stacks
    handed to certified_pairs, joined in block order, are byte-identical to
    the unscreened search's one stack, and so are the returned pairs,
    certificates included.  The reach table
    keeps every (face of T, facet, facet) that the product form of the row
    test keeps, and its gather keeps exactly the placed triples that the
    product keeps.  The screen screens: at most 2,800 of the grid pool's
    5,484 spanning triples, and 6,000 of the 96-gon's 72,656, reach the
    inbody LP."""
    calls = spy(monkeypatch, bounce3, "certified_pairs",
                lambda K, T, *rows: list(map(np.asarray, rows)))
    counts, total = {}, 0
    for label, K, T in corpus.cases("contact"):
        calls.clear()
        stats = SearchStats()
        got = search_three_bounce(K, T, stats)
        screened = _joined(calls)
        calls.clear()
        want = _unscreened_three_bounce(K, T)
        assert_same_search(screened, calls, got, want)
        reach, _ = bounce3._contact_tables(K, T)
        F, f, g = np.indices(reach.shape).reshape(3, -1)
        product = _product_reach(K, T, np.stack([f, g, f], 1), np.stack([F, F, F], 1))
        assert (reach.ravel() | ~product[:, 0]).all()
        triples, _, faces = _survivors(K, T)
        assert np.array_equal(reach[faces, triples, np.roll(triples, -1, 1)].all(1),
                              _product_reach(K, T, triples, faces).all(axis=1))
        c = counts.setdefault(label.split("/")[0], [0, 0])
        c[0] += len(spanning_triples(K))
        c[1] += stats.inbody_triples
        total += len(got)
    assert counts["grid"][0] == 5484 and counts["grid"][1] <= 2800
    assert counts["96-gon"][0] == 72656 and counts["96-gon"][1] <= 6000
    assert total >= 150


def test_chord_reach_covers_the_product_form_on_every_face_pair():
    """The one table of both screens, _chord_reach, keeps every
    (F, a, b) that the product form on the moved corner chords keeps, over
    all face ids a, b of P (vertices and facets) and every face F of Q, for
    (P, Q) = (K, T) and (T, K) of every instance of either screen's tests:
    the scaled and the 2^31-translated bodies included, where the rows
    round differently in the two forms, and the slack house, whose sides
    pass only past a facet start."""
    covered = 0
    for _, K, T in corpus.cases("contact"):
        for P, Q in ((K, T), (T, K)):
            faces = np.arange(2 * P.n)
            block = max(1, 2 ** 21 // (24 * len(faces) * 2 * Q.n))
            for a in np.split(faces, range(block, len(faces), block)):
                reach = _chord_reach(P, Q, *np.meshgrid(a, faces, indexing="ij"))
                product = product_chord_reach(P, Q, a)
                assert (reach | ~product.transpose(2, 0, 1)).all()
                covered += int(product.sum())
    assert covered >= 3_000_000


def test_stacked_fit_matches_per_triple_fit():
    """The stacked fits give every inbody survivor the q, bit for bit, or
    the reject reason of the per-triple fit."""
    fits = rejects = 0
    for _, K, T in corpus.cases("search"):
        triples, _, faces = _survivors(K, T)
        q, reason = fit_to_k(K, T, triples, faces)
        for r, (triple, t_faces) in enumerate(zip(map(tuple, triples.tolist()),
                                                  face_tuples(T, faces))):
            try:
                want = _reference_fit(K, T, triple, t_faces)
            except NoFit as err:
                assert reason[r] == err.reason
                rejects += 1
                continue
            assert reason[r] == ""
            assert q[r].tobytes() == want.tobytes()
            fits += 1
    assert fits >= 50 and rejects >= 50


@pytest.mark.parametrize("name", ["search", "contact", "inbody", "grid", "oracle", "ngon"])
def test_direct_fits_match_the_lp_pair(name):
    """Every inbody survivor gets the reject reason of the LP pair that fit
    it before the direct solve (_lp_fit_stack).  A fit with three edge
    contacts has a q within 1e-14 of K's size of the pair's centre; one with
    a vertex contact (all on ngon) goes to the LP and keeps the centre bit
    for bit."""
    count = {True: 0, False: 0}
    for _, K, T in corpus.cases(name):
        triples, _, faces = _survivors(K, T)
        q, reason = fit_to_k(K, T, triples, faces)
        low, high, want = _lp_fit_stack(K, T, triples, faces)
        assert reason.tolist() == want.tolist()
        centre, edges = 0.5 * (low + high), (faces >= T.n).all(1)
        for k in np.flatnonzero(reason == ""):
            if edges[k]:
                assert np.abs(q[k] - centre[k]).max() <= 1e-14 * np.abs(K.vertices).max()
            else:
                assert q[k].tobytes() == centre[k].tobytes()
            count[bool(edges[k])] += 1
    least = {"search": (120, 3), "contact": (180, 20), "inbody": (350, 3),
             "grid": (20, 0), "oracle": (40, 0), "ngon": (0, 2)}[name]
    assert count[True] >= least[0] and count[False] >= least[1]


def test_singular_edge_fit_goes_to_the_lp(monkeypatch):
    """A fit with three edge contacts whose system is singular is never
    rejected without the LP.  On the square with q_0, q_1, q_2 on its right,
    top and left facets: with the rays of T's left, left and right edges, q_1
    slides along the top facet (a family, whose centre is kept), and with
    three right edges there is no q.  The LP pair takes both, in one stack
    with two regular direct fits, and gives them its reasons and centres bit
    for bit.  With T turned by 1e-3 the first system is singular up to
    rounding, its determinant 1.5e-19 of Hadamard's bound: the LP fits it,
    where the direct solve, were it taken, would reject it."""
    square = corpus.SQUARE
    triples = np.tile([0, 1, 2], (4, 1))
    faces = square.n + np.array([[2, 2, 0], [0, 0, 0], [1, 2, 0], [2, 1, 0]])
    M = np.array([[r for r, _, _ in _fit_rows(square, square, (0, 1, 2), t_faces)[1][::2]]
                  for t_faces in face_tuples(square, faces)])
    assert lpmod._cofactors3(M)[1].tolist() == [0.0, 0.0, 8.0, -8.0]
    members = spy(monkeypatch, lpmod, "solve_dual3", lambda c, A, b, basis: len(A))
    q, reason = fit_to_k(square, square, triples, faces)
    assert members == [4]  # both objectives of the two singular fits
    low, high, want = _lp_fit_stack(square, square, triples, faces)
    assert reason.tolist() == want.tolist() == ["", "infeasible", "", ""]
    assert q[0].tolist() == [[1.0, 1.0], [0.0, 1.0], [-1.0, 1.0]]
    assert q[:2].tobytes() == (0.5 * (low + high))[:2].tobytes()

    T = ConvexPolytope2.from_vertices(square.vertices @ rotation(1e-3).T)
    q, reason = fit_to_k(square, T, triples[:1], faces[:1])
    low, high, want = _lp_fit_stack(square, T, triples[:1], faces[:1])
    assert reason.tolist() == want.tolist() == [""]
    assert q.tobytes() == (0.5 * (low + high)).tobytes()
    monkeypatch.setattr(bounce3, "_SINGULAR", 0.0)
    assert fit_to_k(square, T, triples[:1], faces[:1])[1].tolist() == ["infeasible"]


def _assert_close_pairs(got, want):
    """Lengths, q and p of two pair lists in one order within 1e-12
    relative."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.length == pytest.approx(b.length, rel=1e-12, abs=0)
        for u, v in ((a.q, b.q), (a.p, b.p)):
            assert np.abs(u - v).max() <= 1e-12 * np.abs(v).max()


def _dual_outcomes(K, T):
    """search_three_bounce's stacked decisions per spanning triple: inbody
    reason, lambda, placed vertices, contact faces, and fit reason (None
    where no fit)."""
    triples = spanning_triples(K)
    reason, x, verts, faces = find_inbody(gamma_triangles(K, triples), T)
    ok = reason == ""
    fit = np.full(len(triples), None, object)
    fit[ok] = fit_to_k(K, T, triples[ok], np.roll(faces[ok], -1, 1))[1]
    return reason, x[:, 0], verts, face_tuples(T, faces), fit


def _same_decisions(K, T):
    """Assert that search_three_bounce decides each spanning triple as the
    tableau simplex did, and return the reference's pairs and the number of
    slid placements.  The inbody LP fixes lambda but not always
    the placement: between parallel facets of T a triangle at its largest
    scale can slide, and the two methods may stop at different ends of the
    slide.  There the placements differ, lambda agrees to 1e-12 relative,
    and both reject the triple.  Elsewhere the inbody reason, the contact
    faces and the fit reason are the same."""
    want = _triple_outcomes(K, T, simplex=True)
    reason, lam, verts, faces, fit = _dual_outcomes(K, T)
    triangles = gamma_triangles(K, spanning_triples(K))
    slid = 0
    for k, (r, f, fr, _) in enumerate(want):
        _, ref_lam, ref_verts, _ = _simplex_inbody_alone(triangles[k], T)
        if ref_verts is not None and np.abs(verts[k] - ref_verts).max() > 1e-9:
            assert "ok" not in (reason[k] or "ok", r)
            assert lam[k] == pytest.approx(ref_lam, rel=1e-12)
            slid += 1
            continue
        assert (reason[k] or "ok") == r
        if f is not None:
            assert faces[k] == f
        assert fit[k] == fr
    ref = sorted_pairs(reference_dedupe([pr for *_, pr in want if pr is not None]))
    return ref, slid


def test_search_matches_simplex_reference():
    """The dual simplex against the tableau simplex it replaced, on the
    fixtures and 120 random instances (every third T off the origin): each
    spanning triple is decided alike (_same_decisions), and the candidate
    lists have the same faces in the same order, with lengths and points
    within 1e-12 relative."""
    triples = pairs = 0
    for (_, K, T), got in zip(corpus.cases("search"), corpus.three_bounce("search")):
        ref, _ = _same_decisions(K, T)
        assert ([(pr.k_faces, pr.t_faces) for pr in got]
                == [(pr.k_faces, pr.t_faces) for pr in ref])
        _assert_close_pairs(got, ref)
        triples += len(spanning_triples(K))
        pairs += len(got)
    assert triples >= 1500 and pairs >= 50


def test_regular_polygons_match_simplex_reference():
    """As test_search_matches_simplex_reference for K a regular 3- to 8-gon
    and T a regular 3-, 6-, 8-, 9-, 12- or 21-gon, but the candidates agree
    as sets: two mirror pairs whose lengths differ by 1 ulp may swap."""
    slid = 0
    for n in (3, 4, 5, 6, 8):
        for m in (3, 6, 8, 9, 12, 21):
            K, T = regular_ngon(n), regular_ngon(m)
            ref, s = _same_decisions(K, T)
            _assert_close_pairs(*(sorted(prs, key=face_key)
                                  for prs in (search_three_bounce(K, T), ref)))
            slid += s
    assert slid >= 5


def test_search_memory_stays_linear_in_the_triples():
    """search_three_bounce on a random 64-gon K against a random 8-gon T,
    21,648 spanning triples: the dual simplex keeps O(m) memory per member,
    so the traced peak stays below 45 MB (the tableau simplex it replaced
    peaked at 57 MB here)."""
    rng = np.random.default_rng(0)
    K, T = random_polytope(rng, 64), random_polytope(rng, 8)
    search_three_bounce(regular_ngon(5), regular_ngon(4))  # warm lazy imports
    tracemalloc.start()
    try:
        search_three_bounce(K, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(spanning_triples(K)) == 21648
    assert peak < 45 * 2**20


def _staged(calls, K, T):
    """search_three_bounce's pairs, the stacks it handed certified_pairs,
    joined as one (calls, the spy's log), and its inbody count."""
    calls.clear()
    stats = SearchStats()
    pairs = search_three_bounce(K, T, stats)
    return pairs, _joined(calls), stats.inbody_triples


def _assert_blocks_change_nothing(monkeypatch, instances, sizes):
    """search_three_bounce with _BLOCK set to each of sizes hands
    certified_pairs the stacks of the search in one block (_BLOCK = 2^40),
    byte for byte, returns the same pairs, certificates included, and counts
    the same inbody triples, on each (K, T) of instances.  Returns the
    number of pairs, and the number of blocks under each size."""
    calls = spy(monkeypatch, bounce3, "certified_pairs",
                lambda K, T, *rows: list(map(np.asarray, rows)))
    blocks = spy(monkeypatch, bounce3, "_solve_triples",
                 lambda K, T, triples, *rest: len(triples))
    pairs, runs = 0, dict.fromkeys(sizes, 0)
    for K, T in instances:
        monkeypatch.setattr(bounce3, "_BLOCK", 1 << 40)
        blocks.clear()
        want, want_stacks, want_inbody = _staged(calls, K, T)
        assert len(blocks) <= 1, (K.n, T.n)
        pairs += len(want)
        for size in sizes:
            monkeypatch.setattr(bounce3, "_BLOCK", size)
            blocks.clear()
            got, stacks, inbody = _staged(calls, K, T)
            assert sum(blocks) == len(spanning_triples(K))
            assert max(blocks, default=0) <= max(1, size // (T.n + 1)), (K.n, T.n)
            assert_same_search(stacks, want_stacks, got, want)
            assert inbody == want_inbody, (K.n, T.n, size)
            runs[size] += len(blocks)
    return pairs, runs


@pytest.mark.parametrize("name", ["grid", "oracle", "ngon", "search"])
def test_blocks_of_one_triple_change_no_pair(monkeypatch, name):
    """With blocks of 1 or 7 elements, one triple per block (a triple counts
    the m_T + 1 rows of its inbody LP), on the three pools and the search
    set, the search is that of one block: by the lp contract a member of a
    stack gets the answer it would get alone."""
    instances = [(K, T) for _, K, T in corpus.cases(name)]
    pairs, runs = _assert_blocks_change_nothing(monkeypatch, instances, (1, 7))
    triples = sum(len(spanning_triples(K)) for K, _ in instances)
    assert runs == {1: triples, 7: triples}
    assert pairs >= {"grid": 5, "oracle": 40, "ngon": 2, "search": 100}[name]


@pytest.mark.parametrize("n", [40, 80])
def test_default_blocks_change_no_pair(monkeypatch, n):
    """On random_instance(default_rng(7), n, n), blocks of the default size
    (2 at n = 40, 31 at n = 80) give the search in one block (a size larger
    than any stack), byte for byte."""
    K, T = random_instance(np.random.default_rng(7), n, n)
    size = bounce3._BLOCK
    pairs, runs = _assert_blocks_change_nothing(monkeypatch, [(K, T)], (size,))
    assert pairs >= 2 and runs[size] >= 2


def test_search_memory_stays_flat_in_the_blocks():
    """search_three_bounce on random_instance(default_rng(7), 80, 80), 41,552
    spanning triples, in blocks: the traced peak stays below 120 MB (it was
    405 MB in one block)."""
    K, T = random_instance(np.random.default_rng(7), 80, 80)
    search_three_bounce(regular_ngon(5), regular_ngon(4))  # warm lazy imports
    tracemalloc.start()
    try:
        search_three_bounce(K, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(spanning_triples(K)) == 41552
    assert peak < 120 * 2**20


def test_inbody_numerical_failure_rejects_one_member(monkeypatch):
    """A member whose LP runs out of steps gets the reason "numerical";
    the other members of the stack are untouched, bit for bit."""
    # T is off the origin; 3 steps are enough for some placements and not
    # for others
    K = random_polytope(np.random.default_rng(1), 8)
    T = regular_ngon(12).translate([0.5, 3.0])
    triangles = gamma_triangles(K, spanning_triples(K))
    clean = find_inbody(triangles, T)
    placed = clean[0] == ""
    assert placed.sum() >= 3

    monkeypatch.setattr(lpmod, "_DUAL_STEPS", 3)
    out = find_inbody(triangles, T)
    failed = out[0] == "numerical"
    assert 0 < failed.sum() < len(failed)
    assert placed[failed].any() and placed[~failed].any()
    assert out[0][~failed].tolist() == clean[0][~failed].tolist()
    same = ~failed & placed
    assert np.array_equal(out[3][same], clean[3][same])
    assert out[2][same].tobytes() == clean[2][same].tobytes()
    assert np.array_equal(out[1][same, 0], clean[1][same, 0])


def _reference_inbody_stack(triangles, T):
    """find_inbody as it was before the facet-slack screen: find_faces (as
    it was then) and the spanning test run on every member of the stack,
    the contact faces as index and on_edge arrays."""
    tri = np.asarray(triangles, float).reshape(-1, 3, 2)
    B, m = len(tri), T.n
    rows = np.zeros((B, m + 1, 3))
    rows[:, :m, 0] = np.matmul(tri, T.normals.T).max(axis=1)
    rows[:, :m, 1:] = T.normals
    rows[:, m, 0] = -1.0
    k = 1 + int(np.argmax(cross2(T.normals[0], T.normals[1:]) <= 0))
    status, x = lpmod.solve_dual3(np.array([1.0, 0.0, 0.0]), rows,
                                  np.append(T.offsets, 0.0), [0, k - 1, k])
    reason = np.where(status == "numerical", "numerical",
                      np.where(status == "optimal", "", "DegenerateLp")).astype(object)
    lam = x[:, 0]
    reason[(reason == "") & (lam <= EPS_GEO)] = "DegenerateLp"
    verts = lam[:, None, None] * tri + x[:, None, 1:]
    index, on_edge = reference_find_faces(T, verts, tol=1e-7)
    index, on_edge = index.reshape(B, 3), on_edge.reshape(B, 3)
    reason[(reason == "") & (index < 0).any(axis=1)] = "NotOnBoundary"
    ang = angles(T.normals)
    gap = largest_gap(np.concatenate(
        [ang[np.where(on_edge, index, index - 1)], ang[index]], axis=1))
    reason[(reason == "") & (gap >= math.pi - EPS_ANG)] = "HalfspaceViolation"
    return reason, x, verts, index, on_edge


def test_inbody_screen_matches_reference():
    """The facet-slack screen changes no decision of find_inbody: every
    reason, x and vertex bit for bit, and the contact faces of every placed
    member, while find_faces sees far fewer members."""
    members = swept = placed = 0
    for _, K, T in corpus.cases("inbody"):
        triangles = gamma_triangles(K, spanning_triples(K))
        reason, x, verts, faces = find_inbody(triangles, T)
        ref = _reference_inbody_stack(triangles, T)
        assert reason.tolist() == ref[0].tolist()
        assert x.tobytes() == ref[1].tobytes()
        assert verts.tobytes() == ref[2].tobytes()
        ok = reason == ""
        assert np.array_equal(faces[ok] % T.n, ref[3][ok])
        assert np.array_equal(faces[ok] >= T.n, ref[4][ok])
        members += len(reason)
        swept += int((faces[:, 0] >= 0).sum())
        placed += int(ok.sum())
    assert placed >= 3000 and swept < members // 2


@st.composite
def _near_boundary(draw):
    """A random T scaled by 10**u, u in [-3, 3], and translated by up to
    1e3, with a point on one of its edges or at one of its vertices, moved
    by 0 or by 0.5e-7 to 1.99e-7 in a random direction (so inside or outside
    the boundary)."""
    P = draw(polytopes(max_vertices=12))
    try:
        T = P.scale(10.0 ** draw(st.floats(-3.0, 3.0))).translate(
            [draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))])
    except InvalidPolytope:  # too small for the absolute convexity test
        assume(False)
    i = draw(st.integers(0, T.n - 1))
    t = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    x = (1.0 - t) * T.vertices[i] + t * T.vertices[(i + 1) % T.n]
    d = draw(st.just(0.0) | st.floats(0.5e-7, 1.99e-7))
    phi = draw(st.floats(0.0, 2 * math.pi))
    return T, x + d * np.array([math.cos(phi), math.sin(phi)])


@settings(max_examples=300, deadline=None)
@given(_near_boundary())
def test_find_faces_places_only_near_a_facet_line(case):
    """What the screen relies on: a point that find_faces places with
    tol = 1e-7 is within 2 tol of some facet line of T."""
    T, x = case
    (face,) = find_faces(T, x, tol=1e-7)
    if face >= 0:
        assert np.abs(T.normals @ x - T.offsets).min() <= 2e-7


def test_searches_sweep_only_points_near_a_facet_line(monkeypatch):
    """During the searches find_faces never receives a point farther than
    2 tol from every facet line of T: the screen takes those members out."""
    real, seen = find_faces, []

    def spy(P, X, tol):
        X = np.asarray(X, float).reshape(-1, 2)
        seen.append(len(X))
        assert (np.abs(X @ P.normals.T - P.offsets).min(axis=1) <= 2 * tol).all()
        return real(P, X, tol=tol)

    monkeypatch.setattr(bounce3, "find_faces", spy)
    pairs = sum(len(search_three_bounce(K, T))
                for _, K, T in corpus.cases("inbody")[:80])
    assert pairs >= 20 and sum(seen) >= 300
