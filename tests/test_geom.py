import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minkbill.bounce2 import search_two_bounce
from minkbill.bounce3 import search_three_bounce
from minkbill.fixtures import regular_ngon
from minkbill.geom import (EPS_GEO, ClosedCurve, ConvexPolytope2,
                           Face, GeometryError, InvalidCurve, InvalidPolytope,
                           OriginNotInterior, ZeroVector, all_faces, angles,
                           cone_contains, cone_distance,
                           convex_hull, cyclic, ell_length, face_cones, face_distances,
                           face_array, face_tuples, find_face, find_faces,
                           gauge, in_f, largest_gap,
                           normal_cone,
                           polar, positively_spans, rotation, segment_distance,
                           support, unit)
from minkbill.randgen import random_instance, random_polytope

import corpus
from conftest import polytopes, vectors
from corpus import DIAMOND, SQUARE
from references import cones_intersect, reference_find_faces, reference_in_f, same_cycle


# --- construction -----------------------------------------------------------

def test_cyclic_indexes_as_np_roll():
    """x[cyclic(n, s)] is np.roll(x, -s) along the first axis, bit for bit,
    and the shared index array cannot be written."""
    for n in (1, 2, 3, 7):
        x = np.random.default_rng(n).normal(size=(n, 3, 2))
        for s in range(-n - 1, n + 2):
            assert cyclic(n, s).tobytes() == np.roll(np.arange(n), -s).tobytes()
            assert x[cyclic(n, s)].tobytes() == np.roll(x, -s, axis=0).tobytes()
    with pytest.raises(ValueError):
        cyclic(3)[0] = 1


def test_rejects_clockwise():
    with pytest.raises(InvalidPolytope):
        ConvexPolytope2.from_vertices([(0, 0), (0, 1), (1, 0)])


def test_rejects_collinear_vertex():
    with pytest.raises(InvalidPolytope):
        ConvexPolytope2.from_vertices([(0, 0), (1, 0), (2, 0), (1, 1)])


def test_rejects_duplicate_vertex():
    with pytest.raises(InvalidPolytope):
        ConvexPolytope2.from_vertices([(0, 0), (1, 0), (1, 0), (0, 1)])


def test_rejects_nonconvex():
    with pytest.raises(InvalidPolytope):
        ConvexPolytope2.from_vertices([(0, 0), (2, 0), (1, 0.2), (1, 2)])


@pytest.mark.parametrize("vertices", [
    [(1e308, 0), (0, 1e308), (-1e308, 0)],
    [(1.5e308, 1.5e308), (-1.5e308, 1.5e308), (0, -1e308)],
    [(1.4e308, 1.27e308), (1.27e308, 1.4e308), (1.2e308, 1.2e308)],
], ids=["edge-overflows", "edges-overflow", "offset-overflows"])
def test_rejects_finite_vertices_whose_edges_or_offsets_overflow(vertices):
    """Finite vertices whose edges, normals or offsets overflow (normal
    (0, nan) and offset nan for the first; finite edges but an infinite
    offset for the last) are no polytope, and rejecting them raises no
    floating-point warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidPolytope, match="finite"):
            ConvexPolytope2.from_vertices(vertices)


def test_normals_and_offsets_of_square():
    assert np.allclose(SQUARE.normals,
                       [(1, 0), (0, 1), (-1, 0), (0, -1)])
    assert np.allclose(SQUARE.offsets, 1.0)


def test_vertices_read_only():
    with pytest.raises(ValueError):
        SQUARE.vertices[0, 0] = 7.0


def test_json_roundtrip():
    again = ConvexPolytope2.from_json_obj(SQUARE.to_json_obj())
    assert np.array_equal(again.vertices, SQUARE.vertices)


# --- support / gauge / polar ------------------------------------------------

def test_support_square():
    assert support(SQUARE, (1, 0)) == 1.0
    assert support(SQUARE, (1, 1)) == 2.0
    assert support(SQUARE, (-3, 2)) == 5.0


def test_polar_square_is_diamond():
    P = polar(SQUARE)
    assert sorted(map(tuple, P.vertices)) == sorted(map(tuple, DIAMOND.vertices))


def test_polar_requires_interior_origin():
    shifted = SQUARE.translate((5, 0))
    with pytest.raises(OriginNotInterior):
        polar(shifted)


def test_gauge_matches_support_of_polar():
    for x in [(1, 0), (0.3, -2.0), (-1.5, 1.5)]:
        assert gauge(DIAMOND, x) == pytest.approx(support(polar(DIAMOND), x))


@settings(max_examples=80, deadline=None)
@given(polytopes(recentre=True))
def test_polar_involution(P):
    Q = polar(polar(P))
    assert same_cycle(Q.vertices, P.vertices)


@settings(max_examples=50, deadline=None)
@given(polytopes(recentre=True), st.floats(0.1, 5.0))
def test_polar_scaling(P, c):
    lhs = polar(P.scale(c))
    rhs = polar(P).scale(1.0 / c)
    assert same_cycle(lhs.vertices, rhs.vertices, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(polytopes(), vectors(), vectors())
def test_support_subadditive_and_homogeneous(P, x, y):
    hx, hy, hxy = support(P, x), support(P, y), support(P, x + y)
    assert hxy <= hx + hy + 1e-7
    assert support(P, 2.5 * x) == pytest.approx(2.5 * hx, abs=1e-7)


@settings(max_examples=60, deadline=None)
@given(polytopes(), vectors())
def test_support_monotone_under_inclusion(P, x):
    bigger = ConvexPolytope2.from_vertices(
        convex_hull(np.vstack([P.vertices, 2.0 * P.vertices])))
    assert support(P, x) <= support(bigger, x) + 1e-9


# --- cones ------------------------------------------------------------------

def test_normal_cone_edge_and_vertex():
    ray = normal_cone(SQUARE, Face.edge(0))
    assert ray.is_ray and np.allclose(ray.generators[0], (1, 0))
    assert np.array_equal(*ray.generators)  # a ray repeats its generator
    cone = normal_cone(SQUARE, Face.vertex(1))  # vertex (1, 1)
    assert np.allclose(cone.generators[0], (1, 0))
    assert np.allclose(cone.generators[1], (0, 1))
    assert cone_contains(cone, (1, 1))
    assert not cone_contains(cone, (-1, 1))


def test_cone_distance_values():
    cone = normal_cone(SQUARE, Face.vertex(1))
    assert cone_distance(cone, (2, 3)) == 0.0
    assert cone_distance(cone, (-1, 0)) == pytest.approx(1.0)
    assert cone_distance(cone, (0, -2)) == pytest.approx(2.0)


def _reference_cone_contains(cone, v, tol: float = EPS_GEO) -> bool:
    """cone_contains on one cone, as it was before it took stacks."""
    def cross2(a, b) -> float:
        return float(a[0] * b[1] - a[1] * b[0])

    v = np.asarray(v, float)
    nv = float(np.hypot(v[0], v[1]))
    if nv <= tol:
        return True  # the zero vector belongs to every closed cone
    s = tol * nv
    g = cone.generators
    if cone.is_ray:
        return abs(cross2(g[0], v)) <= s and float(g[0] @ v) >= -s
    return cross2(g[0], v) >= -s and cross2(v, g[1]) >= -s


@pytest.mark.parametrize("P", [random_polytope(np.random.default_rng(s), n)
                               for s, n in ((0, 3), (1, 5), (2, 9))]
                         + [regular_ngon(n) for n in (3, 4, 8, 256)],
                         ids=["random3", "random5", "random9", "regular3",
                              "regular4", "regular8", "regular256"])
def test_stacked_cone_contains_matches_scalar_reference(P):
    """cone_contains on the stack face_cones(P, faces) answers, per
    cone, what the scalar reference answers on normal_cone of that face:
    for random vectors, vectors on a generator, the reverse of the first
    generator (for a ray: on its line but outside) and the zero vector."""
    rng = np.random.default_rng(P.n)
    n = P.n
    for kind in ("vertex", "edge"):
        shift = n * (kind == "edge")  # face id of index 0 of this kind
        g = face_cones(P, shift + np.arange(n)).generators
        V = np.concatenate([rng.normal(size=(4 * n, 2)), 2.5 * g[0],
                            0.3 * g[-1], -g[0], np.zeros((n, 2))])
        idx = np.arange(len(V)) % n
        got = cone_contains(face_cones(P, shift + idx), V)
        cones = [normal_cone(P, Face(kind, int(i))) for i in idx]
        want = [_reference_cone_contains(c, v) for c, v in zip(cones, V)]
        assert got.shape == (len(V),) and got.tolist() == want
        assert got[4 * n:6 * n].all() and not got[6 * n:7 * n].any()
        assert [cone_contains(c, v) for c, v in zip(cones, V)] == want


def test_cones_intersect_antipodal_facets():
    c0 = normal_cone(SQUARE, Face.edge(0))
    c2 = normal_cone(SQUARE, Face.edge(2))
    c1 = normal_cone(SQUARE, Face.edge(1))
    assert cones_intersect(c0, c2.negate())
    assert not cones_intersect(c0, c1.negate())


def test_positively_spans():
    assert positively_spans([(1, 0), (-1, 1), (-1, -1)])
    assert not positively_spans([(1, 0), (0, 1), (1, 1)])
    # a closed halfplane (largest gap exactly pi) does not count
    assert not positively_spans([(1, 0), (0, 1), (-1, 0)])
    with pytest.raises(ZeroVector):
        positively_spans([(0, 0), (1, 0), (0, 1)])


def test_unit_rejects_zero():
    with pytest.raises(ZeroVector):
        unit((0, 0))


# --- immovability -----------------------------------------------------------

def test_in_f_square_chord():
    assert in_f(SQUARE, [(0, -1), (0, 1)])
    assert not in_f(SQUARE, [(0, -1)])          # slide it up
    assert not in_f(SQUARE, [(1, 0), (1, 0.5)])  # one facet only


def test_in_f_translation_invariant():
    t = np.array([3.0, -2.0])
    assert in_f(SQUARE.translate(t), np.array([(0, -1), (0, 1)]) + t)


def test_in_f_vertex_pin():
    tri = ConvexPolytope2.from_vertices([(0, 0), (2, 0), (0, 2)])
    assert in_f(tri, [(0, 0), (1, 1)])
    assert not in_f(tri, [(0, 0)])
    # a point more than tol inside touches no facet, although the common
    # margin the margin LP finds here is only 2 tol / (1 + sqrt 2) < tol
    inset = np.array([1.0, 1.0]) - 2 * EPS_GEO * tri.normals[1]
    assert not in_f(tri, [(0, 0), inset])
    assert reference_in_f(tri, [(0, 0), inset])


def _boundary_set(K, rng, k, slack=0.0):
    """k random points at the given slack inside the boundary of K, each a
    vertex (at that slack from both its facets) or a point inside a facet."""
    n = K.normals
    pts = []
    for i in rng.integers(K.n, size=k):
        a, b = K.face_table.ends[K.n + i]
        if rng.random() < 0.3:
            pts.append(a - slack * (n[i - 1] + n[i]) / (1 + n[i - 1] @ n[i]))
        else:
            pts.append(a + rng.uniform(0.05, 0.95) * (b - a) - slack * n[i])
    return np.array(pts)


def _strips():
    """Two touches on antiparallel facets, at facet midpoints: a largest
    normal gap of pi, up to rounding on either side."""
    hexagon = regular_ngon(6)
    tilted = ConvexPolytope2.from_vertices(SQUARE.vertices @ rotation(0.3).T)
    return [(P, np.array([np.mean(P.face_table.ends[P.n + i], axis=0) for i in facets]))
            for P, facets in ((SQUARE, (1, 3)),   # gap exactly pi
                              (hexagon, (0, 3)),  # pi + 1 ulp
                              (tilted, (0, 2)))]


def test_in_f_edge_cases_match_margin_lp():
    """The gap rule against the margin LP on a single vertex contact, strips,
    interior points, and strips moved inward to slack tol/2 (still touching)
    and 2 tol (free)."""
    cases = [(SQUARE, [(1, 1)]), (SQUARE, [(0, 0)]), (SQUARE, [(0, 0), (0, 1)]),
             (regular_ngon(7), [(0, 0)])] + _strips()
    for K, X in _strips():
        face = (X @ K.normals.T - K.offsets).argmax(axis=1)
        for s in (EPS_GEO / 2, 2 * EPS_GEO):
            cases.append((K, X - s * K.normals[face]))
    got = [in_f(K, X) for K, X in cases]
    assert got == [reference_in_f(K, X) for K, X in cases]
    assert got == [False] * 4 + [True] * 3 + [True, False] * 3


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 19), st.integers(0, 2**32 - 1))
def test_in_f_matches_margin_lp_on_boundary_sets(n, seed):
    rng = np.random.default_rng(seed)
    bodies = [random_polytope(rng, n), regular_ngon(n, phase=rng.uniform(0, 1))]
    for K in bodies:
        for k in (1, 2, 3):
            for slack in (0.0, EPS_GEO / 2, 2 * EPS_GEO):
                X = _boundary_set(K, rng, k, slack)
                assert in_f(K, X) == reference_in_f(K, X), (K.vertices, X)


def test_in_f_matches_margin_lp_on_search_pairs():
    rng = np.random.default_rng(7)
    seen = set()
    for _ in range(6):
        K, T = random_instance(rng, int(rng.integers(3, 9)),
                               int(rng.integers(3, 9)))
        for pair in search_two_bounce(K, T) + search_three_bounce(K, T):
            for P, X in ((K, pair.q.vertices), (T, pair.p.vertices)):
                got = in_f(P, X)
                assert got == reference_in_f(P, X)
                seen.add(got)
    assert seen == {True}  # a search returns certified pairs only


# --- angular gaps -----------------------------------------------------------

def _gap_loop(angle_list):
    """The largest angular gap by a loop over the sorted list."""
    a = sorted(angle_list)
    if not a:
        return math.nan
    gaps = [a[k + 1] - a[k] for k in range(len(a) - 1)]
    gaps.append(2 * math.pi - (a[-1] - a[0]))
    return max(gaps)


_ANGLE = st.one_of(st.sampled_from([-math.pi, -math.pi / 2, 0.0, 1.0, math.pi]),
                   st.floats(-math.pi, math.pi))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_ANGLE, st.booleans(), st.booleans()), max_size=9))
def test_largest_gap_matches_sorted_loop(rows):
    """Duplicate angles, one direction and none included; masked rows of a
    stack agree with the loop over the selected angles."""
    ang = np.array([a for a, _, _ in rows], float)
    masks = np.array([[m for _, m, _ in rows], [m for _, _, m in rows],
                      [True] * len(rows)], bool).reshape(3, len(rows))
    got = largest_gap(np.broadcast_to(ang, masks.shape), masks)
    for g, want in zip([*got, largest_gap(ang)],
                       [_gap_loop(ang[mask].tolist()) for mask in masks]
                       + [_gap_loop(ang.tolist())]):
        assert g == want or (math.isnan(g) and math.isnan(want))


def test_largest_gap_extremes():
    assert largest_gap(np.array([0.5])) == 2 * math.pi
    assert math.isnan(largest_gap(np.array([])))
    assert math.isnan(largest_gap(np.array([0.5, 1.0]), False))
    assert largest_gap(angles([(1, 0), (-1, 0)])) == math.pi
    assert largest_gap(angles([(1, 0), (0, 1), (-1, 0), (0, -1)])) == math.pi / 2


# --- curves and lengths -----------------------------------------------------

def test_closed_curve_validation():
    with pytest.raises(InvalidCurve):
        ClosedCurve.from_vertices([(0, 0)])
    with pytest.raises(InvalidCurve):
        ClosedCurve.from_vertices([(0, 0), (0, 0)])
    with pytest.raises(InvalidCurve):
        # middle vertex on the segment between its neighbours
        ClosedCurve.from_vertices([(0, 0), (1, 0), (2, 0)])
    c = ClosedCurve.from_vertices([(0, 0), (1, 0), (0, 1)])
    assert c.m == 3


def test_ell_length_square_chord():
    chord = ClosedCurve.from_vertices([(0, -1), (0, 1)])
    assert ell_length(SQUARE, chord) == pytest.approx(4.0)
    assert ell_length(DIAMOND, chord) == pytest.approx(4.0)


@settings(max_examples=60, deadline=None)
@given(polytopes(), vectors(scale=3.0))
def test_ell_length_translation_invariant(P, t):
    curve = ClosedCurve.from_vertices([(0, 0), (2, 0.5), (1, 2)])
    assert ell_length(P, curve) == pytest.approx(
        ell_length(P, curve.translate(t)), abs=1e-8)


# --- faces ------------------------------------------------------------------

def test_find_face():
    assert find_face(SQUARE, (1, 1)) == Face.vertex(1)
    assert find_face(SQUARE, (1, 0.3)) == Face.edge(0)
    with pytest.raises(GeometryError):
        find_face(SQUARE, (0, 0))


def _find_face_per_edge(P, x, tol):
    """find_face written with one segment_distance call per edge."""
    d = np.hypot(*(P.vertices - x).T)
    i = int(np.argmin(d))
    if d[i] <= tol:
        return Face.vertex(i)
    for j in range(P.n):
        if segment_distance(*P.face_table.ends[P.n + j], x) <= tol:
            return Face.edge(j)
    return None


@settings(max_examples=40, deadline=None)
@given(polytopes(max_vertices=12), st.sampled_from([1e-9, 1e-7]))
def test_find_face_matches_per_edge_reference(P, tol):
    rng = np.random.default_rng(P.n)
    pts = [v + s * tol * rng.normal(size=2) / 2 for v in P.vertices
           for s in (0.0, 1.0)]
    for j in range(P.n):
        a, b = P.face_table.ends[P.n + j]
        on = a + rng.uniform(0.01, 0.99) * (b - a)
        pts += [on, on + 0.5 * tol * P.normals[j], on - 0.5 * tol * P.normals[j],
                on + 2 * tol * P.normals[j],
                a + 2 * tol * (P.normals[j] + P.normals[j - 1])]
    pts.append(P.centroid())
    outcomes = set()
    for x in pts:
        want = _find_face_per_edge(P, x, tol)
        if want is None:
            with pytest.raises(GeometryError):
                find_face(P, x, tol=tol)
        else:
            assert find_face(P, x, tol=tol) == want
        outcomes.add("none" if want is None else want.kind)
    assert outcomes == {"vertex", "edge", "none"}


def test_find_faces_matches_reference():
    """find_faces gives the faces of the (N, n, 2) version it replaced on
    random 3- to 24-gons scaled by 1e-3 to 1e3 and moved by up to 1e3, at
    points on vertices and edges moved off them by 1e-9 to 1e-6."""
    rng = np.random.default_rng(7)
    kinds = np.zeros(3, int)
    for _ in range(300):
        P = random_polytope(rng, int(rng.integers(3, 25)))
        try:
            P = P.scale(10.0 ** rng.uniform(-3.0, 3.0)).translate(
                rng.uniform(-1e3, 1e3, size=2))
        except InvalidPolytope:  # too small for the absolute convexity test
            continue
        i, t = rng.integers(0, P.n, 60), rng.random(60)
        t[:20] = 0.0
        X = (1.0 - t)[:, None] * P.vertices[i] + t[:, None] * P.vertices[(i + 1) % P.n]
        X += rng.normal(size=X.shape) * 10.0 ** rng.uniform(-9.0, -6.0, (60, 1))
        for tol in (EPS_GEO, 1e-7):
            faces = find_faces(P, X.reshape(20, 3, 2), tol=tol)
            index, on_edge = reference_find_faces(P, X, tol)
            assert faces.tolist() == np.where(on_edge, P.n + index, index).tolist()
            kinds += [(faces < 0).sum(), (faces >= P.n).sum(),
                      ((faces >= 0) & (faces < P.n)).sum()]
    assert kinds.min() >= 1000


def test_face_table_matches_per_call_formulas():
    """Each face id's segment ends, cone generators and normal angles in the
    face table equal, bit for bit, what the per-call formulas it replaces
    computed from the vertices and normals; face ids round-trip through
    face_array and face_tuples; find_faces gives the faces of the (index,
    on_edge) reference as ids.  The table is read-only and stays out of repr."""
    rng = np.random.default_rng(29)
    kinds = np.zeros(3, int)
    for P in [P for _, K, T in corpus.cases("table") for P in (K, T)]:
        n, table = P.n, P.face_table
        ids = np.arange(2 * n)
        idx, is_edge = ids % n, ids >= n
        ends = np.stack([P.vertices[idx], P.vertices[(idx + is_edge) % n]], 1)
        assert table.ends.tobytes() == ends.tobytes()
        assert (table.ends[n:, 1] - table.ends[n:, 0]).tobytes() == (
            np.roll(P.vertices, -1, axis=0) - P.vertices).tobytes()
        first, last = table.cones.generators
        assert first.tobytes() == P.normals[np.where(is_edge, idx, idx - 1)].tobytes()
        assert last.tobytes() == P.normals[idx].tobytes()
        assert table.cones.is_ray.tolist() == is_edge.tolist()
        assert table.angles[0].tobytes() == angles(P.normals).tobytes()
        for sign, gens in ((0, (first, last)), (1, (-first, -last))):
            assert table.angles[sign, table.cone_index.T].tobytes() == np.stack(
                [angles(g) for g in gens]).tobytes()
        assert all(not a.flags.writeable for a in
                   (table.ends, table.cone_index, first, last, table.angles))
        assert P.face_table is table and "face_table" not in repr(P)

        faces = face_array(P, [all_faces(P)])
        assert faces.tolist() == [ids.tolist()]
        assert face_tuples(P, faces) == [tuple(all_faces(P))]
        i, t = rng.integers(0, n, 30), rng.random(30)
        t[:10] = 0.0
        X = (1.0 - t)[:, None] * P.vertices[i] + t[:, None] * P.vertices[(i + 1) % n]
        X += rng.normal(size=X.shape) * 10.0 ** rng.uniform(-9.0, -6.0, (30, 1))
        for tol in (EPS_GEO, 1e-7):
            got = find_faces(P, X, tol=tol)
            index, on_edge = reference_find_faces(P, X, tol)
            assert got.tolist() == np.where(on_edge, n + index, index).tolist()
            kinds += [(got < 0).sum(), (got >= n).sum(), ((got >= 0) & (got < n)).sum()]
    assert kinds.min() >= 500


def test_face_distance():
    assert face_distances(SQUARE, 4, (1, 0.5)) == 0.0  # edge 0
    assert face_distances(SQUARE, 4, (0.5, 0.0)) == pytest.approx(0.5)
    assert face_distances(SQUARE, 0, (1, -1)) == 0.0  # vertex 0
    assert face_distances(SQUARE, np.array([4, 0]),
                          np.array([(0.5, 0.0), (1, -1)])).tolist() == [0.5, 0.0]


def test_all_faces_count():
    assert len(all_faces(SQUARE)) == 8


def test_convex_hull_strict():
    pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (1, 0)]  # interior + edge point
    hull = convex_hull(pts)
    assert hull.shape == (4, 2)


def test_rotation_matrix():
    R = rotation(math.pi / 2)
    assert np.allclose(R @ np.array([1.0, 0.0]), [0.0, 1.0], atol=1e-15)
