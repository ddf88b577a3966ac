import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minkbill.geom import (ClosedCurve, ConvexPolytope2, Face, GeometryError,
                           InvalidCurve, InvalidPolytope, OriginNotInterior,
                           ZeroVector, all_faces, cone_contains, cone_distance,
                           cones_intersect, convex_hull, ell_length,
                           face_distance, find_face, gauge, in_f, normal_cone,
                           polar, positively_spans, rotation,
                           segment_distance, support, support_many, unit)

from conftest import polytopes, vectors

SQUARE = ConvexPolytope2.from_vertices([(1, -1), (1, 1), (-1, 1), (-1, -1)])
DIAMOND = ConvexPolytope2.from_vertices([(1, 0), (0, 1), (-1, 0), (0, -1)])


# --- construction -----------------------------------------------------------

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


def _same_cycle(A, B, atol=1e-7):
    return any(np.allclose(np.roll(B, r, axis=0), A, atol=atol)
               for r in range(B.shape[0])) if A.shape == B.shape else False


@settings(max_examples=80, deadline=None)
@given(polytopes(recentre=True))
def test_polar_involution(P):
    Q = polar(polar(P))
    assert _same_cycle(Q.vertices, P.vertices)


@settings(max_examples=50, deadline=None)
@given(polytopes(recentre=True), st.floats(0.1, 5.0))
def test_polar_scaling(P, c):
    lhs = polar(P.scale(c))
    rhs = polar(P).scale(1.0 / c)
    assert _same_cycle(lhs.vertices, rhs.vertices, atol=1e-6)


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
        if segment_distance(*P.facet_segment(j), x) <= tol:
            return Face.edge(j)
    return None


@settings(max_examples=40, deadline=None)
@given(polytopes(max_vertices=12), st.sampled_from([1e-9, 1e-7]))
def test_find_face_matches_per_edge_reference(P, tol):
    rng = np.random.default_rng(P.n)
    pts = [v + s * tol * rng.normal(size=2) / 2 for v in P.vertices
           for s in (0.0, 1.0)]
    for j in range(P.n):
        a, b = P.facet_segment(j)
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


def test_face_distance():
    assert face_distance(SQUARE, Face.edge(0), (1, 0.5)) == 0.0
    assert face_distance(SQUARE, Face.edge(0), (0.5, 0.0)) == pytest.approx(0.5)
    assert face_distance(SQUARE, Face.vertex(0), (1, -1)) == 0.0


def test_all_faces_count():
    assert len(all_faces(SQUARE)) == 8


def test_convex_hull_strict():
    pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (1, 0)]  # interior + edge point
    hull = convex_hull(pts)
    assert hull.shape == (4, 2)


def test_rotation_matrix():
    R = rotation(math.pi / 2)
    assert np.allclose(R @ np.array([1.0, 0.0]), [0.0, 1.0], atol=1e-15)
