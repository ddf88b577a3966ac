import itertools
import math

import numpy as np
import pytest

from minkbill.fixtures import equilateral_triangle, obtuse_triangle_100, regular_ngon
from minkbill.geom import (EPS_ANG, ConvexPolytope2, Face, InvalidPolytope,
                           normal_cone, positively_spans)
from minkbill.obtuse import (family_t_construction, in_family_t, largest_angle,
                             one_per_cone_spans, regular_three_bounce_exists)
from minkbill.randgen import random_polytope

from references import (reference_family_t_construction, reference_largest_angle,
                        same_cycle)


def test_largest_angle():
    assert largest_angle(equilateral_triangle()) == pytest.approx(math.pi / 3)
    assert largest_angle(obtuse_triangle_100()) > math.radians(100)


def test_requires_triangle():
    with pytest.raises(ValueError):
        regular_three_bounce_exists(regular_ngon(4), regular_ngon(8))
    with pytest.raises(ValueError):
        in_family_t(regular_ngon(4), regular_ngon(8))
    with pytest.raises(ValueError, match="expected a triangle"):
        largest_angle(regular_ngon(4))


@pytest.mark.parametrize("n", [16, 64])
def test_obtuse_triangle_has_none_against_ngons(n):
    assert not regular_three_bounce_exists(obtuse_triangle_100(), regular_ngon(n))


def test_acute_triangle_has_one():
    assert regular_three_bounce_exists(equilateral_triangle(), regular_ngon(64))


def test_family_membership_tracks_existence():
    tri = obtuse_triangle_100()
    for n in (16, 64):
        T = regular_ngon(n)
        member, witness = in_family_t(tri, T)
        assert member == regular_three_bounce_exists(tri, T)
        assert witness is None
    T = regular_ngon(64)
    member, witness = in_family_t(equilateral_triangle(), T)
    assert member
    assert witness is not None and witness.scale > 0


def test_designed_geometry_is_in_family():
    tri = obtuse_triangle_100()
    T = family_t_construction(tri)
    member, witness = in_family_t(tri, T)
    assert member
    assert witness.scale == pytest.approx(1.0, abs=1e-7)
    assert regular_three_bounce_exists(tri, T)


def test_designed_geometry_for_other_triangles():
    tri = ConvexPolytope2.from_vertices([(0, 0), (5, 0), (0.2, 0.3)])
    T = family_t_construction(tri, angle=-math.pi / 2)
    assert in_family_t(tri, T)[0]


def _random_triangle(rng):
    while True:
        pts = rng.normal(size=(3, 2)) * 2
        for verts in (pts, pts[::-1]):
            try:
                return ConvexPolytope2.from_vertices(verts)
            except InvalidPolytope:
                pass


def test_largest_angle_matches_per_corner_reference():
    rng = np.random.default_rng(34)
    for _ in range(1000):
        tri = _random_triangle(rng)
        assert abs(largest_angle(tri) - reference_largest_angle(tri)) <= 1e-15


def test_family_construction_matches_sorted_reference():
    """The bisector lines taken in vertex order meet at the vertices the
    angle-sorted per-vertex construction gave, and the triangle sits in the
    result at scale 1."""
    rng = np.random.default_rng(34)
    for _ in range(200):
        tri = _random_triangle(rng)
        for angle in (math.pi / 2, -math.pi / 2):
            T = family_t_construction(tri, angle)
            assert same_cycle(T.vertices, reference_family_t_construction(tri, angle).vertices,
                              atol=1e-12)
            member, witness = in_family_t(tri, T)
            assert member and abs(witness.scale - 1.0) <= 1e-12


def test_random_triangles_family_tracks_existence():
    """Against the 32-gon, a regular 3-bounce orbit exists exactly when T is
    in the family of the triangle, and never for an obtuse triangle."""
    rng = np.random.default_rng(0)
    T = regular_ngon(32)
    outcomes = []
    for _ in range(30):
        tri = _random_triangle(rng)
        exists = regular_three_bounce_exists(tri, T)
        obtuse = largest_angle(tri) > math.pi / 2
        assert in_family_t(tri, T)[0] == exists
        assert not (obtuse and exists)
        outcomes.append((exists, obtuse))
    assert (True, False) in outcomes and (False, True) in outcomes


def _fan_spans(cones, samples=256):
    """The sampled test in_family_t used to make: a fan of unit normals
    across each wedge (both extreme rays included), every combination
    checked with positively_spans' largest-gap rule."""
    fans = sorted((a0 + width * np.linspace(0.0, 1.0, 1 if c.is_ray else samples)
                   for c in cones for a0, width in [c.angles()]), key=len)
    for a in fans[0]:
        # angles of the other two measured ccw from a
        d1 = (fans[1][:, None] - a) % (2 * math.pi)
        d2 = (fans[2][None, :] - a) % (2 * math.pi)
        lo, hi = np.minimum(d1, d2), np.maximum(d1, d2)
        gap = np.maximum(np.maximum(lo, hi - lo), 2 * math.pi - hi)
        if (gap < math.pi - EPS_ANG).any():
            return True
    return False


def test_one_per_cone_rejects_spanning_union():
    # two contacts on the top facet of T give the same ray; with the cone at
    # the bottom vertex the generators together span the plane, but every
    # choice of one normal per contact repeats the ray and so leaves a gap
    # of at least pi
    T = ConvexPolytope2.from_vertices([(0, -1), (1, 1), (-1, 1)])
    cones = [normal_cone(T, Face.edge(1)), normal_cone(T, Face.edge(1)),
             normal_cone(T, Face.vertex(0))]
    assert positively_spans([g for c in cones for g in c.generators])
    for order in itertools.permutations(cones):
        assert not one_per_cone_spans(order)
        assert not _fan_spans(order)


def test_one_per_cone_agrees_with_fan(rng):
    counts = {True: 0, False: 0}
    for _ in range(150):
        T = random_polytope(rng, int(rng.integers(3, 9)))
        faces = [Face(("vertex", "edge")[int(rng.integers(2))],
                      int(rng.integers(T.n))) for _ in range(3)]
        cones = [normal_cone(T, f) for f in faces]
        exact = one_per_cone_spans(cones)
        if _fan_spans(cones):
            assert exact
        counts[exact] += 1
    assert min(counts.values()) >= 30
