"""Regular 3-bounce trajectories of triangles, and the family of geometries
that rules them out.

A triangle Delta has a regular 3-bounce trajectory in the geometry of T
exactly when the search pipeline succeeds on its single facet triple.  The
companion test asks whether T belongs to the family characterized by a
rotated copy of Delta: some rotation of Delta by +-90 degrees admits a
maximal placement inside T whose contact points are immovable on the
boundary and whose contact normals positively span the plane."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .bounce3 import find_inbody, search_three_bounce
from .geom import (SPAN_GAP, ConvexPolytope2, Face, NormalConeRep, cyclic, dot2,
                   face_tuples, in_f, normal_cone, rotation)


@dataclass(frozen=True)
class FamilyWitness:
    rotation: float          # +pi/2 or -pi/2
    scale: float
    shift: np.ndarray
    vertices: np.ndarray     # contact points on the boundary of T
    t_faces: Tuple[Face, ...]


def family_t_construction(triangle: ConvexPolytope2,
                          angle: float = math.pi / 2) -> ConvexPolytope2:
    """A geometry built to contain the quarter-turned triangle maximally:
    the intersection of the supporting halfplanes at its vertices whose
    normals bisect the vertex normal cones.  By construction the growth LP
    caps at scale 1 with all three vertices on the boundary, so the result
    always belongs to the family of the triangle."""
    rot = ConvexPolytope2.from_vertices(triangle.vertices @ rotation(angle).T)
    centred = ConvexPolytope2.from_vertices(rot.vertices - rot.centroid())
    # vertex i's cone is spanned by normals i - 1 and i; the bisectors turn
    # counterclockwise, and line i meets line i + 1 at the new vertex i
    n = centred.normals[cyclic(3, -1)] + centred.normals
    b = dot2(n, centred.vertices)
    A, c = np.stack([n, n[cyclic(3)]], 1), np.stack([b, b[cyclic(3)]], 1)
    return ConvexPolytope2.from_vertices(np.linalg.solve(A, c[..., None])[..., 0])


def largest_angle(triangle: ConvexPolytope2) -> float:
    v = triangle.vertices
    if v.shape[0] != 3:
        raise ValueError("expected a triangle")
    a, b = v[cyclic(3, -1)] - v, v[cyclic(3)] - v
    c = dot2(a, b) / (np.hypot(a[:, 0], a[:, 1]) * np.hypot(b[:, 0], b[:, 1]))
    return float(np.arccos(np.clip(c, -1.0, 1.0)).max())


def regular_three_bounce_exists(triangle: ConvexPolytope2,
                                T: ConvexPolytope2) -> bool:
    if triangle.n != 3:
        raise ValueError("expected a triangle")
    return len(search_three_bounce(triangle, T)) > 0


def one_per_cone_spans(cones: Sequence[NormalConeRep]) -> bool:
    """Whether one direction from each of three cones (width < pi) can be
    chosen so that the three positively span the plane, i.e. their largest
    angular gap is < SPAN_GAP.

    Pick angles th_0 < th_i < th_j < th_0 + 2 pi in lifts [lo_k, hi_k] of
    the cones' arcs.  Every gap is at most c exactly when the difference
    constraints th_i - th_0 <= c, th_j - th_i <= c, th_0 + 2 pi - th_j <= c
    and lo_k <= th_k <= hi_k have no negative cycle.  The cycle through all
    three angles only asks c >= 2 pi / 3; the cycles through the bounds give
    the terms below.  After rotating th_0's arc to start at 0, lifts by -1,
    0, +1 turns cover every configuration."""
    arcs = [c.angles() for c in cones]
    base = arcs[0][0]
    tau = 2 * math.pi
    best = math.inf
    for i, j in ((1, 2), (2, 1)):
        for ki, kj in itertools.product((-1, 0, 1), repeat=2):
            lo = (0.0, (arcs[i][0] - base) % tau + ki * tau,
                  (arcs[j][0] - base) % tau + kj * tau)
            hi = (arcs[0][1], lo[1] + arcs[i][1], lo[2] + arcs[j][1])
            c = max(lo[1] - hi[0], lo[2] - hi[1], lo[0] - hi[2] + tau,
                    (lo[2] - hi[0]) / 2, (lo[0] - hi[1] + tau) / 2,
                    (lo[1] - hi[2] + tau) / 2)
            best = min(best, c)
    return best < SPAN_GAP


def in_family_t(triangle: ConvexPolytope2, T: ConvexPolytope2
                ) -> Tuple[bool, Optional[FamilyWitness]]:
    """Whether T carries a geometry from the family associated with the
    triangle: a quarter-turn of the triangle admits a maximal inscribed
    placement whose contact points cannot be translated off the boundary and
    whose contact cones hold one normal each that together positively
    span."""
    if triangle.n != 3:
        raise ValueError("expected a triangle")
    for ang in (math.pi / 2, -math.pi / 2):
        rot = triangle.vertices @ rotation(ang).T
        [reason], [x], [verts], faces = find_inbody(rot[None], T)
        if reason or not in_f(T, verts):
            continue
        [t_faces] = face_tuples(T, faces)
        if not one_per_cone_spans([normal_cone(T, f) for f in t_faces]):
            continue
        return True, FamilyWitness(ang, float(x[0]), x[1:], verts, t_faces)
    return False, None
