"""Planar convex polytopes, support functions, polars, normal cones.

Everything downstream (the two searches, the verifier, the brute-force
oracle) is built from the primitives in this module, so its tolerances are
the named module constants below rather than hidden magic numbers; only
find_faces and cone_contains take one as an argument, because their
callers need different values.

Conventions: polytopes are given by their vertices in counterclockwise
order; facet ``i`` joins vertex ``i`` to vertex ``i+1`` and its outer unit
normal is the clockwise quarter-turn of the edge direction.  Array code
names a face by its id, vertex ``i`` as ``i`` and edge ``i`` as ``n + i``
(all_faces order), and reads each body's FaceTable, built once per body.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

EPS_GEO = 1e-9    # geometric tolerance (coincidence, membership)
EPS_ANG = 1e-9    # angular tolerance, radians
EPS_CERT = 1e-7   # certification threshold for trajectory residuals
# 0 lies in the convex hull of unit directions iff no angular gap between
# them exceeds pi; the slack admits a closed halfplane computed with rounding
HULL_GAP = math.pi + 1e-12
# directions positively span the plane iff every angular gap between them is
# below pi; the margin rejects a closed halfplane computed with rounding
SPAN_GAP = math.pi - EPS_ANG


class GeometryError(ValueError):
    pass


class InvalidPolytope(GeometryError):
    pass


class OriginNotInterior(GeometryError):
    pass


class ZeroVector(GeometryError):
    pass


def cross2(a, b):
    """The 2-D cross product a_x b_y - a_y b_x along the last axis."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def dot2(a, b):
    """The dot product along the last axis, one per vector of a stack, with
    the bits of a @ b on one pair of vectors."""
    return np.matmul(np.asarray(a)[..., None, :], np.asarray(b)[..., :, None])[..., 0, 0]


@lru_cache(maxsize=256)
def cyclic(n: int, shift: int = 1) -> np.ndarray:
    """x[cyclic(n, s)] is np.roll(x, -s, axis=0), at a fraction of its cost."""
    index = (np.arange(n) + shift) % n
    index.setflags(write=False)  # shared by every caller
    return index


def read_only(a) -> np.ndarray:
    """A read-only float copy of the array a."""
    a = np.array(a, float)
    a.setflags(write=False)
    return a


def rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def unit(a) -> np.ndarray:
    """a at length 1 along the last axis, one per vector of a stack."""
    a = np.asarray(a, float)
    n = np.hypot(a[..., 0], a[..., 1])
    if np.any(n <= EPS_GEO):
        raise ZeroVector("cannot normalize a (near-)zero vector")
    return a / n[..., None]


def segment_distance(a, b, x):
    """Euclidean distance from point x to the closed segment [a, b], along
    the last axis (one distance per segment of a stack)."""
    a, x = np.asarray(a, float), np.asarray(x, float)
    d = np.asarray(b, float) - a
    dd = dot2(d, d)
    t = np.clip(dot2(x - a, d) / np.where(dd == 0.0, 1.0, dd), 0.0, 1.0)
    w = a + t[..., None] * d - x
    return np.hypot(w[..., 0], w[..., 1])


@dataclass(frozen=True)
class ConvexPolytope2:
    """Compact convex polygon with nonempty interior, vertices ccw."""

    vertices: np.ndarray  # (n, 2)
    normals: np.ndarray   # (n, 2) unit outer normals; facet i = [v_i, v_{i+1}]
    offsets: np.ndarray   # (n,)   so that <normals[i], x> <= offsets[i] on the body

    @staticmethod
    def from_vertices(vertices) -> "ConvexPolytope2":
        try:
            v = np.array(vertices, float)  # a copy: the caller's array stays its own
        except (TypeError, ValueError):  # ragged, or not numbers
            v = np.empty(0)
        if v.ndim != 2 or v.shape[1] != 2:
            raise InvalidPolytope("vertex array must have shape (n, 2)")
        if v.shape[0] < 3:
            raise InvalidPolytope("need at least three vertices")
        if not np.all(np.isfinite(v)):
            raise InvalidPolytope("vertices must be finite")
        with np.errstate(over="ignore", invalid="ignore"):  # overflow fails below
            edges = v[cyclic(len(v))] - v
            lens = np.hypot(edges[:, 0], edges[:, 1])
            if np.any(lens <= EPS_GEO):
                raise InvalidPolytope("consecutive vertices coincide")
            if np.any(cross2(edges, edges[cyclic(len(v))]) <= EPS_GEO):
                raise InvalidPolytope(
                    "vertices must be in strictly convex counterclockwise position")
            normals = np.column_stack([edges[:, 1], -edges[:, 0]]) / lens[:, None]
            offsets = np.einsum("ij,ij->i", normals, v)
            slack = v @ normals.T - offsets  # every vertex inside every halfplane
        if not np.isfinite(np.append(lens, offsets)).all():
            raise InvalidPolytope("edges, normals and offsets must be finite")
        if slack.max() > EPS_GEO:
            raise InvalidPolytope("vertex cycle is not convex")
        for arr in (v, normals, offsets):
            arr.setflags(write=False)
        return ConvexPolytope2(v, normals, offsets)

    @property
    def n(self) -> int:
        return self.vertices.shape[0]

    @cached_property
    def face_table(self) -> "FaceTable":
        """The FaceTable of P, derived from its fields on first use."""
        i, edge = np.arange(2 * self.n) % self.n, np.arange(2 * self.n) >= self.n
        ends = self.vertices[np.stack([i, np.where(edge, i + 1, i) % self.n], 1)]
        cone_index = np.stack([np.where(edge, i, i - 1) % self.n, i], 1)
        cones = NormalConeRep(tuple(self.normals[cone_index.T]), edge)
        table = FaceTable(ends, cone_index, cones,
                          np.stack([angles(self.normals), angles(-self.normals)]))
        for arr in (ends, cone_index, *cones.generators, edge, table.angles):
            arr.setflags(write=False)
        return table

    def origin_interior_margin(self) -> float:
        return float(self.offsets.min())

    def diameter(self) -> float:
        d = self.vertices[:, None, :] - self.vertices[None, :, :]
        return float(np.sqrt((d ** 2).sum(axis=2)).max())

    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def translate(self, t) -> "ConvexPolytope2":
        return ConvexPolytope2.from_vertices(self.vertices + np.asarray(t, float))

    def scale(self, c: float) -> "ConvexPolytope2":
        if c <= 0:
            raise InvalidPolytope("scale factor must be positive")
        return ConvexPolytope2.from_vertices(c * self.vertices)

    def reflect(self) -> "ConvexPolytope2":
        """The point reflection -P (orientation is preserved)."""
        return ConvexPolytope2.from_vertices(-self.vertices)

    def to_json_obj(self) -> dict:
        return {"vertices": self.vertices.tolist()}

    @staticmethod
    def from_json_obj(obj) -> "ConvexPolytope2":
        if not isinstance(obj, dict) or "vertices" not in obj:
            raise InvalidPolytope('expected an object with a "vertices" key')
        return ConvexPolytope2.from_vertices(obj["vertices"])


@dataclass(frozen=True)
class Face:
    """A proper face of a polytope: a vertex or an (edge) facet."""

    kind: str  # "vertex" | "edge"
    index: int

    @staticmethod
    def vertex(i: int) -> "Face":
        return Face("vertex", i)

    @staticmethod
    def edge(i: int) -> "Face":
        return Face("edge", i)

    @property
    def is_edge(self) -> bool:
        return self.kind == "edge"


def all_faces(P: ConvexPolytope2) -> List[Face]:
    """The faces of P in face-id order."""
    return [Face.vertex(i) for i in range(P.n)] + [Face.edge(i) for i in range(P.n)]


class FaceTable(NamedTuple):
    """The faces of a polygon by face id, read-only."""

    ends: np.ndarray          # (2n, 2, 2) segment [a, b] of each face; b = a at a vertex
    cone_index: np.ndarray    # (2n, 2) the normals spanning each normal cone, ccw
    cones: "NormalConeRep"    # the normal cone of each face, generators (2n, 2)
    angles: np.ndarray        # (2, n) polar angles of the normals and of their negatives


def face_array(P: ConvexPolytope2, tuples: Sequence[Sequence[Face]]) -> np.ndarray:
    """B >= 1 Face tuples of one length m as face ids (B, m)."""
    return np.array([[f.index + P.n * f.is_edge for f in faces] for faces in tuples], int)


def face_tuples(P: ConvexPolytope2, ids) -> List[Tuple[Face, ...]]:
    """The Face tuples of face ids (B, m)."""
    return [tuple(Face.edge(f - P.n) if f >= P.n else Face.vertex(f) for f in row)
            for row in np.asarray(ids).tolist()]


def face_distances(P: ConvexPolytope2, faces, X):
    """Distance of each X[k] to face faces[k] of P (a vertex is a segment of
    length 0)."""
    return segment_distance(*np.moveaxis(P.face_table.ends[faces], -2, 0), X)


def find_faces(P: ConvexPolytope2, X, tol: float = EPS_GEO) -> np.ndarray:
    """The face id of find_face for every row of X at once, -1 for a point
    not on the boundary.  Every array is (len(X), P.n), one coordinate at a
    time."""
    X = np.asarray(X, float).reshape(-1, 2)
    x, y = X[:, :1], X[:, 1:]
    (ax, ay), (ex, ey) = P.vertices.T, (P.face_table.ends[P.n:, 1] - P.vertices).T
    dx, dy = ax - x, ay - y
    d = np.hypot(dx, dy)
    near = np.argmin(d, axis=1)
    at_vertex = d.min(axis=1) <= tol
    t = np.clip(-(dx * ex + dy * ey) / (ex * ex + ey * ey), 0.0, 1.0)
    hits = np.hypot(ax + t * ex - x, ay + t * ey - y) <= tol
    on_edge = ~at_vertex & hits.any(axis=1)
    return np.where(at_vertex, near, np.where(on_edge, P.n + hits.argmax(axis=1), -1))


def find_face(P: ConvexPolytope2, x, tol: float = EPS_GEO) -> Face:
    """Smallest face of P containing x (vertices win over edges, then the
    first edge within tol)."""
    faces = find_faces(P, x, tol)
    if faces[0] < 0:
        raise GeometryError("point is not on the boundary of the polytope")
    return face_tuples(P, [faces])[0][0]


@dataclass(frozen=True)
class NormalConeRep:
    """Finitely generated cone, spanned by two unit generators in ccw order
    (equal for a ray; the width is < pi for any valid polytope face).  Each
    generator is (2,), or (B, 2) for a stack of B cones with one is_ray each."""

    generators: Tuple[np.ndarray, np.ndarray]
    is_ray: np.ndarray

    def angles(self) -> Tuple[float, float]:
        """(start angle, width) of a single cone; a ray has width 0."""
        (x0, y0), (x1, y1) = self.generators
        a0 = math.atan2(y0, x0)
        return a0, (math.atan2(y1, x1) - a0) % (2 * math.pi)

    def negate(self) -> "NormalConeRep":
        return NormalConeRep(tuple(-g for g in self.generators), self.is_ray)


def face_cones(P: ConvexPolytope2, faces) -> NormalConeRep:
    """Normal cones of P at face ids faces (a stack for an array): rays at
    edges, wedges at vertices."""
    cones = P.face_table.cones
    return NormalConeRep(tuple(g[faces] for g in cones.generators), cones.is_ray[faces])


def normal_cone(P: ConvexPolytope2, f: Face) -> NormalConeRep:
    return face_cones(P, face_array(P, [[f]])[0, 0])


def cone_rows(cone: NormalConeRep, v) -> np.ndarray:
    """The cone's three linear functionals at v, (3, ...) with the cone's
    generators broadcast against v (..., 2): cross(g0, v), cross(v, g1) and,
    at a ray, <g0, v> (0 at a wedge).  v is in the cone iff all three are
    >= 0 (at a ray, g0 == g1 and the two crosses pin v to g0's line): the
    one membership test of cone_contains and of both searches' LP rows."""
    g0, g1 = cone.generators
    return np.array([cross2(g0, v), cross2(v, g1),
                     np.where(cone.is_ray, g0[..., 0] * v[..., 0] + g0[..., 1] * v[..., 1], 0.0)])


def cone_contains(cone: NormalConeRep, v, tol: float = EPS_GEO):
    """Whether v lies in the cone, one answer per cone of a stack (v is (2,)
    or (B, 2)); the zero vector belongs to every closed cone."""
    v = np.asarray(v, float)
    nv = np.hypot(v[..., 0], v[..., 1])
    return (nv <= tol) | (cone_rows(cone, v) >= -tol * nv).all(0)


def cone_distance(cone: NormalConeRep, v):
    """Euclidean distance from v to the cone, one per cone of a stack."""
    v = np.asarray(v, float)
    best = np.hypot(v[..., 0], v[..., 1])  # distance to the apex
    for g in cone.generators:
        w = v - np.maximum(0.0, dot2(g, v))[..., None] * g
        best = np.minimum(best, np.hypot(w[..., 0], w[..., 1]))
    return np.where(cone_contains(cone, v, 0.0), 0.0, best)[()]


def support(P: ConvexPolytope2, x) -> float:
    """h_P(x) = max over P of <., x>."""
    return float(np.max(P.vertices @ np.asarray(x, float)))


def support_many(P: ConvexPolytope2, X: np.ndarray) -> np.ndarray:
    """h_P along the last axis of X."""
    return (np.asarray(X, float) @ P.vertices.T).max(axis=-1)


def polar(T: ConvexPolytope2) -> ConvexPolytope2:
    """T degrees = {x : <x, v> <= 1 for all v in T}; needs 0 in the interior."""
    if T.origin_interior_margin() <= EPS_GEO:
        raise OriginNotInterior("polar body requires the origin strictly inside")
    # facet i, <n_i, x> <= b_i, is the polar vertex n_i / b_i; the normals
    # turn counterclockwise, and so do these vertices
    return ConvexPolytope2.from_vertices(T.normals / T.offsets[:, None])


def gauge(P: ConvexPolytope2, x) -> float:
    """Minkowski functional of P at x (0 must be interior)."""
    if P.origin_interior_margin() <= EPS_GEO:
        raise OriginNotInterior("gauge requires the origin strictly inside")
    x = np.asarray(x, float)
    s = P.normals @ x / P.offsets
    return float(max(s.max(), 0.0))


def degenerate(v):
    """Whether a closed curve (m, 2), or each of a stack (B, m, 2), has a
    vertex on the segment between its neighbours (for m = 2: coinciding)."""
    m = v.shape[-2]
    return (segment_distance(v[..., cyclic(m, -1), :], v[..., cyclic(m), :], v)
            <= EPS_GEO).any(axis=-1)


def ell_length(T: ConvexPolytope2, q) -> float:
    """Length of the closed curve q (m, 2) in the Minkowski metric induced
    by T, i.e. the sum of h_T over the edge vectors q_{j+1} - q_j."""
    q = np.asarray(q, float)
    return float(support_many(T, q[cyclic(len(q))] - q).sum())


def angles(vectors) -> np.ndarray:
    """The polar angle of each row, by math.atan2 (np.arctan2 differs from
    it in the last ulp on some inputs)."""
    return np.array([math.atan2(y, x)
                     for x, y in np.asarray(vectors, float).reshape(-1, 2).tolist()])


def largest_gap(angles, mask=True) -> np.ndarray:
    """The largest angular gap between the directions selected by mask,
    along the last axis: one direction leaves a gap of 2 pi, none gives nan
    (which fails every comparison)."""
    a = np.sort(np.where(mask, angles, np.nan), axis=-1)  # nan sorts last
    first = np.fmin.reduce(a, axis=-1, initial=np.nan)
    last = np.fmax.reduce(a, axis=-1, initial=np.nan)
    return np.fmax(np.fmax.reduce(np.diff(a, axis=-1), axis=-1, initial=np.nan),
                   2 * math.pi - (last - first))


def positively_spans(vectors: Sequence) -> bool:
    """True iff the vectors positively span the plane, i.e. 0 is in the
    interior of their convex cone: their largest angular gap is below
    SPAN_GAP.  Collections whose largest angular gap equals pi (all
    vectors in a closed halfplane) do not count."""
    vs = np.asarray(vectors, float).reshape(-1, 2)
    if (np.hypot(vs[:, 0], vs[:, 1]) <= EPS_GEO).any():
        raise ZeroVector("zero vector in a spanning test")
    return bool(largest_gap(angles(vs)) < SPAN_GAP)


def in_f(K: ConvexPolytope2, points):
    """Whether the point set (m, 2) touches the boundary 'immovably', or
    each set of a stack (B, m, 2): no translation pushes all points into
    the interior of K.  By Gordan's theorem that holds iff 0 is in the
    convex hull of the normals of the facets the set touches (slack <=
    EPS_GEO), i.e. iff no angular gap between them exceeds pi (HULL_GAP)."""
    pts = np.asarray(points, float)
    touched = K.offsets - (pts @ K.normals.T).max(axis=-2) <= EPS_GEO
    return largest_gap(K.face_table.angles[0], touched) <= HULL_GAP
