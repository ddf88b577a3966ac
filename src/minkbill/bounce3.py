"""Search for regular closed 3-bounce trajectories.

Pipeline, per ordered facet triple of K with positively spanning normals:

1. build the dual triangle gamma whose edges run along the facet normals
   (gamma is unique up to translation and positive scaling once the first
   coefficient is fixed);
2. grow gamma inside T as far as possible (an LP over scaling and
   translation); the optimal placement is the candidate dual trajectory and
   must touch the boundary of T at all three vertices with contact normals
   not contained in any closed halfplane;
3. with p fixed, the q-side is linear: q_i = a_i + t_i (b_i - a_i) runs over
   facet i of K for t in [0, 1]^3, and q_{i+1} - q_i must lie in the normal
   cone of T at the contact face of p_i (a ray for a facet of T, a wedge for
   a vertex).  One LP over the row builders of the 2-bounce search decides
   whether such q exist;
4. the feasible t form a convex family of constant length (p_{j-1} - p_j is
   parallel to the normal of facet j), so the centre of the family, the mean
   of the solutions minimizing and maximizing sum(t), is kept if it
   certifies independently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from . import lp as lpmod
from .bounce2 import _Affine, _cone_rows, _solve_rows
from .geom import (EPS_ANG, EPS_GEO, ConvexPolytope2, Face, GeometryError,
                   find_face, normal_cone, positively_spans)
from .pairs import BilliardPair, dedupe, make_pair, sort_pairs
from .verify import certified_pair


class NotSpanning(GeometryError):
    pass


class NoInbody(GeometryError):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class FitRejected(GeometryError):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class GammaTriangle:
    vertices: np.ndarray  # (3, 2): gamma_1, gamma_2, gamma_3
    alphas: Tuple[float, float, float]  # gamma_{i+1} - gamma_i = alphas[i] * n_i
    normals: np.ndarray   # (3, 2)


@dataclass(frozen=True)
class Inbody:
    scale: float          # optimal lambda of the growth LP
    shift: np.ndarray     # optimal translation u
    vertices: np.ndarray  # (3, 2): scale * gamma + shift
    t_faces: Tuple[Face, Face, Face]


def facet_triples(K: ConvexPolytope2) -> Iterator[Tuple[int, int, int]]:
    """Ordered triples of distinct facet indices up to cyclic rotation (the
    smallest index first); both orientations appear."""
    n = K.n
    for i in range(n):
        for j, k in itertools.permutations(range(i + 1, n), 2):
            yield i, j, k


def facet_triple_count(K: ConvexPolytope2) -> int:
    n = K.n
    return n * (n - 1) * (n - 2) // 3


def spanning_triples(K: ConvexPolytope2) -> np.ndarray:
    """The facet triples, in facet_triples order, whose normals build_gamma
    accepts; the same tests as build_gamma, decided for all triples at once."""
    tri = np.array(list(facet_triples(K)), int).reshape(-1, 3)
    ang = np.sort(np.array([math.atan2(y, x) for x, y in K.normals])[tri], axis=1)
    gaps = np.column_stack([ang[:, 1] - ang[:, 0], ang[:, 2] - ang[:, 1],
                            2 * math.pi - (ang[:, 2] - ang[:, 0])])
    n1, n2, n3 = (K.normals[tri[:, c]] for c in range(3))

    def cross(u, v):
        return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]

    # Cramer's rule for alpha_2 n2 + alpha_3 n3 = n1
    det = cross(n2, n3)
    solvable = np.abs(det) > EPS_GEO
    det = np.where(solvable, det, 1.0)
    ok = (solvable & (gaps.max(axis=1) < math.pi - EPS_ANG)
          & (cross(n1, n3) / det < -EPS_GEO) & (cross(n2, n1) / det < -EPS_GEO))
    return tri[ok]


def build_gamma(normals: Sequence) -> GammaTriangle:
    """Triangle with gamma_{i+1} - gamma_i = alpha_i n_i, all alpha_i < 0,
    normalized by alpha_1 = -1 and gamma_1 = 0."""
    n1, n2, n3 = (np.asarray(v, float) for v in normals)
    if not positively_spans([n1, n2, n3]):
        raise NotSpanning("facet normals do not positively span the plane")
    # alpha_2 n2 + alpha_3 n3 = n1 (closing the triangle with alpha_1 = -1)
    A = np.column_stack([n2, n3])
    det = float(np.linalg.det(A))
    if abs(det) <= EPS_GEO:
        raise NotSpanning("two of the normals are parallel")
    a2, a3 = np.linalg.solve(A, n1)
    if a2 >= -EPS_GEO or a3 >= -EPS_GEO:
        raise NotSpanning("no negatively oriented closing coefficients")
    g1 = np.zeros(2)
    g2 = g1 - n1           # alpha_1 = -1
    g3 = g2 + a2 * n2
    verts = np.array([g1, g2, g3])
    return GammaTriangle(verts, (-1.0, float(a2), float(a3)),
                         np.array([n1, n2, n3]))


def find_inbody(triangle: np.ndarray, T: ConvexPolytope2,
                tol: float = EPS_GEO) -> Inbody:
    """Largest positively scaled translate of the triangle inside T.  The
    optimum must put all three vertices on the boundary with contact normals
    positively spanning; otherwise the triangle admits no valid placement."""
    tri = np.asarray(triangle, float)
    # <a, lam * tri_k + u> <= b for k = 1..3 is one row per facet, since
    # lam >= 0 leaves only the largest <a, tri_k> binding
    sol = lpmod.solve(lpmod.LinearProgram(
        objective=np.array([1.0, 0.0, 0.0]),
        constraints=np.column_stack([(T.normals @ tri.T).max(axis=1), T.normals]),
        rhs=T.offsets, lower=np.array([0.0, -np.inf, -np.inf])))
    if sol.status != "optimal":
        raise NoInbody("DegenerateLp")
    lam = float(sol.x[0])
    u = sol.x[1:]
    if lam <= tol:
        raise NoInbody("DegenerateLp")
    verts = lam * tri + u
    faces = []
    for k in range(3):
        try:
            faces.append(find_face(T, verts[k], tol=1e-7))
        except GeometryError:
            raise NoInbody("NotOnBoundary")
    gens = []
    for f in faces:
        gens.extend(normal_cone(T, f).generators)
    if not positively_spans(gens):
        raise NoInbody("HalfspaceViolation")
    return Inbody(lam, u, verts, tuple(faces))


def fit_family(K: ConvexPolytope2, T: ConvexPolytope2,
               triple: Tuple[int, int, int], t_faces: Tuple[Face, Face, Face]
               ) -> Tuple[np.ndarray, np.ndarray]:
    """The ends of the family of q vertices, q_r on facet triple[r] of K,
    with q_{r+1} - q_r in the normal cone of T at t_faces[r]: the solutions
    minimizing and maximizing sum(t).  FitRejected if there are none."""
    q = []
    for r, fi in enumerate(triple):
        a, b = K.facet_segment(fi)
        M = np.zeros((2, 3))
        M[:, r] = b - a
        q.append(_Affine(a, M))
    rows = []
    for r in range(3):
        _cone_rows(rows, q[(r + 1) % 3] - q[r], normal_cone(T, t_faces[r]))
    ones = np.ones(3)
    try:
        low = _solve_rows(rows, -ones, ones)
        if low.status != "optimal":
            raise FitRejected(low.status)
        high = _solve_rows(rows, ones, ones)
    except lpmod.NumericalFailure:
        raise FitRejected("numerical")
    return (np.array([e.at(low.x) for e in q]),
            np.array([e.at(high.x) for e in q]))


def fit_to_k(K: ConvexPolytope2, T: ConvexPolytope2,
             triple: Tuple[int, int, int],
             t_faces: Tuple[Face, Face, Face]) -> np.ndarray:
    """The centre of fit_family, see step 4 of the module docstring."""
    low, high = fit_family(K, T, triple, t_faces)
    return 0.5 * (low + high)


def search_three_bounce(K: ConvexPolytope2,
                        T: ConvexPolytope2) -> List[BilliardPair]:
    """All certified regular 3-bounce pairs over the facet triples of K that
    pass the spanning test."""
    found: List[BilliardPair] = []
    for triple in spanning_triples(K).tolist():
        found.extend(solve_facet_triple(K, T, tuple(triple)))
    return sort_pairs(dedupe(found))


def solve_facet_triple(K: ConvexPolytope2, T: ConvexPolytope2,
                       triple: Tuple[int, int, int]) -> List[BilliardPair]:
    try:
        gamma = build_gamma(K.normals[list(triple)])
        inbody = find_inbody(gamma.vertices, T)
        # p_j is the inbody vertex fed by facet j+1 of the triple
        p = np.roll(inbody.vertices, -1, axis=0)
        t_faces = inbody.t_faces[1:] + inbody.t_faces[:1]
        q = fit_to_k(K, T, triple, t_faces)
    except (NotSpanning, NoInbody, FitRejected):
        return []
    k_faces = tuple(Face.edge(i) for i in triple)
    pair = certified_pair(K, T, make_pair(K, T, q, p, k_faces, t_faces))
    return [] if pair is None else [pair]
