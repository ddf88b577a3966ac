"""Search for regular closed 3-bounce trajectories.

Pipeline, per ordered facet triple of K with positively spanning normals:

1. build the dual triangle gamma whose edges run along the facet normals
   (gamma is unique up to translation and positive scaling once the first
   coefficient is fixed);
2. grow gamma inside T as far as possible (an LP over scaling and
   translation); the optimal placement is the candidate dual trajectory and
   must touch the boundary of T at all three vertices with contact normals
   not contained in any closed halfplane;
3. pick unit normals of T at the three contact faces (facets contribute
   their normal, vertices a sampled fan of their normal cone including both
   extreme rays), build the primal triangle xi with edges along those
   normals, and scale/translate xi onto the three chosen facets of K by
   solving a 3x3 linear system;
4. keep the result if the scaling is positive and every vertex lands on its
   (closed) facet; certify independently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import lp as lpmod
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


@dataclass(frozen=True)
class XiTriangle:
    vertices: np.ndarray  # (3, 2)
    betas: Tuple[float, float, float]  # xi_{i+1} - xi_i = betas[i+1] * n_{i+1}
    normals: np.ndarray


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


def dual_normal_choices(inbody: Inbody, T: ConvexPolytope2,
                        samples: int = 8) -> List[np.ndarray]:
    """Unit normals of T available at each contact face: a facet contributes
    its outer normal, a vertex a fan across its normal cone (both extreme
    rays included)."""
    per_vertex = []
    for f in inbody.t_faces:
        cone = normal_cone(T, f)
        if cone.is_ray:
            per_vertex.append([cone.generators[0]])
            continue
        a0, width = cone.angles()
        count = max(2, samples)
        angs = a0 + width * np.linspace(0.0, 1.0, count)
        per_vertex.append([np.array([math.cos(a), math.sin(a)]) for a in angs])
    out = []
    for combo in itertools.product(*per_vertex):
        out.append(np.array(combo))
    return out


def build_xi(normals: np.ndarray) -> XiTriangle:
    """Triangle with xi_{i+1} - xi_i = beta_{i+1} n_{i+1}, all beta_i > 0,
    normalized by beta_1 = 1 and xi_1 = 0."""
    n1, n2, n3 = normals
    A = np.column_stack([n2, n3])
    det = float(np.linalg.det(A))
    if abs(det) <= EPS_GEO:
        raise NotSpanning("two of the dual normals are parallel")
    # beta_2 n2 + beta_3 n3 = -n1 closes the triangle with beta_1 = 1
    b2, b3 = np.linalg.solve(A, -n1)
    if b2 <= EPS_GEO or b3 <= EPS_GEO:
        raise NotSpanning("no positively oriented closing coefficients")
    x1 = np.zeros(2)
    x2 = x1 + b2 * n2      # xi_2 - xi_1 = beta_2 n_2
    x3 = x2 + b3 * n3
    verts = np.array([x1, x2, x3])
    return XiTriangle(verts, (1.0, float(b2), float(b3)),
                      np.asarray(normals, float))


def fit_to_k(xi: XiTriangle, K: ConvexPolytope2,
             facets: Tuple[int, int, int]) -> np.ndarray:
    """Scale mu > 0 and shift e with mu*xi_i + e on facet i of K for all
    three facets; returns the fitted q vertices."""
    A = np.zeros((3, 3))
    b = np.zeros(3)
    for r, fi in enumerate(facets):
        a = K.normals[fi]
        A[r, 0] = float(a @ xi.vertices[r])
        A[r, 1:] = a
        b[r] = K.offsets[fi]
    det = float(np.linalg.det(A))
    if abs(det) <= 1e-12:
        raise FitRejected("singular")
    mu, e1, e2 = np.linalg.solve(A, b)
    if mu <= EPS_GEO:
        raise FitRejected("mu_nonpositive")
    q = mu * xi.vertices + np.array([e1, e2])
    for r, fi in enumerate(facets):
        a, bseg = K.facet_segment(fi)
        d = bseg - a
        L2 = float(d @ d)
        t = float((q[r] - a) @ d) / L2
        if t < -1e-9 or t > 1 + 1e-9:
            raise FitRejected("off_facet")
    return q


def search_three_bounce(K: ConvexPolytope2, T: ConvexPolytope2,
                        samples: int = 8) -> List[BilliardPair]:
    """All certified regular 3-bounce pairs over the facet triples of K that
    pass the spanning test."""
    found: List[BilliardPair] = []
    for triple in spanning_triples(K).tolist():
        found.extend(solve_facet_triple(K, T, tuple(triple), samples=samples))
    return sort_pairs(dedupe(found))


def solve_facet_triple(K: ConvexPolytope2, T: ConvexPolytope2,
                       triple: Tuple[int, int, int],
                       samples: int = 8) -> List[BilliardPair]:
    ns = K.normals[list(triple)]
    try:
        gamma = build_gamma(ns)
        inbody = find_inbody(gamma.vertices, T)
    except (NotSpanning, NoInbody):
        return []
    out = []
    for duals in dual_normal_choices(inbody, T, samples=samples):
        try:
            xi = build_xi(duals)
            q = fit_to_k(xi, K, triple)
        except (NotSpanning, FitRejected):
            continue
        # p_j is the inbody vertex fed by facet j+1 of the triple
        p = np.roll(inbody.vertices, -1, axis=0)
        t_faces = tuple(inbody.t_faces[(j + 1) % 3] for j in range(3))
        k_faces = tuple(Face.edge(i) for i in triple)
        pair = certified_pair(K, T, make_pair(K, T, q, p, k_faces, t_faces))
        if pair is not None:
            out.append(pair)
    return dedupe(out)
