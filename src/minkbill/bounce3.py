"""Search for regular closed 3-bounce trajectories.

Pipeline for one pair (K, T), over the ordered facet triples of K whose
normals positively span the plane (spanning_triples):

1. for all these triples at once, build the dual triangles gamma whose
   edges run along the facet normals (gamma is unique up to translation and
   positive scaling once the first coefficient is fixed);
2. grow every gamma inside T as far as possible: one LP over scaling and
   translation per triangle, all solved as one lockstep stack, since they
   share the normals and offsets of T and differ only in the support
   column.  The optimal placement is the candidate dual trajectory and must
   touch the boundary of T at all three vertices with contact normals not
   contained in any closed halfplane; contact faces and this spanning test
   are decided for the whole stack too;
3. for each surviving triple, with p fixed, the q-side is linear:
   q_i = a_i + t_i (b_i - a_i) runs over facet i of K for t in [0, 1]^3,
   and q_{i+1} - q_i must lie in the normal cone of T at the contact face
   of p_i (a ray for a facet of T, a wedge for a vertex).  One LP over the
   rows of the 2-bounce search (_cycle_rows, _rows_lp) decides whether
   such q exist; the survivors whose contacts are rays and wedges in the
   same places share its shape, and each such group is solved as one
   stack;
4. the feasible t form a convex family of constant length (p_{j-1} - p_j is
   parallel to the normal of facet j), so the centre of the family, the mean
   of the solutions minimizing and maximizing sum(t) (a second stack over
   the feasible members), is kept if it certifies independently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from . import lp as lpmod
from .bounce2 import _cycle_rows, _point, _rows_lp
from .geom import (EPS_ANG, EPS_GEO, ConvexPolytope2, Face, GeometryError,
                   angles, cross2, face_cones, find_faces, largest_gap)
from .pairs import BilliardPair, dedupe, make_pairs, sort_pairs
from .verify import certified_pairs


class NoInbody(GeometryError):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class FitRejected(GeometryError):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


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


def spanning_triples(K: ConvexPolytope2) -> np.ndarray:
    """The facet triples, in facet_triples order, that have a dual triangle:
    their normals positively span the plane, no two of them are parallel,
    and the closing coefficients of gamma_triangles are negative."""
    tri = np.array(list(facet_triples(K)), int).reshape(-1, 3)
    n1, n2, n3 = (K.normals[tri[:, c]] for c in range(3))
    # Cramer's rule for alpha_2 n2 + alpha_3 n3 = n1
    det = cross2(n2, n3)
    solvable = np.abs(det) > EPS_GEO
    det = np.where(solvable, det, 1.0)
    ok = (solvable & (largest_gap(angles(K.normals)[tri]) < math.pi - EPS_ANG)
          & (cross2(n1, n3) / det < -EPS_GEO) & (cross2(n2, n1) / det < -EPS_GEO))
    return tri[ok]


def gamma_triangles(K: ConvexPolytope2, triples: np.ndarray) -> np.ndarray:
    """The dual triangles of facet triples that spanning_triples accepts,
    (B, 3, 2): gamma_{i+1} - gamma_i = alpha_i n_i with all alpha_i < 0,
    normalized by alpha_1 = -1 and gamma_1 = 0."""
    triples = np.asarray(triples, int).reshape(-1, 3)
    n1, n2, n3 = (K.normals[triples[:, c]] for c in range(3))
    # alpha_2 n2 + alpha_3 n3 = n1 (closing the triangle with alpha_1 = -1)
    alpha = np.linalg.solve(np.stack([n2, n3], axis=-1), n1[:, :, None])
    g1 = np.zeros_like(n1)
    g2 = g1 - n1
    g3 = g2 + alpha[:, :1, 0] * n2
    return np.stack([g1, g2, g3], axis=1)


def find_inbody(triangles: np.ndarray, T: ConvexPolytope2
                ) -> List[Union[Inbody, NoInbody]]:
    """For each triangle of the (B, 3, 2) stack, the largest positively
    scaled translate inside T, or why there is none.  The optimum must put
    all three vertices on the boundary with contact normals positively
    spanning; otherwise the triangle admits no valid placement."""
    tri = np.asarray(triangles, float).reshape(-1, 3, 2)
    B, m = len(tri), T.n
    # <a, lam * tri_k + u> <= b for k = 1..3 is one row per facet, since
    # lam >= 0 leaves only the largest <a, tri_k> binding
    rows = np.empty((B, m, 3))
    rows[:, :, 0] = np.matmul(tri, T.normals.T).max(axis=1)
    rows[:, :, 1:] = T.normals
    status, x = lpmod.solve_stack(lpmod.LinearProgram(
        objective=np.array([1.0, 0.0, 0.0]), constraints=rows,
        rhs=T.offsets, lower=np.array([0.0, -np.inf, -np.inf])))
    reason = np.full(B, "", object)
    reason[status != "optimal"] = "DegenerateLp"
    reason[status == "numerical"] = "numerical"
    lam = x[:, 0]
    reason[(reason == "") & (lam <= EPS_GEO)] = "DegenerateLp"
    verts = lam[:, None, None] * tri + x[:, None, 1:]
    index, on_edge = find_faces(T, verts, tol=1e-7)
    index, on_edge = index.reshape(B, 3), on_edge.reshape(B, 3)
    reason[(reason == "") & (index < 0).any(axis=1)] = "NotOnBoundary"
    # the contact normals are normals of T: an edge contributes its own
    # (twice, which leaves the gaps unchanged), a vertex those of its edges
    ang = angles(T.normals)
    gap = largest_gap(np.concatenate(
        [ang[np.where(on_edge, index, index - 1)], ang[index]], axis=1))
    reason[(reason == "") & (gap >= math.pi - EPS_ANG)] = "HalfspaceViolation"
    return [NoInbody(str(reason[k])) if reason[k] else
            Inbody(float(lam[k]), x[k, 1:], verts[k],
                   tuple(Face.edge(int(i)) if e else Face.vertex(int(i))
                         for i, e in zip(index[k], on_edge[k])))
            for k in range(B)]


def _fit_stack(K: ConvexPolytope2, T: ConvexPolytope2, triples: np.ndarray,
               t_faces: List[Tuple[Face, Face, Face]]):
    """fit_family for many triples: the ends of each family (B, 3, 2) twice,
    and each triple's reject reason ("" where it fits).  The triples are
    grouped by which contacts are facets of T (a ray or a wedge per
    contact); each group solves its min sum(t) LPs as one stack, and the
    max sum(t) LPs of the feasible ones as another."""
    triples = np.asarray(triples, int).reshape(-1, 3)
    B = len(triples)
    faces = np.array([[(f.index, f.is_edge) for f in tf] for tf in t_faces], int)
    index, on_edge = faces.reshape(B, 3, 2).transpose(2, 0, 1)
    ends = np.zeros((2, B, 3, 2))
    reason = np.full(B, "", object)
    pattern = on_edge @ np.array([4, 2, 1])
    for pat in np.flatnonzero(np.bincount(pattern)):
        sel = np.nonzero(pattern == pat)[0]
        q = [_point(K, triples[sel, r], r, 3) for r in range(3)]
        rows = []
        _cycle_rows(rows, q, [face_cones(T, on_edge[sel[0], r], index[sel, r])
                              for r in range(3)])
        ones = np.ones(3)
        stack = _rows_lp(rows, -ones)
        x = np.zeros((2, len(sel), 3))
        status, x[0] = lpmod.solve_stack(stack)
        fits = status == "optimal"
        status[fits], x[1, fits] = lpmod.solve_stack(replace(
            stack, objective=ones, constraints=stack.constraints[fits],
            rhs=stack.rhs[fits]))
        ends[:, sel] = np.stack([e.at(x) for e in q], 2)
        reason[sel] = np.where(status == "optimal", "", status)
    return ends[0], ends[1], reason


def fit_family(K: ConvexPolytope2, T: ConvexPolytope2,
               triple: Tuple[int, int, int], t_faces: Tuple[Face, Face, Face]
               ) -> Tuple[np.ndarray, np.ndarray]:
    """The ends of the family of q vertices, q_r on facet triple[r] of K,
    with q_{r+1} - q_r in the normal cone of T at t_faces[r]: the solutions
    minimizing and maximizing sum(t).  FitRejected if there are none, or
    with reason "numerical" if an LP fails numerically."""
    [low], [high], [reason] = _fit_stack(K, T, [triple], [t_faces])
    if reason:
        raise FitRejected(reason)
    return low, high


def fit_to_k(K: ConvexPolytope2, T: ConvexPolytope2,
             triple: Tuple[int, int, int],
             t_faces: Tuple[Face, Face, Face]) -> np.ndarray:
    """The centre of fit_family, see step 4 of the module docstring."""
    low, high = fit_family(K, T, triple, t_faces)
    return 0.5 * (low + high)


def _solve_triples(K: ConvexPolytope2, T: ConvexPolytope2,
                   triples: np.ndarray, inbodies: List[Inbody]
                   ) -> List[Optional[BilliardPair]]:
    """The certified pair, or None, of each facet triple whose dual triangle
    has the inbody placement inbodies[k] in T; the q-side fits of all of
    them are solved as stacks."""
    # p_j is the inbody vertex fed by facet j+1 of the triple
    t_faces = [ib.t_faces[1:] + ib.t_faces[:1] for ib in inbodies]
    low, high, reason = _fit_stack(K, T, triples, t_faces)
    fits = np.flatnonzero(reason == "")
    p = np.array([inbodies[k].vertices for k in fits]).reshape(-1, 3, 2)
    found = np.full(len(t_faces), None, object)
    found[fits] = certified_pairs(K, T, make_pairs(
        K, T, 0.5 * (low[fits] + high[fits]),  # the centre, as fit_to_k
        np.roll(p, -1, axis=1),
        [tuple(Face.edge(i) for i in triple)
         for triple in np.asarray(triples).reshape(-1, 3)[fits].tolist()],
        [t_faces[k] for k in fits]))
    return list(found)


def search_three_bounce(K: ConvexPolytope2,
                        T: ConvexPolytope2) -> List[BilliardPair]:
    """All certified regular 3-bounce pairs over the facet triples of K that
    pass the spanning test."""
    triples = spanning_triples(K)
    inbodies = find_inbody(gamma_triangles(K, triples), T)
    keep = [k for k, ib in enumerate(inbodies) if isinstance(ib, Inbody)]
    found = _solve_triples(K, T, triples[keep], [inbodies[k] for k in keep])
    return sort_pairs(dedupe([pair for pair in found if pair is not None]))


def solve_facet_triple(K: ConvexPolytope2, T: ConvexPolytope2,
                       triple: Tuple[int, int, int],
                       inbody: Inbody) -> List[BilliardPair]:
    """The certified pair, if any, of a facet triple whose dual triangle
    has the inbody placement `inbody` in T (the search's pipeline on a
    batch of one)."""
    [pair] = _solve_triples(K, T, [triple], [inbody])
    return [] if pair is None else [pair]
