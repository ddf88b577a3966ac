"""Search for closed 2-bounce trajectories.

A 2-bounce pair is pinned down by a face tuple (F1, F2) of K (carrying q1,
q2) and (G1, G2) of T (carrying p1, p2).  After the antipodality pre-filter
on the normal cones, the reflection law is linear: each edge of a side, a
closed 2-gon, lies in a cone (_cycle_rows): q2 - q1 in N_T(G1), q1 - q2 in
N_T(G2), p2 - p1 in -N_K(F2), p1 - p2 in -N_K(F1).  The sides share no
variable, and each has at most one: a point on a facet [a, b] is
a + t (b - a), t in [0, 1], and both points of a side share its t.  Two
facets of one side have antipodal normals, so d2 = -rho d1 for their
directions, and the side's edge depends on t1 + rho t2 only, which one
shared t already sweeps.  Tables per body screen every side before any
tuple exists (_side_tables): a side with no facet is checked directly, one
with a facet by _chord_reach (exact, see there).  The sides left are one
lp.solve_interval stack, the feasible tuples one certified_pairs stack,
which the search deduplicates and sorts as the Pairs stack it returns;
solve_face_tuple returns the one-row stack of a single tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import lp as lpmod
from .geom import (EPS_ANG, EPS_CERT, EPS_GEO, ConvexPolytope2, Face, NormalConeRep,
                   cone_contains, cone_rows, cyclic, face_array, face_cones)
from .pairs import Pairs, dedupe, sort_pairs
from .verify import certified_pairs


@dataclass
class SearchStats:
    tuples_after_filter: int = 0
    side_solves: int = 0  # tuples left with a free side after the cone checks
    tuples_after_screen: int = 0  # tuples left by the chord screen (_side_tables)
    inbody_triples: int = 0  # 3-bounce triples left by bounce3's contact screen


def _antipodal_pairs(P: ConvexPolytope2) -> np.ndarray:
    """The pairs i < j of face ids of P (in itertools.combinations order)
    whose normal cones are antipodal: cone_i and -cone_j share a direction
    (up to EPS_ANG), decided for all pairs at once from the angles of the
    generators of all cones and of their negatives."""
    (a1, last1), (a2, last2) = P.face_table.angles[:, P.face_table.cone_index.T]
    w1, w2 = (last1 - a1) % (2 * np.pi), (last2 - a2) % (2 * np.pi)
    i, j = np.triu_indices(len(a1), 1)
    ok = (((a2[j] - a1[i]) % (2 * np.pi) <= w1[i] + EPS_ANG)
          | ((a1[i] - a2[j]) % (2 * np.pi) <= w2[j] + EPS_ANG))
    return np.column_stack([i[ok], j[ok]])


def _point(P: ConvexPolytope2, faces: np.ndarray, col: int, nv: int) -> np.ndarray:
    """The points a + x[col] (b - a) on the facets [a, b] of face ids faces,
    as affine maps of the LP variables x: (B, 1 + nv, 2), the constant
    first, then one coefficient per variable."""
    base, end = P.face_table.ends[faces].transpose(1, 0, 2)
    expr = np.zeros((len(faces), 1 + nv, 2))
    expr[:, 0], expr[:, 1 + col] = base, end - base
    return expr


def _cone_rows(expr: np.ndarray, cone):
    """The two rows (A (B, 2, nv), b (B, 2), is_equality (B, 2)) asking the
    affine map expr (_point's form) to lie in the stacked cone (width < pi),
    for every member: geom.cone_rows at expr, each >= -EPS_GEO, but at a ray
    cross(g0, v) == 0 exactly, and cross(v, g1), that row negated, is left
    out."""
    ray = cone.is_ray
    cross0, cross1, dot = cone_rows(cone, expr.transpose(1, 0, 2))  # each (1 + nv, B)
    second = np.where(ray, dot, cross1)
    b = np.stack([np.where(ray, -cross0[0], EPS_GEO + cross0[0]), EPS_GEO + second[0]], 1)
    eq = np.zeros(b.shape, bool)
    eq[:, 0] = ray
    return np.stack([np.where(ray, cross0, -cross0)[1:].T, -second[1:].T], 1), b, eq


def _chord_reach(P: ConvexPolytope2, Q: ConvexPolytope2, a, b) -> np.ndarray:
    """The screen of both searches, (2 m_Q, *shape) for face ids a, b of P
    of one ndim, broadcast to shape: whether each row of N_Q(F), at every
    face F of Q, reaches the floor at a corner chord from a to b.  The rows,
    geom.cone_rows, are linear: each is largest at b's ends less its least
    at a's, a facet's start moved back to t = -1e-9.  No accepted side
    misses the floor, -4 EPS_CERT less 16 eps max|end|_1 for rounding:
    lp.solve_interval holds the rows to EPS_GEO + 1e-8 at a t in
    [-1e-9, 1], in the moved corners; a fit's _violations re-check lets t go
    1.1e-9 below 0 and 3.1e-9 above 1, which the floor, not the start move,
    covers at unit scale (ROADMAP 1)."""
    start, stop = P.face_table.ends[P.n:].transpose(1, 0, 2)
    first = np.concatenate([start, start - 1e-9 * (stop - start)])  # each face's first end
    rows = cone_rows(Q.face_table.cones, first[:, None]).swapaxes(1, 2)  # (3, 2 m_Q, 2 n_P)
    last = np.concatenate([rows[..., :P.n], rows[..., cyclic(P.n)]], -1)  # at the last
    floor = -4 * EPS_CERT - 16 * np.finfo(float).eps * np.abs(first).sum(-1).max()
    return (np.maximum(rows, last)[:, :, b] - np.minimum(rows, last)[:, :, a] >= floor).all(0)


def _cycle_rows(points, cones):
    """The rows (A, b, is_equality) of _cone_rows asking edge r of the closed
    polygon through points, points[r + 1] - points[r], to lie in cones[r],
    rows 2 r and 2 r + 1."""
    return tuple(np.concatenate(rows, 1) for rows in zip(*(
        _cone_rows(points[(r + 1) % len(points)] - points[r], cone)
        for r, cone in enumerate(cones))))


# side s, the q side then the p side, is a closed 2-gon of the points a, b
# of q1, q2, p1, p2 whose edges b - a and a - b lie in the cones of faces c0
# and c1 (p2 - p1 in -N_K(f2): p1 - p2 in N_K(f2)); _A[s] is its a, and so on
_A, _B, _C0, _C1 = np.array([[0, 1, 2, 3], [3, 2, 1, 0]]).T


def _solve_tuples(K: ConvexPolytope2, T: ConvexPolytope2, tuples: np.ndarray,
                  objective: Optional[np.ndarray] = None) -> Pairs:
    """The stack of the certified pairs of face tuples, in tuple order:
    tuples is (N, 4), the face ids f1, f2 of K and g1, g2 of T, all decided
    and certified as stacks (see the module docstring)."""
    tuples = np.asarray(tuples, int).reshape(-1, 4)
    k_faces, t_faces = tuples[:, :2], tuples[:, 2:]
    # the point a + t (b - a) on each face (b = a at a vertex) and its normal cone
    base, end = np.concatenate([K.face_table.ends[k_faces], T.face_table.ends[t_faces]],
                               1).transpose(2, 0, 1, 3)
    step = end - base
    first, last, edge = (np.concatenate(v, 1) for v in zip(*(
        (*c.generators, c.is_ray) for c in (face_cones(K, k_faces), face_cones(T, t_faces)))))
    N = len(tuples)
    obj = np.zeros((N, 4))  # the objective's entry of each facet
    if objective is not None:
        if N != 1 or np.shape(objective) != (edge.sum(),):
            raise ValueError(f"objective must have {edge.sum()} entries for this tuple")
        obj[edge] = objective

    def cone(c, k=slice(None), s=slice(None)):  # the cones of faces c of sides s
        return NormalConeRep((first[k, c[s]], last[k, c[s]]), edge[k, c[s]])

    d = base[:, _B] - base[:, _A]  # (N, 2, 2): the edge of each side with no facet
    free = edge[:, _A] | edge[:, _B]
    keep = (free | (cone_contains(cone(_C0), d) & cone_contains(cone(_C1), -d))).all(1)
    # every side with a facet is an LP in its one variable t, all in one stack
    k, s = np.nonzero(free & keep[:, None])
    a, b = _A[s], _B[s]
    status, t = lpmod.solve_interval((obj[k, a] + obj[k, b])[:, None], *_cycle_rows(
        [np.stack([base[k, r], step[k, r]], 1) for r in (a, b)],
        (cone(_C0, k, s), cone(_C1, k, s))))
    keep[k[status != "optimal"]] = False
    qp = base.copy()  # q1, q2, p1, p2 of each tuple
    qp[k, a] += t * step[k, a]
    qp[k, b] += t * step[k, b]
    return certified_pairs(K, T, qp[keep, :2], qp[keep, 2:], k_faces[keep], t_faces[keep])


def solve_face_tuple(K: ConvexPolytope2, T: ConvexPolytope2,
                     f1: Face, f2: Face, g1: Face, g2: Face,
                     objective: Optional[np.ndarray] = None) -> Optional[Pairs]:
    """The search's pipeline on one face tuple: its one-row stack, or None
    if infeasible or degenerate (a tuple that is not antipodal never passes
    the LP and the certificate, so the search filters those only to save
    work).  `objective` (one entry per facet) perturbs the otherwise zero
    objective of each side's LP, by the sum of the entries of the side's
    facets, and may pick another point of the same interval."""
    tuples = np.concatenate([face_array(K, [(f1, f2)]), face_array(T, [(g1, g2)])], 1)
    found = _solve_tuples(K, T, tuples, objective)
    return found if len(found) else None


def prefer_smooth(K: ConvexPolytope2, T: ConvexPolytope2, pair: Pairs) -> Pairs:
    """If both bouncing points of the one-row stack pair sit on facets of K
    but one of them is at a facet endpoint, try to slide the chord into the
    relative interiors of both facets (the length is unchanged along the
    way), and return the certified stack of the slid pair; else pair
    itself.  The two facets of a search pair are antipodal, so their
    directions are antiparallel.  The search no longer calls it: it returns
    every search pair unchanged."""
    if not (pair.k_faces >= K.n).all():
        return pair
    q1, q2 = pair.q[0]
    (a1, b1), (a2, b2) = K.face_table.ends[pair.k_faces[0]]
    d1 = b1 - a1
    d2 = b2 - a2
    L1 = float(np.hypot(*d1))
    e1 = d1 / L1
    s1 = float((q1 - a1) @ e1)
    L2 = float(np.hypot(*d2))
    s2 = float((q2 - a2) @ (d2 / L2))
    margin = min(L1, L2) * 1e-6
    if min(s1, L1 - s1) > margin and min(s2, L2 - s2) > margin:
        return pair
    # translate q by t*e1: q1 stays on facet 1 for t in [-s1, L1-s1], q2 for
    # -t in [-s2, L2-s2]
    lo = max(-s1, s2 - L2)
    hi = min(L1 - s1, s2)
    if hi - lo <= 2 * margin:
        return pair
    t = 0.5 * (lo + hi)
    shifted = certified_pairs(K, T, pair.q + t * e1, pair.p, pair.k_faces, pair.t_faces)
    return shifted if len(shifted) else pair


def _side_tables(P: ConvexPolytope2, Q: ConvexPolytope2):
    """The antipodal face pairs (a, b) of P, whether a or b is a facet, and
    the screen's (pair, o, F): chord b - a (o = 0) or a - b in N_Q(F)."""
    pairs = _antipodal_pairs(P)
    free = (pairs >= P.n).any(1)[:, None, None]
    d = np.diff(P.face_table.ends[pairs, 0], axis=1)
    return pairs, free, np.where(
        free, np.moveaxis(_chord_reach(P, Q, pairs, pairs[:, ::-1]), 0, -1),
        cone_contains(Q.face_table.cones, np.stack([d, -d], 1)))


def search_two_bounce(K: ConvexPolytope2, T: ConvexPolytope2,
                      stats: Optional[SearchStats] = None) -> Pairs:
    """The stack of all certified 2-bounce pairs, deduplicated and sorted by
    length; stats counts the face tuples, side solves and screened tuples."""
    k_pairs, k_free, k_reach = _side_tables(K, T)
    t_pairs, t_free, t_reach = _side_tables(T, K)
    # each K pair with each T pair in both orientations, in that order
    t_both = np.stack([t_pairs, t_pairs[:, ::-1]], 1)

    def sides(k_table, t_table):  # (K pair, T pair, orientation): both sides pass
        return (k_table[:, 0][:, t_both[..., 0]] & k_table[:, 1][:, t_both[..., 1]]
                & (t_table[:, :, k_pairs[:, 0]] & t_table[:, ::-1, k_pairs[:, 1]]
                   ).transpose(2, 0, 1))
    k, t, o = np.nonzero(sides(k_reach, t_reach))
    if stats is not None:
        stats.tuples_after_filter += 2 * len(k_pairs) * len(t_pairs)
        stats.side_solves += int((sides(k_reach | k_free, t_reach | t_free)
                                  & (k_free | t_free[:, 0])).sum())
        stats.tuples_after_screen += len(k)
    return sort_pairs(dedupe(_solve_tuples(K, T, np.concatenate([k_pairs[k], t_both[t, o]], 1))))
