"""Search for closed 2-bounce trajectories.

A 2-bounce pair is pinned down by a face tuple (F1, F2) of K (carrying q1,
q2) and (G1, G2) of T (carrying p1, p2).  After the antipodality pre-filter
on the normal cones, the reflection law is linear in the remaining unknowns,
so each surviving tuple reduces to (at most) one small feasibility LP:

* both F's are vertices and both G's are vertices: nothing is free, check
  the cone conditions directly;
* both F's are vertices, some G is a facet: q is fixed, solve for p;
* both G's are vertices, some F is a facet: p is fixed, solve for q
  (the previous case with the roles of the bodies swapped);
* a facet on both sides: solve for q, p and the two cone multipliers
  simultaneously, pinning each difference to the one-dimensional normal
  cone of a facet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import lp as lpmod
from .geom import (EPS_GEO, ConvexPolytope2, Face, all_faces, cone_contains,
                   cones_intersect, normal_cone)
from .pairs import BilliardPair, dedupe, make_pair, sort_pairs
from .verify import certified_pair


@dataclass
class SearchStats:
    tuples_considered: int = 0
    tuples_after_filter: int = 0
    lp_solves: int = 0
    candidates: int = 0


def two_bounce_tuple_count(K: ConvexPolytope2, T: ConvexPolytope2) -> int:
    """Closed form for the number of face tuples the search ranges over:
    unordered face pairs on each body, combined."""
    def pairs(n_faces: int) -> int:
        return n_faces * (n_faces - 1) // 2
    return pairs(2 * K.n) * pairs(2 * T.n)


def tuple_variable_count(f1: Face, f2: Face, g1: Face, g2: Face) -> int:
    """Number of LP variables solve_face_tuple uses for this face tuple."""
    params = sum(f.is_edge for f in (f1, f2, g1, g2))
    mixed = (f1.is_edge or f2.is_edge) and (g1.is_edge or g2.is_edge)
    return params + (2 if mixed else 0)


def _antipodal_pairs(P: ConvexPolytope2) -> List[Tuple[Face, Face]]:
    faces = all_faces(P)
    cones = [normal_cone(P, f) for f in faces]
    out = []
    for (i, f1), (j, f2) in itertools.combinations(enumerate(faces), 2):
        if cones_intersect(cones[i], cones[j].negate()):
            out.append((f1, f2))
    return out


def _face_point(P: ConvexPolytope2, f: Face):
    """(base, direction or None): constant point for a vertex, a unit-interval
    parametrization for a facet."""
    if f.kind == "vertex":
        return P.vertices[f.index], None
    a, b = P.facet_segment(f.index)
    return a, b - a


class _Affine:
    """Affine 2-vector c + M x in the LP variables."""

    def __init__(self, c, M):
        self.c = np.asarray(c, float)
        self.M = np.asarray(M, float)

    def __sub__(self, other):
        return _Affine(self.c - other.c, self.M - other.M)

    def cross_with(self, g):
        """cross(g, expr) as (row, const): g_x*e_y - g_y*e_x."""
        row = g[0] * self.M[1] - g[1] * self.M[0]
        const = g[0] * self.c[1] - g[1] * self.c[0]
        return row, const

    def dot_with(self, g):
        row = g[0] * self.M[0] + g[1] * self.M[1]
        const = g[0] * self.c[0] + g[1] * self.c[1]
        return row, const

    def at(self, x):
        return self.c + self.M @ x


def _cone_rows(rows, expr: _Affine, cone, slack: float = EPS_GEO) -> None:
    """Append (coefficients, bound, is_equality) rows expressing expr in cone
    (cone width < pi): a ray pins expr to its line exactly, a wedge bounds it
    by its two generators."""
    g = cone.generators
    if len(g) == 1:
        row, const = expr.cross_with(g[0])       # cross(g, v) == 0
        rows.append((row, -const, True))
        row, const = expr.dot_with(g[0])         # <g, v> >= 0
        rows.append((-row, slack + const, False))
    else:
        row, const = expr.cross_with(g[0])       # cross(g1, v) >= 0
        rows.append((-row, slack + const, False))
        row, const = expr.cross_with(g[1])       # cross(v, g2) >= 0
        rows.append((row, slack - const, False))


def _solve_rows(rows, objective, upper) -> lpmod.LpSolution:
    """Solve objective @ x over the rows of _cone_rows, 0 <= x <= upper."""
    return lpmod.solve(lpmod.LinearProgram(
        np.asarray(objective, float), np.array([r for r, _, _ in rows]),
        np.array([b for _, b, _ in rows]), np.array([e for _, _, e in rows]),
        np.zeros(len(upper)), upper))


def solve_face_tuple(K: ConvexPolytope2, T: ConvexPolytope2,
                     f1: Face, f2: Face, g1: Face, g2: Face,
                     objective: Optional[np.ndarray] = None,
                     stats: Optional[SearchStats] = None
                     ) -> Optional[BilliardPair]:
    """Solve the reflection law on one face tuple; None if infeasible or
    degenerate (a tuple that is not antipodal never passes the LP and the
    certificate, so the search filters those only to save work).
    `objective` perturbs the (otherwise zero) LP objective and
    may pick a different optimal vertex of the same feasible region."""
    ck1, ck2 = normal_cone(K, f1), normal_cone(K, f2)
    ct1, ct2 = normal_cone(T, g1), normal_cone(T, g2)

    f_fixed = f1.kind == "vertex" and f2.kind == "vertex"
    g_fixed = g1.kind == "vertex" and g2.kind == "vertex"
    q1b, q1d = _face_point(K, f1)
    q2b, q2d = _face_point(K, f2)
    p1b, p1d = _face_point(T, g1)
    p2b, p2d = _face_point(T, g2)

    if f_fixed and g_fixed:
        dq = q2b - q1b
        dp = p2b - p1b
        if not (cone_contains(ct1, dq) and cone_contains(ct2, -dq)
                and cone_contains(ck2, -dp) and cone_contains(ck1, dp)):
            return None
        return certified_pair(K, T, make_pair(K, T, [q1b, q2b], [p1b, p2b],
                                              (f1, f2), (g1, g2)))

    # lay out LP variables: one parameter per facet endpoint, then the two
    # cone multipliers for the mixed case
    layout = {}
    nv = 0
    for name, d in (("q1", q1d), ("q2", q2d), ("p1", p1d), ("p2", p2d)):
        if d is not None:
            layout[name] = nv
            nv += 1
    mixed = not f_fixed and not g_fixed
    if mixed:
        layout["a1"] = nv
        layout["a2"] = nv + 1
        nv += 2

    def affine(name, base, d):
        M = np.zeros((2, nv))
        if d is not None:
            M[:, layout[name]] = d
        return _Affine(base, M)

    q1 = affine("q1", q1b, q1d)
    q2 = affine("q2", q2b, q2d)
    p1 = affine("p1", p1b, p1d)
    p2 = affine("p2", p2b, p2d)

    rows: List[Tuple[np.ndarray, float, bool]] = []
    if f_fixed:
        dq = q2b - q1b
        if not (cone_contains(ct1, dq) and cone_contains(ct2, -dq)):
            return None
        _cone_rows(rows, p2 - p1, ck2.negate())
        _cone_rows(rows, p1 - p2, ck1.negate())
    elif g_fixed:
        dp = p2b - p1b
        if not (cone_contains(ck2, -dp) and cone_contains(ck1, dp)):
            return None
        _cone_rows(rows, q2 - q1, ct1)
        _cone_rows(rows, q1 - q2, ct2)
    else:
        # pin q2-q1 to the facet normal available on the T side and p2-p1 to
        # the one on the K side
        if g1.is_edge:
            w_expr, w = q2 - q1, T.normals[g1.index]
        else:
            w_expr, w = q1 - q2, T.normals[g2.index]
        if f2.is_edge:
            u_expr, u = p2 - p1, -K.normals[f2.index]
        else:
            u_expr, u = p1 - p2, -K.normals[f1.index]
        for coord in range(2):
            row = w_expr.M[coord].copy()
            row[layout["a1"]] -= w[coord]
            rows.append((row, -w_expr.c[coord], True))
            row = u_expr.M[coord].copy()
            row[layout["a2"]] -= u[coord]
            rows.append((row, -u_expr.c[coord], True))
        # a vertex on either side still constrains the difference to its cone
        if not g1.is_edge:
            _cone_rows(rows, q2 - q1, ct1)
        if not g2.is_edge:
            _cone_rows(rows, q1 - q2, ct2)
        if not f2.is_edge:
            _cone_rows(rows, p2 - p1, ck2.negate())
        if not f1.is_edge:
            _cone_rows(rows, p1 - p2, ck1.negate())

    upper = np.ones(nv)
    if mixed:
        upper[[layout["a1"], layout["a2"]]] = np.inf
    obj = np.zeros(nv) if objective is None else np.asarray(objective, float)
    if obj.shape != (nv,):
        raise ValueError(f"objective must have {nv} entries for this tuple")
    if stats is not None:
        stats.lp_solves += 1
    try:
        sol = _solve_rows(rows, obj, upper)
    except lpmod.NumericalFailure:
        return None
    if sol.status != "optimal":
        return None
    x = sol.x
    return certified_pair(K, T, make_pair(K, T, [q1.at(x), q2.at(x)],
                                          [p1.at(x), p2.at(x)],
                                          (f1, f2), (g1, g2)))


def prefer_smooth(K: ConvexPolytope2, T: ConvexPolytope2,
                  pair: BilliardPair) -> BilliardPair:
    """If both bouncing points sit on facets of K but one of them is at a
    facet endpoint, try to slide the chord into the relative interiors of
    both facets (the length is unchanged along the way)."""
    f1, f2 = pair.k_faces
    if not (f1.is_edge and f2.is_edge):
        return pair
    q1, q2 = pair.q.vertices
    a1, b1 = K.facet_segment(f1.index)
    a2, b2 = K.facet_segment(f2.index)
    d1 = b1 - a1
    d2 = b2 - a2
    L1 = float(np.hypot(*d1))
    e1 = d1 / L1
    s1 = float((q1 - a1) @ e1)
    # facets with antipodal normals are parallel; express q2's slack along e1
    sgn = 1.0 if float(d2 @ e1) > 0 else -1.0
    L2 = float(np.hypot(*d2))
    s2 = float((q2 - a2) @ (d2 / L2))
    margin = min(L1, L2) * 1e-6
    if min(s1, L1 - s1) > margin and min(s2, L2 - s2) > margin:
        return pair
    # translate q by t*e1: q1 stays on facet 1 for t in [-s1, L1-s1], q2 for
    # sgn*t in [-s2, L2-s2]
    lo = max(-s1, (-s2 if sgn > 0 else s2 - L2))
    hi = min(L1 - s1, (L2 - s2 if sgn > 0 else s2))
    if hi - lo <= 2 * margin:
        return pair
    t = 0.5 * (lo + hi)
    shifted = certified_pair(K, T, make_pair(
        K, T, [q1 + t * e1, q2 + t * e1], pair.p.vertices, pair.k_faces,
        pair.t_faces))
    return pair if shifted is None else shifted


def search_two_bounce(K: ConvexPolytope2, T: ConvexPolytope2,
                      stats: Optional[SearchStats] = None
                      ) -> List[BilliardPair]:
    """All certified 2-bounce pairs, deduplicated and sorted by length."""
    if stats is None:
        stats = SearchStats()
    stats.tuples_considered = two_bounce_tuple_count(K, T)
    k_pairs = _antipodal_pairs(K)
    t_pairs = _antipodal_pairs(T)
    found: List[BilliardPair] = []
    for f1, f2 in k_pairs:
        for g1, g2 in t_pairs:
            for gg1, gg2 in ((g1, g2), (g2, g1)):
                stats.tuples_after_filter += 1
                pair = solve_face_tuple(K, T, f1, f2, gg1, gg2, stats=stats)
                if pair is not None:
                    found.append(prefer_smooth(K, T, pair))
    stats.candidates = len(found)
    return sort_pairs(dedupe(found))
