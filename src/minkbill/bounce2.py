"""Search for closed 2-bounce trajectories.

A 2-bounce pair is pinned down by a face tuple (F1, F2) of K (carrying q1,
q2) and (G1, G2) of T (carrying p1, p2).  After the antipodality pre-filter
on the normal cones, the reflection law is linear in the remaining unknowns,
so each surviving tuple reduces to (at most) one small feasibility LP:

* both F's are vertices and both G's are vertices: nothing is free, check
  the cone conditions directly;
* both F's are vertices, some G is a facet: q is fixed, solve for p;
* both G's are vertices, some F is a facet: p is fixed, solve for q
  (the previous case with the roles of the bodies swapped).

With a facet on both sides, q and p are solved for together.  An LP has
one variable in [0, 1] per facet, placing the point on it, and asks each
difference of a side with a facet to lie in its cone: q2 - q1 in N_T(G1),
q1 - q2 in N_T(G2), p2 - p1 in -N_K(F2) and p1 - p2 in -N_K(F1).  The ray
of a facet gives one equality and one inequality row, the wedge of a
vertex two inequality rows (_cone_rows).  A side with no facet is fixed,
and its cones are checked directly.

The search works on all tuples of one (K, T) at once.  The antipodal face
pairs of each body, the cone pre-checks of the fixed cases and the LP rows
are built as arrays, one group of tuples with the same vertex/facet
pattern (and so the same LP shape) at a time; the LPs are solved one by
one, and the optimal members are certified in tuple order.  The 3-bounce
q-side fit uses the same rows (_cycle_rows) and LP assembly (_rows_lp).
``solve_face_tuple`` is the same pipeline on a batch of one tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from . import lp as lpmod
from .geom import (EPS_ANG, EPS_GEO, ConvexPolytope2, Face, all_faces,
                   cone_contains, face_cones, normal_cone)
from .pairs import BilliardPair, dedupe, make_pair, sort_pairs
from .verify import certified_pair


@dataclass
class SearchStats:
    tuples_after_filter: int = 0
    lp_solves: int = 0  # face-tuple LPs solved, one lp.solve each


def tuple_variable_count(f1: Face, f2: Face, g1: Face, g2: Face) -> int:
    """Number of LP variables solve_face_tuple uses for this face tuple: one
    per facet, the parameter of its point."""
    return sum(f.is_edge for f in (f1, f2, g1, g2))


def _antipodal_pairs(P: ConvexPolytope2) -> np.ndarray:
    """The pairs i < j of faces of P (indices into all_faces, in
    itertools.combinations order) whose normal cones are antipodal:
    geom.cones_intersect(cone_i, -cone_j), decided for all pairs at once."""
    cones = [normal_cone(P, f) for f in all_faces(P)]
    a1, w1 = np.array([c.angles() for c in cones]).T
    a2, w2 = np.array([c.negate().angles() for c in cones]).T
    i, j = np.triu_indices(len(cones), 1)
    d12 = (a2[j] - a1[i]) % (2 * np.pi)
    d21 = (a1[i] - a2[j]) % (2 * np.pi)
    ok = (d12 <= w1[i] + EPS_ANG) | (d21 <= w2[j] + EPS_ANG)
    return np.column_stack([i[ok], j[ok]])


class _Affine:
    """A stack of affine 2-vectors c[k] + M[k] @ x in the LP variables:
    c is (B, 2), M is (B, 2, nv)."""

    def __init__(self, c, M):
        self.c = np.asarray(c, float)
        self.M = np.asarray(M, float)

    def __sub__(self, other):
        return _Affine(self.c - other.c, self.M - other.M)

    def cross_with(self, g):
        """cross(g, expr) as (rows, consts): g_x*e_y - g_y*e_x."""
        row = g[:, 0, None] * self.M[:, 1] - g[:, 1, None] * self.M[:, 0]
        const = g[:, 0] * self.c[:, 1] - g[:, 1] * self.c[:, 0]
        return row, const

    def dot_with(self, g):
        row = g[:, 0, None] * self.M[:, 0] + g[:, 1, None] * self.M[:, 1]
        const = g[:, 0] * self.c[:, 0] + g[:, 1] * self.c[:, 1]
        return row, const

    def at(self, x):
        """The points c + M @ x at x (..., B, nv)."""
        return self.c + np.matmul(self.M, x[..., None])[..., 0]


def _point(P: ConvexPolytope2, is_edge: bool, idx: np.ndarray, col: int,
           nv: int) -> _Affine:
    """The points on faces idx of P, all vertices or all facets: a vertex is
    constant, a facet [a, b] is a + x[col] (b - a)."""
    base = P.vertices[idx]
    M = np.zeros((len(idx), 2, nv))
    if is_edge:
        M[:, :, col] = P.vertices[(idx + 1) % P.n] - base
    return _Affine(base, M)


def _cone_rows(rows, expr: _Affine, cone) -> None:
    """Append (coefficients, bounds, is_equality) rows expressing expr in
    the stacked cone (width < pi) for every member: a ray pins expr to its
    line exactly, a wedge bounds it by its two generators, each inequality
    with slack EPS_GEO."""
    g = cone.generators
    if cone.is_ray:
        row, const = expr.cross_with(g[0])    # cross(g, v) == 0
        rows.append((row, -const, True))
        row, const = expr.dot_with(g[0])      # <g, v> >= 0
        rows.append((-row, EPS_GEO + const, False))
    else:
        row, const = expr.cross_with(g[0])    # cross(g1, v) >= 0
        rows.append((-row, EPS_GEO + const, False))
        row, const = expr.cross_with(g[1])    # cross(v, g2) >= 0
        rows.append((row, EPS_GEO - const, False))


def _cycle_rows(rows, points, cones) -> None:
    """_cone_rows asking edge r of the closed polygon through points,
    points[r + 1] - points[r], to lie in cones[r]."""
    for r, cone in enumerate(cones):
        _cone_rows(rows, points[(r + 1) % len(points)] - points[r], cone)


def _rows_lp(rows, objective) -> lpmod.LinearProgram:
    """The (B, m, nv) stack maximizing objective @ x over the rows, with
    every variable, the parameter of a point on a facet, in [0, 1]."""
    nv = len(objective)
    return lpmod.LinearProgram(
        np.asarray(objective, float), np.stack([r for r, _, _ in rows], 1),
        np.stack([b for _, b, _ in rows], 1),
        np.array([e for _, _, e in rows]), np.zeros(nv), np.ones(nv))


def _solve_tuples(K: ConvexPolytope2, T: ConvexPolytope2, tuples: np.ndarray,
                  objective: Optional[np.ndarray] = None,
                  stats: Optional[SearchStats] = None
                  ) -> List[Optional[BilliardPair]]:
    """The certified pair, or None, of each face tuple: tuples is (N, 4),
    the faces f1, f2, g1, g2 as indices into all_faces of K and of T.  The
    rows of all tuples with the same vertex/facet pattern (one LP shape)
    are built at once."""
    sizes = np.array([K.n, K.n, T.n, T.n])
    tuples = np.asarray(tuples, int).reshape(-1, 4)
    edge, idx = tuples >= sizes, tuples % sizes
    pattern = edge @ np.array([8, 4, 2, 1])
    qp = np.zeros((len(tuples), 4, 2))  # q1, q2, p1, p2 of each tuple
    ok = np.zeros(len(tuples), bool)
    for pat in np.flatnonzero(np.bincount(pattern)):
        sel = np.nonzero(pattern == pat)[0]
        flags = [bool(v) for v in edge[sel[0]]]
        e1, e2, h1, h2 = flags
        # one LP variable per facet, in the order q1, q2, p1, p2
        cols = np.cumsum([0] + flags)[:4]
        nv = int(sum(flags))
        faces = list(zip((K, K, T, T), flags, idx[sel].T))
        points = [_point(P, e, i, col, nv)
                  for (P, e, i), col in zip(faces, cols)]
        normal = [face_cones(*face) for face in faces]
        # each side is a closed 2-gon whose edge r lies in cones[r], free if
        # it has a facet; p2 - p1 in -N_K(f2) is p1 - p2 in N_K(f2)
        sides = [(points[:2], normal[2:], e1 or e2),
                 ((points[3], points[2]), (normal[1], normal[0]), h1 or h2)]
        keep = np.ones(len(sel), bool)
        rows = []
        for (a, b), cones, free in sides:
            if free:
                _cycle_rows(rows, (a, b), cones)
            else:
                d = b.c - a.c
                keep &= cone_contains(cones[0], d) & cone_contains(cones[1], -d)
        x = np.zeros((len(sel), nv))
        if rows:
            obj = np.zeros(nv) if objective is None else np.asarray(objective, float)
            if obj.shape != (nv,):
                raise ValueError(f"objective must have {nv} entries for this tuple")
            stack = _rows_lp(rows, obj)
            if stats is not None:
                stats.lp_solves += int(keep.sum())
            # one LP at a time: lp.solve_stack on the whole group takes a
            # fifth of the time, but then a small instance's 2-bounce time
            # follows its few certified pairs rather than its LP count, and
            # acceptance criterion 10 compares that time between instances
            # of swapped sizes
            for k in np.flatnonzero(keep):
                member = replace(stack, constraints=stack.constraints[k],
                                 rhs=stack.rhs[k])
                try:
                    sol = lpmod.solve(member)
                except lpmod.NumericalFailure:
                    keep[k] = False
                    continue
                keep[k] = sol.status == "optimal"
                if keep[k]:
                    x[k] = sol.x
        ok[sel] = keep
        qp[sel] = np.stack([e.at(x) for e in points], 1)
    found: List[Optional[BilliardPair]] = [None] * len(tuples)
    for k in np.nonzero(ok)[0]:
        f1, f2, g1, g2 = (Face.edge(int(i)) if e else Face.vertex(int(i))
                          for e, i in zip(edge[k], idx[k]))
        found[k] = certified_pair(K, T, make_pair(K, T, qp[k, :2], qp[k, 2:],
                                                  (f1, f2), (g1, g2)))
    return found


def solve_face_tuple(K: ConvexPolytope2, T: ConvexPolytope2,
                     f1: Face, f2: Face, g1: Face, g2: Face,
                     objective: Optional[np.ndarray] = None
                     ) -> Optional[BilliardPair]:
    """Solve the reflection law on one face tuple (the search's pipeline on
    a batch of one); None if infeasible or degenerate (a tuple that is not
    antipodal never passes the LP and the certificate, so the search filters
    those only to save work).  `objective` perturbs the (otherwise zero) LP
    objective and may pick a different optimal vertex of the same feasible
    region."""
    ids = [f.index + (P.n if f.is_edge else 0)
           for f, P in zip((f1, f2, g1, g2), (K, K, T, T))]
    return _solve_tuples(K, T, np.array([ids]), objective)[0]


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
    k_pairs = _antipodal_pairs(K)
    t_pairs = _antipodal_pairs(T)
    # each K pair with each T pair in both orientations, in that order
    t_both = np.stack([t_pairs, t_pairs[:, ::-1]], 1).reshape(-1, 2)
    tuples = np.concatenate([np.repeat(k_pairs, len(t_both), 0),
                             np.tile(t_both, (len(k_pairs), 1))], 1)
    stats.tuples_after_filter += len(tuples)
    found = [prefer_smooth(K, T, pair)
             for pair in _solve_tuples(K, T, tuples, stats=stats)
             if pair is not None]
    return sort_pairs(dedupe(found))
