"""Search for regular closed 3-bounce trajectories.

Pipeline for one pair (K, T), over the ordered facet triples of K whose
normals positively span the plane (spanning_triples), all as arrays from
the triples to verify.certified_pairs, in one function (_solve_triples);
solve_facet_triple runs it on one triple.  The search builds the screen's
tables (_contact_tables) once and runs it on blocks of triples in order
(_blocks), at most _BLOCK elements each, a triple counting its m_T + 1
inbody LP rows.  No grid or oracle search is cut, and by the lp contract
the blocks change no pair (a random 80 x 80 pair: 31 blocks, traced peak
405 -> 28 MB).  Per block it calls find_inbody (step 2) and fit_to_k
(steps 3 and 4) once; each returns a reject reason per member ("" where
it passes) next to its values:

1. for all these triples at once, build the dual triangles gamma whose
   edges run along the facet normals (gamma is unique up to translation and
   positive scaling once the first coefficient is fixed);
2. grow every gamma inside T as far as possible: one LP in (lambda, u),
   max lambda s.t. lambda h_gamma(a_i) + <a_i, u> <= b_i over the facets
   of T, all solved as one lp.solve_dual3 stack.  Its start basis is three
   facets of T whose normals positively span: their dual weights are cross
   products, >= 0.  The optimal placement is the candidate dual trajectory
   and must touch the boundary of T at all three vertices with contact
   normals not contained in any closed halfplane.  A placement with a vertex
   farther than 2 tol (tol = 1e-7, the contact tolerance) from every facet
   line of T cannot touch, since find_faces places no point farther than
   tol from its face's line; these are dropped by their facet slacks, one
   product with the normals of T, and the contact faces (face ids of T)
   and the spanning test are decided for the placements left.  Before any
   LP, a triple is dropped if on a side (f, g) no face of T passes step 3's
   row test (the reach table) with its normal cone, up to a slack, in the
   wedge {u : <u, n_f> <= 0 <= <u, n_g>}, the cone of gamma at that vertex;
3. for each surviving triple, with p fixed, the q-side is linear:
   q_i = a_i + t_i (b_i - a_i) runs over facet i of K for t in [0, 1]^3,
   and q_{i+1} - q_i must lie in the normal cone of T at the contact face
   of p_i, by geom.cone_rows, the rows of the 2-bounce search
   (_cycle_rows).  The triples that the reach table keeps
   (bounce2._chord_reach from facet r to r + 1 of K) are fitted.
   Where p touches three edges of T, their rays' equalities fix t by one
   3x3 solve (solve_dual3's kernel), kept if it passes the LP's re-check:
   all 224 fits of the grid and oracle pools, where LP pairs took 11 % of a
   grid pass;
4. with a vertex contact (ngon's two fits) or a singular system, the
   feasible t form a convex family of constant length (p_{j-1} - p_j is
   parallel to the normal of facet j), and the fit is its centre, the mean
   of the LP solutions minimizing and maximizing sum(t).  The fits that
   certify independently are the block's Pairs stack; the search joins the
   blocks' stacks, deduplicates and sorts them.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import lp as lpmod
from .bounce2 import SearchStats, _chord_reach, _cycle_rows, _point
from .geom import (EPS_GEO, SPAN_GAP, ConvexPolytope2, cross2, cyclic, face_cones,
                   find_faces, largest_gap)
from .pairs import Pairs, dedupe, sort_pairs
from .verify import certified_pairs

_CONTACT_TOL = 1e-7  # find_faces' tolerance for the contacts of p with T
_SINGULAR = 1e-6  # a fit's 3x3 system is singular at |det| <= this Hadamard bound
_BLOCK = 1 << 19  # elements of one search block, m_T + 1 inbody LP rows per triple


def facet_triples(K: ConvexPolytope2, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
    """The ordered triples (N, 3) of distinct facet indices up to cyclic
    rotation (the smallest index first, from lo to below hi, K.n if None),
    in lexicographic order; both orientations appear."""
    hi = K.n if hi is None else hi
    i, j, k = np.ogrid[lo:hi, :K.n, :K.n]
    return np.argwhere((i < j) & (i < k) & (j != k)) + [lo, 0, 0]


def spanning_triples(K: ConvexPolytope2, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
    """The facet triples, in facet_triples order, whose normals positively
    span the plane: their largest angular gap is below SPAN_GAP.  Spanning
    implies that gamma_triangles' 2x2 system is non-singular (n2 and n3 are
    not parallel) and that its closing coefficients are negative, so each
    triple has a dual triangle."""
    tri = facet_triples(K, lo, hi)
    return tri[largest_gap(K.face_table.angles[0, tri]) < SPAN_GAP]


def gamma_triangles(K: ConvexPolytope2, triples: np.ndarray) -> np.ndarray:
    """The dual triangles of facet triples that spanning_triples accepts,
    (B, 3, 2): gamma_{i+1} - gamma_i = alpha_i n_i with all alpha_i < 0,
    normalized by alpha_1 = -1 and gamma_1 = 0.  The normals of a triple
    positively span, so the 2x2 system below is non-singular and its
    solution, the closing coefficients alpha_2 and alpha_3, is negative."""
    triples = np.asarray(triples, int).reshape(-1, 3)
    n1, n2, n3 = (K.normals[triples[:, c]] for c in range(3))
    # alpha_2 n2 + alpha_3 n3 = n1 (closing the triangle with alpha_1 = -1)
    alpha = np.linalg.solve(np.stack([n2, n3], axis=-1), n1[:, :, None])
    g1 = np.zeros_like(n1)
    g2 = g1 - n1
    g3 = g2 + alpha[:, :1, 0] * n2
    return np.stack([g1, g2, g3], axis=1)


def _contact_tables(K: ConvexPolytope2, T: ConvexPolytope2):
    """The screen's tables by face id F of T and facets f, g of K: reach
    (2 m_T, n_K, n_K), bounce2._chord_reach from f to g, and need (n_K, n_K),
    the least s with <nu, n_f> <= s and -<nu, n_g> <= s at the generators nu
    of some F with reach, times r / (tol + eps).  A contact within tol of F,
    of a gamma placed within eps at scale lambda >= r / e_max (r the
    inradius of T at its vertex mean), has s <= (tol + eps) / (lambda e_min)."""
    g0, g1 = T.face_table.cones.generators
    reach = _chord_reach(K, T, *np.ogrid[K.n:2 * K.n, K.n:2 * K.n])
    out, into = (np.maximum(g0 @ n.T, g1 @ n.T) for n in (K.normals, -K.normals))
    need = np.where(reach, np.maximum(out[:, :, None], into[:, None]), np.inf).min(0)
    # _violations' row tolerance is at most 1e-10 + 1e-9 (1 + 4 rho) for T
    # within rho of 0; eps spares 1e-9 (1 + rho) more for rounding
    eps = 1e-9 * (2 + 5 * np.hypot(*T.vertices.T).max())
    r = (T.offsets - T.normals @ T.vertices.mean(axis=0)).min()
    return reach, need * r / (_CONTACT_TOL + eps)


def find_inbody(triangles: np.ndarray, T: ConvexPolytope2):
    """The largest positively scaled translate inside T of each triangle of
    the (B, 3, 2) stack (step 2): each triangle's reject reason ("" where it
    is placed), the LP's (lambda, u) (B, 3), the placed vertices (B, 3, 2)
    and their contact face ids of T (B, 3), -1 where find_faces did not run.

    find_faces places a point only within tol of a vertex or an edge of T,
    and so within tol of that face's facet line (the unit normals make the
    slack |<n_i, v> - b_i| that distance).  A solved member with a vertex
    farther than 2 tol from every facet line is therefore NotOnBoundary
    before the contact-face sweep; the doubled bound leaves room for the
    rounding of both distances."""
    tri = np.asarray(triangles, float).reshape(-1, 3, 2)
    B, m = len(tri), T.n
    # <a, lam * tri_k + u> <= b for k = 1..3 is one row per facet, since
    # lam >= 0 leaves only the largest <a, tri_k> binding; the last row is
    # lam >= 0
    rows = np.zeros((B, m + 1, 3))
    rows[:, :m, 0] = np.matmul(tri, T.normals.T).max(axis=1)
    rows[:, :m, 1:] = T.normals
    rows[:, m, 0] = -1.0
    # facets 0, k - 1 and k, k the first normal at or past the antipode of
    # facet 0, positively span: their dual weights are cross products, >= 0
    k = 1 + int(np.argmax(cross2(T.normals[0], T.normals[1:]) <= 0))
    status, x = lpmod.solve_dual3(np.array([1.0, 0.0, 0.0]), rows,
                                  np.append(T.offsets, 0.0), [0, k - 1, k])
    lam = x[:, 0]
    solved = (status == "optimal") & (lam > EPS_GEO)
    verts = lam[:, None, None] * tri + x[:, None, 1:]
    slack = np.abs(verts @ T.normals.T - T.offsets).min(axis=2)  # (B, 3)
    swept = np.flatnonzero(solved & (slack <= 2 * _CONTACT_TOL).all(axis=1))
    faces = np.full((B, 3), -1)
    faces[swept] = find_faces(T, verts[swept], tol=_CONTACT_TOL).reshape(-1, 3)
    placed = (faces >= 0).all(axis=1)
    # the contact normals are the generators of the contact cones: an edge
    # contributes its own twice, which leaves the gaps unchanged
    spanning = placed.copy()
    spanning[placed] = largest_gap(T.face_table.angles[0, T.face_table.cone_index[
        faces[placed]]].reshape(-1, 6)) < SPAN_GAP
    reason = np.select(
        [status == "numerical", ~solved, ~placed, ~spanning],
        ["numerical", "DegenerateLp", "NotOnBoundary", "HalfspaceViolation"], "")
    return reason.astype(object), x, verts, faces


def fit_to_k(K: ConvexPolytope2, T: ConvexPolytope2, triples: np.ndarray,
             faces: np.ndarray):
    """The q of each triple (steps 3 and 4), q_r on facet triples[k, r] of
    K and p_r touching T at face id faces[k, r], (B, 3, 2), and each
    triple's reject reason ("" where it fits, "numerical" where an LP runs
    out of steps).  Of the 15 rows (a ray's equality also as the
    opposite inequality, a zero row for a wedge, and 0 <= t <= 1), three
    rays' equalities fix t by one lp._cofactors3 solve, which fits if it
    passes all 15 by lp._violations.  A vertex contact or a singular system
    takes the LP pair instead (step 4); the pairs of all such members, if
    any, are one solve_dual3 stack, each objective starting from the bounds
    it pushes on."""
    triples = np.asarray(triples, int).reshape(-1, 3)
    B = len(triples)
    q = [_point(K, K.n + triples[:, r], r, 3) for r in range(3)]
    rows, bounds, eq = _cycle_rows(q, [face_cones(T, faces[:, r]) for r in range(3)])
    coef, bound, ray = rows[:, ::2], bounds[:, ::2], eq[:, ::2]
    eye = np.broadcast_to(np.eye(3), (B, 3, 3))
    A = np.concatenate([rows, np.where(ray[..., None], -coef, 0.0), -eye, eye], 1)
    b = np.concatenate([bounds, np.where(ray, -bound, 0.0), np.zeros((B, 3)), np.ones((B, 3))], 1)
    inv, det = lpmod._cofactors3(coef)
    direct = ray.all(1) & (abs(det) > _SINGULAR * np.linalg.norm(coef, axis=2).prod(1))
    x = np.zeros((2, B, 3))
    x[:, direct] = (inv[direct] / det[direct, None, None] * bound[direct, :, None]).sum(1)
    reason = np.where(np.less_equal(*lpmod._violations(A, b, False, x[0])).all(1),
                      "optimal", "infeasible")  # read where direct
    lp = np.flatnonzero(~direct)
    if lp.size:
        status, ends = lpmod.solve_dual3(
            np.repeat([-1.0, 1.0], 3 * len(lp)).reshape(-1, 3), np.concatenate([A[lp], A[lp]]),
            np.concatenate([b[lp], b[lp]]), np.repeat([[9, 10, 11], [12, 13, 14]], len(lp), 0))
        status, x[:, lp] = status.reshape(2, -1), ends.reshape(2, -1, 3)
        reason[lp] = np.where(status[0] == "optimal", status[1], status[0])
    low, high = np.stack([e[:, 0] + x[..., r, None] * e[:, 1 + r] for r, e in enumerate(q)], 2)
    return 0.5 * (low + high), np.where(reason == "optimal", "", reason).astype(object)


def _solve_triples(K: ConvexPolytope2, T: ConvexPolytope2, triples: np.ndarray,
                   tables, stats: Optional[SearchStats] = None) -> Pairs:
    """The stack of the certified pairs, in triple order, of facet triples that
    spanning_triples accepts (steps 1 to 4): the dual triangles, the need
    screen, one find_inbody stack, the reach gather and one fit_to_k stack,
    by tables = _contact_tables(K, T); stats counts inbody LP triples."""
    triples = np.asarray(triples, int).reshape(-1, 3)
    tri = gamma_triangles(K, triples)
    reach, need = tables
    edges = np.linalg.norm(tri[:, cyclic(3)] - tri, axis=2)
    keep = need[triples, triples[:, cyclic(3)]].max(1) <= edges.max(1) / edges.min(1)
    triples = triples[keep]
    if stats is not None:
        stats.inbody_triples += len(triples)
    if not triples.size:
        return Pairs.empty(K, T, 3)
    reason, _, verts, faces = find_inbody(tri[keep], T)
    ok = reason == ""
    # p_j is the inbody vertex fed by facet j+1 of the triple
    triples, p, faces = triples[ok], verts[ok][:, cyclic(3)], faces[ok][:, cyclic(3)]
    tried = np.flatnonzero(reach[faces, triples, triples[:, cyclic(3)]].all(axis=1))
    if not tried.size:  # no fit stage when the prefilter keeps no triple
        return Pairs.empty(K, T, 3)
    q, reason = fit_to_k(K, T, triples[tried], faces[tried])
    fits = tried[reason == ""]
    return certified_pairs(K, T, q[reason == ""], p[fits], K.n + triples[fits], faces[fits])


def _blocks(K: ConvexPolytope2, T: ConvexPolytope2):
    """The spanning triples of K in order, in blocks of at most
    max(1, _BLOCK // (m_T + 1)), each cut from a run of first indices with
    at most that many facet triples (or from one first index)."""
    step, i, lo = max(1, _BLOCK // (T.n + 1)), np.arange(K.n), 0
    before = np.r_[0, np.cumsum((K.n - 1 - i) * (K.n - 2 - i))]  # facet triples below i
    while lo < K.n:
        hi = max(lo + 1, int(np.searchsorted(before, before[lo] + step, "right")) - 1)
        tri = spanning_triples(K, lo, hi)
        yield from (tri[s:s + step] for s in range(0, len(tri), step))
        lo = hi


def search_three_bounce(K: ConvexPolytope2, T: ConvexPolytope2,
                        stats: Optional[SearchStats] = None) -> Pairs:
    """The stack of all certified regular 3-bounce pairs over the facet
    triples of K that pass the spanning test, by _blocks, deduplicated and
    sorted by length; stats counts inbody LP triples."""
    tables = _contact_tables(K, T)
    return sort_pairs(dedupe(Pairs.empty(K, T, 3).join(
        [_solve_triples(K, T, block, tables, stats) for block in _blocks(K, T)])))


def solve_facet_triple(K: ConvexPolytope2, T: ConvexPolytope2,
                       triple: Tuple[int, int, int]) -> Pairs:
    """The stack of the certified pair, if any, of a facet triple that
    spanning_triples accepts: the search's pipeline on a batch of one."""
    return _solve_triples(K, T, [triple], _contact_tables(K, T))
