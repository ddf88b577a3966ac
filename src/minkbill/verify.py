"""Independent checks: certificates, the weak reflection rule, and a
grid-based brute-force oracle.

Nothing here reuses intermediate data from the searches or solves an LP; a
certificate is recomputed from the raw vertices and their face tables, so
that a bug in an LP formulation or in the solver cannot certify itself.
certify re-checks a stack of pairs, and certified_pairs keeps the rows of
a search's stack that certify.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence, Tuple

import numpy as np

from .geom import (EPS_GEO, HULL_GAP, ConvexPolytope2, GeometryError,
                   cone_distance, cyclic, degenerate, dot2, face_cones,
                   face_distances, in_f, largest_gap, support_many, unit)
from .pairs import Pairs, edge_lengths


class LineNotSupporting(GeometryError):
    pass


def _checks(K: ConvexPolytope2, T: ConvexPolytope2, q, p, k_faces, t_faces) -> Pairs:
    """The stack of q and p (B, m, 2) and the face id of each vertex,
    k_faces of K and t_faces of T (B, m), with the lambdas, mus and ell_T
    lengths of edge_lengths and the certificate fields of each row."""
    dq, dp, *lengths = edge_lengths(T, q, p)
    ell = lengths[-1]
    kn = k_faces[:, cyclic(k_faces.shape[1])]  # the face of K at the next bounce
    sys_res = np.maximum(cone_distance(face_cones(T, t_faces), dq),
                         cone_distance(face_cones(K, kn), -dp))
    face_res = np.maximum(face_distances(K, k_faces, q), face_distances(T, t_faces, p))
    dual = support_many(K, -dp).sum(axis=1)  # h_{-K}(v) = h_K(-v)
    return Pairs(K, T, q, p, k_faces, t_faces, *lengths, (
        sys_res.max(axis=1), face_res.max(axis=1), np.abs(ell - dot2(dq, p).sum(axis=1)),
        np.abs(ell - dual), in_f(K, q), in_f(T, p)))


def certify(K: ConvexPolytope2, T: ConvexPolytope2, pairs: Pairs) -> Pairs:
    """The stack pairs of (K, T), each row re-checked from its curves and
    face ids alone: fresh lengths, lambdas, mus and certificate fields."""
    return _checks(K, T, pairs.q, pairs.p, pairs.k_faces, pairs.t_faces)


def certified_pairs(K: ConvexPolytope2, T: ConvexPolytope2, q, p, k_faces,
                    t_faces) -> Pairs:
    """The stack of the rows of a search's stack (arguments as _checks) that
    certify, in row order: rows where q or p is degenerate never do."""
    q, p = np.array(q, float), np.array(p, float)
    rows = np.flatnonzero(~(degenerate(q) | degenerate(p)))
    if not rows.size:
        return Pairs.empty(K, T, q.shape[1])
    checked = _checks(K, T, *(np.asarray(v)[rows] for v in (q, p, k_faces, t_faces)))
    return checked.take(checked.certified)


def check_weak_rule(K: ConvexPolytope2, T: ConvexPolytope2, q,
                    normals: Sequence) -> float:
    """Largest amount by which moving one vertex of the closed curve q (m, 2)
    along its supporting line (sampled at spacing diam(K)/512, 512 steps
    either way) decreases the two adjacent edge lengths.  Never negative, as
    t = 0 is a sample, and 0 up to discretization for weak trajectories; the
    support test takes unit normals, and a zero normal raises ZeroVector."""
    v, n = np.asarray(q, float), unit(normals)
    resolution = 512
    bad = (K.vertices @ n.T).max(0) > dot2(n, v) + EPS_GEO
    if bad.any():
        raise LineNotSupporting(
            f"line {int(np.argmax(bad))} does not support K at its trajectory vertex")
    d = np.column_stack([-n[:, 1], n[:, 0]])
    ts = np.arange(-resolution, resolution + 1) * (K.diameter() / resolution)
    samples = v[:, None] + ts[:, None] * d[:, None]  # (m, 1025, 2); t = 0 at 512
    total = (support_many(T, samples - v[cyclic(len(v), -1), None]) +
             support_many(T, v[cyclic(len(v)), None] - samples))
    return float((total[:, resolution] - total.min(1)).max())


# ---------------------------------------------------------------------------
# brute-force oracle


def boundary_grid(K: ConvexPolytope2, grid_per_facet: int
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Boundary sample points (each vertex, then the grid_per_facet - 1
    inner points a + (k/grid)(b - a) of its facet [a, b]) and, per point, a
    bitmask of the facets it lies on."""
    if grid_per_facet < 1:
        raise ValueError(f"grid_per_facet must be at least 1, got {grid_per_facet}")
    a, b = K.face_table.ends[K.n:].transpose(1, 0, 2)
    t = np.arange(grid_per_facet) / grid_per_facet
    pts = a[:, None] + t[:, None] * (b - a)[:, None]
    pts[:, 0] = a
    bit = 1 << np.arange(K.n, dtype=np.int64)
    masks = np.repeat(bit[:, None], grid_per_facet, axis=1)
    masks[:, 0] |= bit[cyclic(K.n, -1)]  # a vertex also lies on the facet before it
    return pts.reshape(-1, 2), masks.ravel()


def _subset_immovable_table(K: ConvexPolytope2) -> np.ndarray:
    """ok[mask] == True iff 0 lies in the convex hull of the facet normals
    selected by mask: for points on the boundary, the criterion of in_f."""
    return _immovable_table(K.face_table.angles[0].tobytes())


# bounded, so a process meeting many bodies keeps at most 64 tables of up to
# 2**16 entries; read-only, since every caller shares the cached array
@functools.lru_cache(maxsize=64)
def _immovable_table(angles: bytes) -> np.ndarray:
    angles = np.frombuffer(angles)
    n = len(angles)
    if n > 16:
        raise GeometryError("brute-force oracle supports at most 16 facets")
    sel = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1
    tab = largest_gap(angles, sel) <= HULL_GAP
    tab.setflags(write=False)
    return tab


# the oracle's least cap on a chunk's length, and the elements of a batch and of the
# one tile store a call allocates, which a batch that would overfill empties first
_CHUNK = 16
_BLOCK = 1 << 17
_STORE = 1 << 16


def _chunk_bounds(G: np.ndarray, start: np.ndarray) -> np.ndarray:
    """low[A, B] = max_c (lo[B, c] - hi[A, c]) <= h_T(x_j - x_i), i in A, j in B,
    from the extremes lo, hi of G over the chunks at start (rounding is monotone)."""
    lo, hi = np.minimum.reduceat(G, start), np.maximum.reduceat(G, start)
    return functools.reduce(np.maximum, (b - a[:, None] for a, b in zip(hi.T, lo.T)))


def brute_force_min(K: ConvexPolytope2, T: ConvexPolytope2,
                    grid_per_facet: int) -> Tuple[float, float]:
    """Minimum ell_T-lengths (two, three) over closed 2-gons and closed
    triangles with vertices on the boundary grid of K that cannot be
    translated into the interior, summing S[i, j] = h_T(x_j - x_i) =
    max_c (G[j, c] - G[i, c]) over its N points, G = pts @ V(T)^T.

    Degeneracy is read from the facet masks, with no length threshold: two
    points must differ, and three must not share a facet (three distinct
    boundary points of a strictly convex polygon are collinear iff they do).
    Both minima are exact branch-and-bound searches.  Each run of equal masks
    (a vertex, or the inner points of one facet) is cut evenly into the
    fewest chunks of at most max(_CHUNK, isqrt(N) // 4) points, each
    ceil(L / parts) long but the last; the tile side size is the longest.
    Chunk pairs A < B and triples A <= B, A <= C of valid masks go by
    increasing bound while below the best sum.  The bounds are low[A, B] +
    low[B, A] and (low[A, B] + low[B, C]) + low[C, A], with no table
    (_chunk_bounds).  A batch builds the (size, size) tiles of S of the chunk
    pairs it reads, once each, by a running max over c (+inf at the pads of
    short chunks, mostly one-point vertex chunks), into one store in build
    order (slot[A, B] = -1 until built), and sums tiles.  Triangle batches
    hold at most _BLOCK // size^3 triples (or one) and cap // 3; 2-gon
    batches build two tiles per pair they sum, so they start at one pair and
    double, up to _BLOCK // size^2 and cap // 2 pairs.  A 2-gon i < j sums
    S[i, j] + S[j, i], a triangle i < j, i < k, j != k min_j (S[i, j] +
    S[j, k]) + S[k, i], its middle vertex j first (t size^2 elements at a
    time), +inf where a batch breaks the index rule (only where two chunks of
    a triple coincide: chunks are runs of increasing indices, so A < B puts
    every index of A below those of B): rounding is monotone and min exact, so
    neither float depends on the cut, pruning, batches, tile order or the
    order of j, k and i.  Memory: one store of cap = max(3, min(C^2, _STORE //
    size^2)) slots for C chunks, allocated once, and no batch needs more; a
    batch that would overfill it empties it first.  G is kept once, padded;
    O(N^2)."""
    pts, masks = boundary_grid(K, grid_per_facet)
    ok = _subset_immovable_table(K)
    N = len(masks)
    G = pts @ T.vertices.T  # (N, |V(T)|); support of a difference is a max over columns
    head = np.r_[True, masks[1:] != masks[:-1]]  # the first point of each run
    run = np.arange(N) - np.maximum.accumulate(np.where(head, np.arange(N), 0))
    rl = np.diff(np.r_[np.flatnonzero(head), N])  # each run's length
    per = -(-rl // -(-rl // max(_CHUNK, math.isqrt(N) // 4)))  # fewest chunks, even
    size = int(per.max())
    start = np.flatnonzero(run % np.repeat(per, rl) == 0)
    chunk = start[:, None] + np.arange(size)  # index N pads short chunks
    chunk[chunk >= np.r_[start[1:], N][:, None]] = N
    low = _chunk_bounds(G, start)
    cm, up = masks[start], np.arange(len(start))[:, None] <= np.arange(len(start))
    pa, pb = np.nonzero(np.triu(ok[cm[:, None] | cm], 1))  # one run is never valid
    ta, tb, tc = np.nonzero(ok[cm[:, None, None] | cm[:, None] | cm]
                            & ((cm[:, None, None] & cm[:, None] & cm) == 0)
                            & up[:, :, None] & up[:, None])
    # the h_T tile of chunk pair (A, B) is tiles[slot[A, B]], in build order
    cap = max(3, min(low.size, _STORE // size ** 2))
    tiles, n, slot = np.empty((cap, size, size)), 0, np.full(low.shape, -1)
    # G^T, padded for a tile's j side at column N (+inf) and its i side at N + 1 (-inf)
    G = np.r_[G, np.full((2, G.shape[1]), np.inf) * [[1], [-1]]].T
    ichunk = np.where(chunk == N, N + 1, chunk)

    def build(a, b):  # the tiles of the chunk pairs (a, b) not built yet
        nonlocal n
        new = np.zeros(slot.shape, bool)
        new[a, b] = slot[a, b] < 0
        if n + new.sum() > cap:  # full: empty the store, then build every pair of (a, b)
            slot[:], n, new[a, b] = -1, 0, True
        a, b = np.nonzero(new)
        i, j, blk = ichunk[a, :, None], chunk[b, None], tiles[n:n + len(a)]
        np.subtract(G[0, j], G[0, i], out=blk)
        for c in range(1, len(G)):
            np.maximum(blk, G[c, j] - G[c, i], out=blk)
        slot[a, b], n = np.arange(n, n + len(a)), n + len(a)

    def least2(t):  # the least 2-gon sum over chunk pairs t
        a, b = pa[t], pb[t]
        build(np.concatenate([a, b]), np.concatenate([b, a]))
        return (tiles[slot[a, b]] + tiles[slot[b, a]].transpose(0, 2, 1)).min(initial=np.inf)

    def sum3(t, masked):  # the least triangle sum over chunk triples t, middle vertex first
        a, b, c = ta[t], tb[t], tc[t]
        ij, jk, ki = tiles[slot[a, b]], tiles[slot[b, c]], tiles[slot[c, a]]
        if masked:  # i < j, j != k, i < k in ij[t, i, j] = S[i, j], jk[t, j, k], ki[t, k, i]
            i, j, k = chunk[a], chunk[b], chunk[c]
            ij = np.where(i[:, :, None] < j[:, None], ij, np.inf)
            jk = np.where(j[:, :, None] != k[:, None], jk, np.inf)
            ki = np.where(i[:, None] < k[:, :, None], ki, np.inf)
        R = ij[:, None, :, 0] + jk[:, 0, :, None]  # R[t, k, i], the least over j so far
        for m in range(1, size):
            np.minimum(R, ij[:, None, :, m] + jk[:, m, :, None], out=R)
        return (R + ki).min()

    def least3(t):  # only a repeated chunk can break the index rule
        build(np.concatenate([ta[t], tb[t], tc[t]]), np.concatenate([tb[t], tc[t], ta[t]]))
        repeat = (ta[t] == tb[t]) | (ta[t] == tc[t]) | (tb[t] == tc[t])
        parts = (t[~repeat], False), (t[repeat], True)  # at least one is not empty
        return min(sum3(u, masked) for u, masked in parts if u.size)

    def search(bound, least, m):  # no batch left out is below the least sum
        most = max(1, min(_BLOCK // size ** m, cap // m))  # a pair or triple reads m tiles
        best, order, s, step = np.inf, np.argsort(bound), 0, 1 if m == 2 else most
        while s < bound.size and bound[order[s]] < best:
            t = order[s:s + min(step, most)]
            best, s, step = min(best, least(t[bound[t] < best])), s + len(t), 2 * step
        return float(best)

    return (search(low[pa, pb] + low[pb, pa], least2, 2),
            search((low[ta, tb] + low[tb, tc]) + low[tc, ta], least3, 3))
