"""Independent checks: certificates, the weak reflection rule, and a
grid-based brute-force oracle.

Nothing here reuses intermediate data from the searches or solves an LP; a
certificate is recomputed from the raw vertices so that a bug in an LP
formulation or in the solver cannot silently certify itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .geom import (EPS_CERT, EPS_GEO, HULL_GAP, ClosedCurve, ConvexPolytope2,
                   GeometryError, angles, cone_distance, dot2,
                   face_cones, face_distances, in_f, largest_gap, support_many, unit)
from .pairs import BilliardPair


class LineNotSupporting(GeometryError):
    pass


@dataclass(frozen=True)
class Certificate:
    system_residual: float       # reflection-law cone distances
    face_residual: float         # distance of each vertex to its declared face
    length_residual: float       # |ell_T(q) - sum <q_{j+1}-q_j, p_j>|
    dual_length_residual: float  # |ell_T(q) - ell_{-K}(p)|
    in_f_k: bool
    in_f_t: bool

    @property
    def certified(self) -> bool:
        return (max(self.system_residual, self.face_residual,
                    self.length_residual, self.dual_length_residual) < EPS_CERT
                and self.in_f_k and self.in_f_t)

    def to_json_obj(self) -> dict:
        return {
            "system_residual": self.system_residual,
            "face_residual": self.face_residual,
            "length_residual": self.length_residual,
            "dual_length_residual": self.dual_length_residual,
            "in_f_k": self.in_f_k,
            "in_f_t": self.in_f_t,
            "certified": self.certified,
        }


def certify_stack(K: ConvexPolytope2, T: ConvexPolytope2,
                  pairs: Sequence[BilliardPair]) -> List[Certificate]:
    """The certificates of pairs of one number of bounces m, computed as one
    stack."""
    if not pairs:
        return []
    q = np.stack([pr.q.vertices for pr in pairs])
    p = np.stack([pr.p.vertices for pr in pairs])
    kf, tf = (np.array([[(f.index, f.is_edge) for f in faces] for faces in fs])
              for fs in ([pr.k_faces for pr in pairs], [pr.t_faces for pr in pairs]))
    dq, dp = np.roll(q, -1, axis=1) - q, np.roll(p, -1, axis=1) - p
    kn = np.roll(kf, -1, axis=1)  # the face of K at the next bounce
    sys_res = np.maximum(cone_distance(face_cones(T, tf[..., 1], tf[..., 0]), dq),
                         cone_distance(face_cones(K, kn[..., 1], kn[..., 0]), -dp))
    face_res = np.maximum(face_distances(K, kf[..., 1], kf[..., 0], q),
                          face_distances(T, tf[..., 1], tf[..., 0], p))
    inner = dot2(dq, p).sum(axis=1)
    ell = support_many(T, dq).sum(axis=1)
    dual = support_many(K, -dp).sum(axis=1)  # h_{-K}(v) = h_K(-v)
    return [Certificate(*row) for row in zip(
        sys_res.max(axis=1).tolist(), face_res.max(axis=1).tolist(),
        np.abs(ell - inner).tolist(),
        np.abs(ell - dual).tolist(), in_f(K, q).tolist(), in_f(T, p).tolist())]


def certify(K: ConvexPolytope2, T: ConvexPolytope2,
            pair: BilliardPair) -> Certificate:
    return certify_stack(K, T, [pair])[0]


def certified_pairs(K: ConvexPolytope2, T: ConvexPolytope2,
                    pairs: Sequence[Optional[BilliardPair]]
                    ) -> List[Optional[BilliardPair]]:
    """certified_pair for pairs of one m, certified as one stack."""
    certs = iter(certify_stack(K, T, [pr for pr in pairs if pr is not None]))
    out = [pr and replace(pr, certificate=next(certs)) for pr in pairs]
    return [pr if pr and pr.certificate.certified else None for pr in out]


def certified_pair(K: ConvexPolytope2, T: ConvexPolytope2,
                   pair: Optional[BilliardPair]) -> Optional[BilliardPair]:
    """The pair carrying its certificate, or None if it is None or fails."""
    return certified_pairs(K, T, [pair])[0]


def check_weak_rule(K: ConvexPolytope2, T: ConvexPolytope2, q: ClosedCurve,
                    normals: Sequence) -> float:
    """Largest amount by which moving a single vertex along its supporting
    line (sampled at spacing diam(K)/512, 512 steps either way) decreases
    the two adjacent edge lengths.  Nonpositive up to discretization for
    weak trajectories; a zero normal raises ZeroVector."""
    v = q.vertices
    m = q.m
    resolution = 512
    h = K.diameter() / resolution
    worst = -math.inf
    for j in range(m):
        n = np.asarray(normals[j], float)
        level = float(n @ v[j])
        if float((K.vertices @ n).max()) > level + EPS_GEO:
            raise LineNotSupporting(
                f"line {j} does not support K at its trajectory vertex")
        d = unit((-n[1], n[0]))
        ts = np.arange(-resolution, resolution + 1) * h
        samples = v[j] + ts[:, None] * d
        total = (support_many(T, samples - v[(j - 1) % m]) +
                 support_many(T, v[(j + 1) % m] - samples))
        here = (float(support_many(T, (v[j] - v[(j - 1) % m])[None, :])[0]) +
                float(support_many(T, (v[(j + 1) % m] - v[j])[None, :])[0]))
        worst = max(worst, here - float(total.min()))
    return worst


# ---------------------------------------------------------------------------
# brute-force oracle


def boundary_grid(K: ConvexPolytope2, grid_per_facet: int
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Boundary sample points (vertices plus facet subdivisions) and, per
    point, a bitmask of the facets it lies on."""
    pts = []
    masks = []
    n = K.n
    for i in range(n):
        a, b = K.facet_segment(i)
        pts.append(a)
        masks.append((1 << i) | (1 << ((i - 1) % n)))
        for k in range(1, grid_per_facet):
            pts.append(a + (k / grid_per_facet) * (b - a))
            masks.append(1 << i)
    return np.asarray(pts), np.asarray(masks, np.int64)


def _subset_immovable_table(K: ConvexPolytope2) -> np.ndarray:
    """ok[mask] == True iff 0 lies in the convex hull of the facet normals
    selected by mask: for points on the boundary, the criterion of in_f."""
    return _immovable_table(K.normals.tobytes())


# bounded, so a process meeting many bodies keeps at most 64 tables of up to
# 2**16 entries; read-only, since every caller shares the cached array
@functools.lru_cache(maxsize=64)
def _immovable_table(normals: bytes) -> np.ndarray:
    normals = np.frombuffer(normals).reshape(-1, 2)
    n = normals.shape[0]
    if n > 16:
        raise GeometryError("brute-force oracle supports at most 16 facets")
    sel = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1
    tab = largest_gap(angles(normals), sel) <= HULL_GAP
    tab.setflags(write=False)
    return tab


# elements of one (i, j, k) block of the m = 3 oracle, so that its memory
# stays O(N^2) at every grid
_BLOCK = 1 << 17


def brute_force_min(K: ConvexPolytope2, T: ConvexPolytope2,
                    grid_per_facet: int) -> Tuple[float, float]:
    """Minimum ell_T-lengths (two, three) over closed 2-gons and closed
    triangles with vertices on the boundary grid of K that cannot be
    translated into the interior, both from one grid and one (N, N) table
    of h_T of differences of its N points.

    Degeneracy is read from the facet masks, with no length threshold: two
    points must differ, and three must not share a facet (three distinct
    boundary points of a strictly convex polygon are collinear iff they do).
    So validity depends on the masks only; for triangles it is decided once
    per triple of classes, the runs of equal masks (a vertex, or the inner
    points of one facet).  Each triangle i < j, i < k, j != k is summed as
    (h_T(x_j - x_i) + h_T(x_k - x_j)) + h_T(x_i - x_k) in class blocks of
    at most _BLOCK elements, with +inf where a block breaks the index rule;
    min is exact, so the blocks do not change the result.  Memory is O(N^2)
    in the N grid points."""
    pts, masks = boundary_grid(K, grid_per_facet)
    ok = _subset_immovable_table(K)
    G = pts @ T.vertices.T  # (N, |V(T)|); support of a difference is a max over columns
    sup = G[None, :, 0] - G[:, None, 0]  # sup[i,j] = h_T(x_j - x_i)
    for c in range(1, G.shape[1]):
        np.maximum(sup, G[None, :, c] - G[:, None, c], out=sup)
    valid = ok[masks[:, None] | masks]
    np.fill_diagonal(valid, False)
    two = float(np.min(sup + sup.T, where=valid, initial=np.inf))

    head = np.r_[True, masks[1:] != masks[:-1]]  # the first point of each class
    cls = np.cumsum(head) - 1  # the class of each grid point
    bounds = np.r_[np.flatnonzero(head), len(masks)]
    cm = masks[head]
    valid = ok[cm[:, None, None] | cm[:, None] | cm]
    valid &= (cm[:, None, None] & cm[:, None] & cm) == 0
    idx = np.arange(len(masks))
    sup_jk = sup.copy()
    np.fill_diagonal(sup_jk, np.inf)  # j != k
    best = np.inf
    for a in range(len(cm)):
        ia = slice(bounds[a], bounds[a + 1])
        later = idx[ia, None] < idx  # i < j, and i < k
        sup_ij = np.where(later, sup[ia], np.inf)
        sup_ki = np.where(later, sup[:, ia].T, np.inf)  # sup_ki[i, k] = sup[k, i]
        k_ok = valid[a][:, cls] & (cls >= a)  # k_ok[b, k]: a, b, cls[k] valid
        for b in range(a, len(cm)):
            ks = np.flatnonzero(k_ok[b])
            if not ks.size:
                continue
            jb = slice(bounds[b], bounds[b + 1])
            A = sup_ij[:, jb, None]
            step = max(1, _BLOCK // (A.shape[0] * A.shape[1]))
            for s in range(0, ks.size, step):
                k = ks[s:s + step]
                L = A + sup_jk[jb, k]
                L += sup_ki[:, None, k]
                best = min(best, L.min())
    return two, float(best)
