"""Trajectory/dual-trajectory pairs shared by both searches."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from .geom import (ClosedCurve, ConvexPolytope2, Face, InvalidCurve,
                   ell_length)

if TYPE_CHECKING:
    from .verify import Certificate


@dataclass(frozen=True)
class BilliardPair:
    """A closed trajectory q on the boundary of K together with its dual
    trajectory p on the boundary of T and the reflection-law multipliers:

        q_{j+1} - q_j =  lambdas[j] * n_T(p_j)
        p_{j+1} - p_j = -mus[j+1]   * n_K(q_{j+1})

    (indices cyclic; the normals are unit vectors in the respective cones).
    A pair returned by a search carries the certificate that admitted it.
    """

    q: ClosedCurve
    p: ClosedCurve
    k_faces: Tuple[Face, ...]
    t_faces: Tuple[Face, ...]
    lambdas: Tuple[float, ...]
    mus: Tuple[float, ...]
    length: float
    certificate: Optional["Certificate"] = field(default=None, compare=False)


def make_pair(K: ConvexPolytope2, T: ConvexPolytope2,
              q_vertices, p_vertices,
              k_faces: Sequence[Face], t_faces: Sequence[Face]
              ) -> Optional[BilliardPair]:
    """Assemble a pair from raw vertex data; None if either curve is
    degenerate."""
    try:
        q = ClosedCurve.from_vertices(q_vertices)
        p = ClosedCurve.from_vertices(p_vertices)
    except InvalidCurve:
        return None
    if q.m != p.m or q.m != len(k_faces) or q.m != len(t_faces):
        return None
    dq = q.edges()
    dp = p.edges()
    lambdas = tuple(float(np.hypot(*d)) for d in dq)
    mus = tuple(float(np.hypot(*dp[(j - 1) % p.m])) for j in range(p.m))
    return BilliardPair(q, p, tuple(k_faces), tuple(t_faces),
                        lambdas, mus, ell_length(T, q))


def _canonical_key(pair: BilliardPair) -> tuple:
    """Translation- and cyclic-rotation-invariant fingerprint of q, its
    coordinates rounded to 7 decimals (1e-7)."""
    v = pair.q.vertices - pair.q.vertices.mean(axis=0)
    best = None
    for r in range(v.shape[0]):
        cand = tuple(round(float(c), 7)
                     for row in np.roll(v, -r, axis=0) for c in row)
        if best is None or cand < best:
            best = cand
    return best


def _face_key(pair: BilliardPair) -> tuple:
    return tuple(f.sort_key() for f in pair.k_faces + pair.t_faces)


def dedupe(pairs: List[BilliardPair]) -> List[BilliardPair]:
    """Merge pairs whose trajectories coincide up to translation and cyclic
    relabelling, keeping the lexicographically smallest face tuple."""
    chosen = {}
    order = []
    for pair in pairs:
        key = _canonical_key(pair)
        if key not in chosen:
            chosen[key] = pair
            order.append(key)
        elif _face_key(pair) < _face_key(chosen[key]):
            chosen[key] = pair
    return [chosen[k] for k in order]


def sort_pairs(pairs: List[BilliardPair]) -> List[BilliardPair]:
    return sorted(pairs, key=lambda pr: (pr.length, pr.q.m, _face_key(pr)))
