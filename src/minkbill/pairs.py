"""Trajectory/dual-trajectory pairs shared by both searches."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from .geom import (ClosedCurve, ConvexPolytope2, Face, InvalidCurve, cyclic,
                   support_many)

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


def edge_lengths(T: ConvexPolytope2, q: np.ndarray, p: np.ndarray):
    """The edges dq and dp of stacks of closed curves q and p (B, m, 2), and
    each row's lambdas |dq_j|, mus |dp_{j-1}| and ell_T length sum_j
    h_T(dq_j)."""
    dq, dp = (x[:, cyclic(x.shape[1])] - x for x in (q, p))
    return (dq, dp, np.hypot(dq[..., 0], dq[..., 1]),
            np.hypot(dp[..., 0], dp[..., 1])[:, cyclic(q.shape[1], -1)],
            support_many(T, dq).sum(axis=1))


def make_pair(K: ConvexPolytope2, T: ConvexPolytope2,
              q_vertices, p_vertices,
              k_faces: Sequence[Face], t_faces: Sequence[Face]
              ) -> Optional[BilliardPair]:
    """Assemble a pair, with no certificate, from raw vertex data; None if
    either curve is degenerate."""
    try:
        q = ClosedCurve.from_vertices(q_vertices)
        p = ClosedCurve.from_vertices(p_vertices)
    except InvalidCurve:
        return None
    if q.m != p.m or q.m != len(k_faces) or q.m != len(t_faces):
        return None
    _, _, [lambdas], [mus], [length] = edge_lengths(T, q.vertices[None], p.vertices[None])
    return BilliardPair(q, p, tuple(k_faces), tuple(t_faces), tuple(lambdas.tolist()),
                        tuple(mus.tolist()), float(length))


def _canonical_keys(pairs: List[BilliardPair]) -> List[tuple]:
    """Translation- and cyclic-rotation-invariant fingerprint of the q of
    each pair (all of one m), its coordinates rounded to 7 decimals (1e-7);
    the curves are centred and rotated as one stack."""
    if not pairs:
        return []
    m = pairs[0].q.m
    v = np.stack([pair.q.vertices for pair in pairs])
    v = v - v.mean(axis=1, keepdims=True)
    turns = v[:, [cyclic(m, r) for r in range(m)]]
    return [min(tuple(round(c, 7) for c in row) for row in rows)
            for rows in turns.reshape(len(v), m, 2 * m).tolist()]


def _face_key(pair: BilliardPair) -> tuple:
    return tuple(f.sort_key() for f in pair.k_faces + pair.t_faces)


def dedupe(pairs: List[BilliardPair]) -> List[BilliardPair]:
    """Merge pairs (all of one m) whose trajectories coincide up to
    translation and cyclic relabelling, keeping the lexicographically
    smallest face tuple."""
    chosen: dict = {}
    for pair, key in zip(pairs, _canonical_keys(pairs)):
        if key not in chosen or _face_key(pair) < _face_key(chosen[key]):
            chosen[key] = pair
    return list(chosen.values())


def sort_pairs(pairs: List[BilliardPair]) -> List[BilliardPair]:
    return sorted(pairs, key=lambda pr: (pr.length, pr.q.m, _face_key(pr)))
