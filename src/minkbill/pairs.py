"""Trajectory/dual-trajectory pairs shared by both searches.

A curve q_1 .. q_m is an (m, 2) array.  Pairs are row-aligned stacks
(Pairs): a search's certified pairs travel as one stack from
verify.certified_pairs through dedupe and sort_pairs to the report, and a
single pair is a one-row stack.  make_pair builds one from a report's data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .geom import (EPS_CERT, ConvexPolytope2, Face, cyclic, degenerate, face_array,
                   read_only, support_many)

# the certificate fields of a stack, then whether each row certifies
_REPORT = ("system_residual", "face_residual", "length_residual", "dual_length_residual",
           "in_f_k", "in_f_t", "certified")


@dataclass(frozen=True, eq=False)
class Pairs:
    """B pairs of one m on (K, T), one row each: closed trajectories q on
    the boundary of K and their dual trajectories p on the boundary of T
    (B, m, 2), the face ids of K and T at each vertex (B, m), the
    reflection-law multipliers lambdas and mus (B, m),

        q_{j+1} - q_j =  lambdas[j] * n_T(p_j)
        p_{j+1} - p_j = -mus[j+1]   * n_K(q_{j+1})

    (indices cyclic; the normals are unit vectors in the respective cones),
    the ell_T lengths (B,) and the certificate, six fields each (B,): the
    reflection-law cone distances, the distance of each vertex to its face,
    |ell_T(q) - sum <q_{j+1}-q_j, p_j>|, |ell_T(q) - ell_{-K}(p)|, and
    whether q is in F(K) and p in F(T).  Every array is read-only."""

    K: ConvexPolytope2
    T: ConvexPolytope2
    q: np.ndarray
    p: np.ndarray
    k_faces: np.ndarray
    t_faces: np.ndarray
    lambdas: np.ndarray
    mus: np.ndarray
    length: np.ndarray
    certificate: Tuple[np.ndarray, ...]

    def __post_init__(self):
        for v in self._fields():
            v.setflags(write=False)

    @staticmethod
    def empty(K: ConvexPolytope2, T: ConvexPolytope2, m: int) -> "Pairs":
        """The stack of no pairs of m bounces."""
        return Pairs(K, T, *np.zeros((2, 0, m, 2)), *np.zeros((2, 0, m), int),
                     *np.zeros((2, 0, m)), np.zeros(0),
                     (*np.zeros((4, 0)), *np.zeros((2, 0), bool)))

    @property
    def certified(self) -> np.ndarray:
        """Whether each row certifies (B,): every residual below EPS_CERT and
        both in_f fields True (a nan residual never does)."""
        system, face, length, dual, in_f_k, in_f_t = self.certificate
        return ((system < EPS_CERT) & (face < EPS_CERT) & (length < EPS_CERT)
                & (dual < EPS_CERT) & in_f_k & in_f_t)

    def _fields(self) -> list:
        """The row fields, in the order of the constructor."""
        return [self.q, self.p, self.k_faces, self.t_faces, self.lambdas, self.mus,
                self.length, *self.certificate]

    def _map(self, fn, *others: "Pairs") -> "Pairs":
        """The stack of fn of each row field of this stack and of others."""
        v = list(map(fn, *(s._fields() for s in (self, *others))))
        return Pairs(self.K, self.T, *v[:7], tuple(v[7:]))

    def take(self, rows) -> "Pairs":
        """The stack of the rows selected by an index array or a mask."""
        return self._map(lambda v: v[rows])

    def join(self, stacks: Sequence["Pairs"]) -> "Pairs":
        """This stack's rows, then those of each of stacks, in order."""
        return self._map(lambda *v: np.concatenate(v), *stacks)

    def __len__(self) -> int:
        return len(self.length)

    def to_json_obj(self) -> List[dict]:
        """The report entry of each row, one .tolist() per field; face id f
        of an n-gon is [kind, f % n], an edge where f >= n."""
        faces = [[[[("vertex", "edge")[f >= P.n], f % P.n] for f in row] for row in ids.tolist()]
                 for P, ids in ((self.K, self.k_faces), (self.T, self.t_faces))]
        cert = zip(*(v.tolist() for v in (*self.certificate, self.certified)))
        return [{"m": self.q.shape[1], "length": length, "q": q, "p": p, "k_faces": kf,
                 "t_faces": tf, "lambdas": lambdas, "mus": mus,
                 "certificate": dict(zip(_REPORT, c))}
                for length, q, p, lambdas, mus, kf, tf, c in zip(*(v.tolist() for v in (
                    self.length, self.q, self.p, self.lambdas, self.mus)), *faces, cert)]


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
              k_faces: Sequence[Face], t_faces: Sequence[Face]) -> Optional[Pairs]:
    """The one-row stack of raw vertex data, with read-only copies of the
    curves and no certificate (nan residuals, in_f False); None unless q and
    p are finite (m, 2), m >= 2, not degenerate, and with one face of K and
    of T per vertex, each a "vertex" or an "edge" of index i in range(n)."""
    curves = []
    for vertices in (q_vertices, p_vertices):
        v = read_only(vertices)
        if (v.ndim != 2 or v.shape[1] != 2 or len(v) < 2 or not np.isfinite(v).all()
                or degenerate(v)):  # for m = 2, two coinciding points
            return None
        curves.append(v)
    q, p = curves
    if len(q) != len(p) or len(q) != len(k_faces) or len(q) != len(t_faces):
        return None
    if not all(f.kind in ("vertex", "edge") and f.index in range(P.n)
               for P, faces in ((K, k_faces), (T, t_faces)) for f in faces):
        return None
    q, p = q[None], p[None]
    _, _, *lengths = edge_lengths(T, q, p)
    return Pairs(K, T, q, p, face_array(K, [k_faces]), face_array(T, [t_faces]), *lengths,
                 (*np.full((4, 1), np.nan), *np.zeros((2, 1), bool)))


def _canonical_keys(q: np.ndarray) -> List[tuple]:
    """Translation- and cyclic-rotation-invariant fingerprint of each closed
    curve of a stack q (B, m, 2), its coordinates rounded to 7 decimals
    (1e-7); the curves are centred and rotated as one stack."""
    B, m = q.shape[:2]
    v = q - q.mean(axis=1, keepdims=True)
    turns = v[:, [cyclic(m, r) for r in range(m)]]
    return [min(tuple(round(c, 7) for c in row) for row in rows)
            for rows in turns.reshape(B, m, 2 * m).tolist()]


def dedupe(pairs: Pairs) -> Pairs:
    """Merge the rows whose trajectories coincide up to translation and
    cyclic relabelling, keeping the row with the lexicographically smallest
    face ids (the first of equal ones), in the order of each key's first
    row."""
    chosen: dict = {}
    faces = np.concatenate([pairs.k_faces, pairs.t_faces], 1).tolist()
    for row, key in enumerate(_canonical_keys(pairs.q)):
        if faces[row] < faces[chosen.setdefault(key, row)]:
            chosen[key] = row
    return pairs.take(np.fromiter(chosen.values(), int, len(chosen)))


def sort_pairs(pairs: Pairs) -> Pairs:
    """The rows by length, then by the face ids of K, then of T (the order
    of their Face tuples, vertices first); equal rows keep their order."""
    faces = np.concatenate([pairs.k_faces, pairs.t_faces], 1)
    return pairs.take(np.lexsort((*faces.T[::-1], pairs.length)))
