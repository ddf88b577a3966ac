"""Trajectory/dual-trajectory pairs shared by both searches.

A curve q_1 .. q_m is an (m, 2) array.  A search's certified pairs travel as
one row-aligned stack (Pairs) from verify.certified_pairs through dedupe and
sort_pairs to the report, with no per-row object; a row becomes a
BilliardPair only where a caller indexes or iterates a stack.  make_pair
builds one pair from a report's data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .geom import (EPS_CERT, ConvexPolytope2, Face, cyclic, degenerate, face_tuples,
                   read_only, support_many)


def _certifies(system, face, length, dual, in_f_k, in_f_t):
    """Whether Certificate fields, scalars or arrays of a stack, certify (a
    nan residual never does)."""
    return ((system < EPS_CERT) & (face < EPS_CERT) & (length < EPS_CERT)
            & (dual < EPS_CERT) & in_f_k & in_f_t)


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
        return bool(_certifies(*vars(self).values()))

    def to_json_obj(self) -> dict:
        return {**vars(self), "certified": self.certified}


@dataclass(frozen=True)
class BilliardPair:
    """A closed trajectory q on the boundary of K together with its dual
    trajectory p on the boundary of T and the reflection-law multipliers:

        q_{j+1} - q_j =  lambdas[j] * n_T(p_j)
        p_{j+1} - p_j = -mus[j+1]   * n_K(q_{j+1})

    (indices cyclic; the normals are unit vectors in the respective cones).
    A pair taken from a search's stack carries the certificate that
    admitted it.
    """

    q: np.ndarray  # (m, 2), read-only: q_1 .. q_m on the boundary of K
    p: np.ndarray  # (m, 2), read-only: p_1 .. p_m on the boundary of T
    k_faces: Tuple[Face, ...]
    t_faces: Tuple[Face, ...]
    lambdas: Tuple[float, ...]
    mus: Tuple[float, ...]
    length: float
    certificate: Optional[Certificate] = field(default=None, compare=False)


_REPORT = [f.name for f in fields(Certificate)] + ["certified"]


@dataclass(frozen=True, eq=False)
class Pairs:
    """B certified pairs of one m on (K, T), one row each: q and p (B, m, 2),
    the face ids of K and T at each vertex (B, m), lambdas and mus (B, m),
    the ell_T lengths (B,) and the six Certificate fields, each (B,).
    Indexing or iterating a stack builds BilliardPairs of its rows."""

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

    @staticmethod
    def empty(K: ConvexPolytope2, T: ConvexPolytope2, m: int) -> "Pairs":
        """The stack of no pairs of m bounces."""
        return Pairs(K, T, *np.zeros((2, 0, m, 2)), *np.zeros((2, 0, m), int),
                     *np.zeros((2, 0, m)), np.zeros(0),
                     (*np.zeros((4, 0)), *np.zeros((2, 0), bool)))

    def _map(self, fn, *others: "Pairs") -> "Pairs":
        """The stack of fn of each row field of this stack and of others."""
        v = list(map(fn, *([s.q, s.p, s.k_faces, s.t_faces, s.lambdas, s.mus, s.length,
                            *s.certificate] for s in (self, *others))))
        return Pairs(self.K, self.T, *v[:7], tuple(v[7:]))

    def take(self, rows) -> "Pairs":
        """The stack of the rows selected by an index array or a mask."""
        return self._map(lambda v: v[rows])

    def join(self, stacks: Sequence["Pairs"]) -> "Pairs":
        """This stack's rows, then those of each of stacks, in order."""
        return self._map(lambda *v: np.concatenate(v), *stacks)

    def __len__(self) -> int:
        return len(self.length)

    def __getitem__(self, i: int) -> BilliardPair:
        """Row i as a BilliardPair with its Certificate and copies of its curves."""
        [kf], [tf] = (face_tuples(P, ids[i, None]) for P, ids in ((self.K, self.k_faces),
                                                                  (self.T, self.t_faces)))
        return BilliardPair(read_only(self.q[i]), read_only(self.p[i]), kf, tf,
                            tuple(self.lambdas[i].tolist()), tuple(self.mus[i].tolist()),
                            self.length[i].item(), Certificate(*(v[i].item() for v in
                                                                 self.certificate)))

    def __iter__(self) -> Iterator[BilliardPair]:
        return map(self.__getitem__, range(len(self)))

    def to_json_obj(self) -> List[dict]:
        """The report entry of each row, one .tolist() per field; face id f
        of an n-gon is [kind, f % n], an edge where f >= n."""
        faces = [[[[("vertex", "edge")[f >= P.n], f % P.n] for f in row] for row in ids.tolist()]
                 for P, ids in ((self.K, self.k_faces), (self.T, self.t_faces))]
        cert = zip(*(v.tolist() for v in (*self.certificate, _certifies(*self.certificate))))
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
              k_faces: Sequence[Face], t_faces: Sequence[Face]
              ) -> Optional[BilliardPair]:
    """Assemble a pair, with no certificate and read-only copies of the
    curves, from raw vertex data; None unless q and p are finite (m, 2),
    m >= 2, not degenerate, and with one face of K and of T per vertex."""
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
    _, _, [lambdas], [mus], [length] = edge_lengths(T, q[None], p[None])
    return BilliardPair(q, p, tuple(k_faces), tuple(t_faces), tuple(lambdas.tolist()),
                        tuple(mus.tolist()), float(length))


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
