"""Reference implementations, body constructions and checks shared by the
test modules, each under one name."""

import math
from dataclasses import replace

import numpy as np

from minkbill.geom import (EPS_ANG, EPS_CERT, EPS_GEO, ConvexPolytope2,
                           GeometryError, cross2, dot2)
from minkbill.lp import LinearProgram, solve
from minkbill.verify import certify


def scaled(P, c, shift):
    """c P + shift for a power of two c, with the normals and offsets that
    from_vertices computes, but without its absolute tolerances, which
    reject bodies below about 2^-10; read-only like a from_vertices body."""
    v = c * P.vertices + shift
    out = ConvexPolytope2(v, P.normals, np.einsum("ij,ij->i", P.normals, v))
    for arr in (out.vertices, out.offsets):
        arr.setflags(write=False)
    return out


def rebuilt(P, c, shift):
    """c P + shift through from_vertices, which recomputes the normals and
    rejects a copy too small for its absolute tolerances."""
    return ConvexPolytope2.from_vertices(c * P.vertices + shift)


def symmetric_polygon(rng, m):
    """A random centrally symmetric 2m-gon centred at the origin: m
    directions in [0, pi), apart by at least 0.9 pi / (3m), and their
    negatives on the unit circle, under a random linear map of positive
    determinant."""
    slots = np.sort(rng.choice(3 * m, size=m, replace=False))
    theta = (slots + 0.1 * rng.random(m)) * np.pi / (3 * m)
    half = np.column_stack([np.cos(theta), np.sin(theta)])
    turn = rng.uniform(0, 2 * np.pi)
    A = (np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
         @ np.diag(rng.uniform(0.5, 2.0, size=2)))
    return ConvexPolytope2.from_vertices(np.concatenate([half, -half]) @ A.T)


def same_cycle(A, B, atol=1e-7):
    """Vertex arrays equal up to a cyclic shift."""
    return A.shape == B.shape and any(
        np.allclose(np.roll(B, r, axis=0), A, atol=atol) for r in range(B.shape[0]))


def cones_intersect(c1, c2) -> bool:
    """Whether two single cones share a nonzero direction (closed reading,
    up to EPS_ANG): the reference the 2-bounce antipodality filter is
    checked against."""
    a1, w1 = c1.angles()
    a2, w2 = c2.angles()
    d12 = (a2 - a1) % (2 * math.pi)
    d21 = (a1 - a2) % (2 * math.pi)
    return d12 <= w1 + EPS_ANG or d21 <= w2 + EPS_ANG


def reference_in_f(K: ConvexPolytope2, points, tol: float = EPS_GEO) -> bool:
    """in_f as the translation-margin LP: maximize the common interior margin
    of the points over translations; immovable iff it is at most tol."""
    pts = np.asarray(points, float)
    if pts.ndim == 1:
        pts = pts[None, :]
    worst = (pts @ K.normals.T).max(axis=0)  # per facet, the tightest point
    sol = solve(LinearProgram(
        objective=np.array([0.0, 0.0, 1.0]),
        constraints=np.column_stack([K.normals, np.ones(K.n)]),
        rhs=K.offsets - worst))
    if sol.status != "optimal":
        raise GeometryError(f"margin LP ended with status {sol.status}")
    return bool(sol.x[2] <= tol)


def reference_find_faces(P, X, tol):
    """find_faces as it was written on (len(X), P.n, 2) arrays."""
    X = np.asarray(X, float).reshape(-1, 2)[:, None, :]
    a = P.vertices
    d = np.hypot(*np.moveaxis(a - X, -1, 0))
    near = np.argmin(d, axis=1)
    at_vertex = np.take_along_axis(d, near[:, None], axis=1)[:, 0] <= tol
    e = np.roll(a, -1, axis=0) - a
    t = np.clip(np.einsum("kij,ij->ki", X - a, e) / np.einsum("ij,ij->i", e, e),
                0.0, 1.0)
    hits = np.hypot(*np.moveaxis(a + t[..., None] * e - X, -1, 0)) <= tol
    on_edge = ~at_vertex & hits.any(axis=1)
    index = np.where(at_vertex, near, np.where(on_edge, hits.argmax(axis=1), -1))
    return index, on_edge


def certified_pair(K, T, pair):
    """The pair carrying its certificate, or None if it is None or fails:
    what a search keeps of it, one pair at a time."""
    if pair is None:
        return None
    pair = replace(pair, certificate=certify(K, T, pair))
    return pair if pair.certificate.certified else None


class Affine:
    """Affine 2-vector c + M x in the LP variables."""

    def __init__(self, c, M):
        self.c = np.asarray(c, float)
        self.M = np.asarray(M, float)

    def __sub__(self, other):
        return Affine(self.c - other.c, self.M - other.M)

    def cross_with(self, g):
        return (g[0] * self.M[1] - g[1] * self.M[0],
                g[0] * self.c[1] - g[1] * self.c[0])

    def dot_with(self, g):
        return (g[0] * self.M[0] + g[1] * self.M[1],
                g[0] * self.c[0] + g[1] * self.c[1])

    def at(self, x):
        return self.c + self.M @ x


def reference_cone_rows(rows, expr, cone, slack=EPS_GEO):
    g = cone.generators
    if cone.is_ray:
        row, const = expr.cross_with(g[0])
        rows.append((row, -const, True))
        row, const = expr.dot_with(g[0])
        rows.append((-row, slack + const, False))
    else:
        row, const = expr.cross_with(g[0])
        rows.append((-row, slack + const, False))
        row, const = expr.cross_with(g[1])
        rows.append((row, slack - const, False))


def rows_reach(cone, v):
    """The product form of the row test, the reference of
    bounce2._chord_reach: whether each row of each cone (those of
    _cone_rows) reaches -4 EPS_CERT at one of its corner chords
    v (..., 2, 2, 2), each row evaluated at every corner chord."""
    g0, g1 = (g[..., None, None, :] for g in cone.generators)
    rows = np.stack([cross2(g0, v), cross2(v, g1),
                     np.where(np.asarray(cone.is_ray)[..., None, None], dot2(g0, v), np.inf)])
    return ~(rows.max(axis=(-2, -1)) < -4 * EPS_CERT).any(axis=0)


def product_chord_reach(P, Q, a):
    """rows_reach on the corner chords from each face id in a to every face
    id of P, each facet's start moved back 1e-9 of its length, for every
    face of Q, (len(a), 2 n_P, 2 m_Q): the screen of _side_tables as it was
    before _chord_reach."""
    start, stop = P.face_table.ends.transpose(1, 0, 2)
    ends = np.stack([start - 1e-9 * (stop - start), stop], 1)
    v = ends[None, :, :, None] - ends[a][:, None, None]
    return rows_reach(Q.face_table.cones, v[:, :, None])


def spy(monkeypatch, owner, name, note):
    """Wrap owner.name so that each call first appends note(*args) to the
    list returned."""
    log, real = [], getattr(owner, name)

    def wrapper(*args):
        log.append(note(*args))
        return real(*args)
    monkeypatch.setattr(owner, name, wrapper)
    return log


def assert_same_pairs(got, want):
    """Two pair lists with equal faces, lengths, q and p, in one order."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.length == b.length
        assert np.array_equal(a.q.vertices, b.q.vertices)
        assert np.array_equal(a.p.vertices, b.p.vertices)
        assert a.k_faces == b.k_faces and a.t_faces == b.t_faces


def assert_same_search(stacks, want_stacks, got, want):
    """Two runs of a search that handed certified_pairs the same stacks and
    returned the same pairs, byte for byte, certificates included."""
    assert [[(r.dtype, r.shape, r.tobytes()) for r in c] for c in stacks] == \
        [[(r.dtype, r.shape, r.tobytes()) for r in c] for c in want_stacks]
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.length, a.k_faces, a.t_faces, a.lambdas, a.mus) == \
            (b.length, b.k_faces, b.t_faces, b.lambdas, b.mus)
        assert a.q.vertices.tobytes() == b.q.vertices.tobytes()
        assert a.p.vertices.tobytes() == b.p.vertices.tobytes()
        assert a.certificate.to_json_obj() == b.certificate.to_json_obj()
