"""Reference implementations, body constructions and checks shared by the
test modules, each under one name."""

import math
from dataclasses import replace

import numpy as np

from minkbill.geom import (EPS_ANG, EPS_CERT, EPS_GEO, ConvexPolytope2, Face,
                           GeometryError, OriginNotInterior, cross2, cyclic, dot2,
                           normal_cone, rotation, support_many, unit)
from minkbill.lp import solve
from minkbill.pairs import _canonical_keys
from minkbill.verify import LineNotSupporting, certify


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
    status, x = solve(np.array([0.0, 0.0, 1.0]),
                      np.column_stack([K.normals, np.ones(K.n)]), K.offsets - worst)
    if status != "optimal":
        raise GeometryError(f"margin LP ended with status {status}")
    return bool(x[2] <= tol)


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


def spearman(a, b) -> float:
    """Spearman's rank correlation of a and b, ties ranked in input order;
    0 where either is constant."""
    def ranks(x):
        order = np.argsort(x, kind="stable")
        r = np.empty(len(x))
        r[order] = np.arange(len(x))
        return r
    ra, rb = ranks(np.asarray(a, float)), ranks(np.asarray(b, float))
    ra -= ra.mean()
    rb -= rb.mean()
    denom = float(np.sqrt((ra ** 2).sum() * (rb ** 2).sum()))
    return float((ra * rb).sum() / denom) if denom else 0.0


def spy(monkeypatch, owner, name, note):
    """Wrap owner.name so that each call first appends note(*args) to the
    list returned."""
    log, real = [], getattr(owner, name)

    def wrapper(*args):
        log.append(note(*args))
        return real(*args)
    monkeypatch.setattr(owner, name, wrapper)
    return log


def returns(monkeypatch, owner, name):
    """Wrap owner.name so that each call appends its result to the list
    returned."""
    log, real = [], getattr(owner, name)

    def wrapper(*args):
        log.append(real(*args))
        return log[-1]
    monkeypatch.setattr(owner, name, wrapper)
    return log


def face_key(pair):
    """The faces of a pair, K's then T's, vertices before edges: the order
    of their face ids."""
    return tuple((f.is_edge, f.index) for f in pair.k_faces + pair.t_faces)


def sorted_pairs(pairs):
    """BilliardPairs of any m by (length, m, face_key), ties in input order:
    the order of a report's candidates."""
    return sorted(pairs, key=lambda pr: (pr.length, len(pr.q), face_key(pr)))


def reference_dedupe(pairs):
    """pairs.dedupe as it was written on a list of BilliardPairs of one m:
    one pair per canonical key, the one with the smallest face_key (the
    first of equal ones), in the order of each key's first pair."""
    chosen = {}
    for pair in pairs:
        key = _canonical_keys(pair.q[None])[0]
        if key not in chosen or face_key(pair) < face_key(chosen[key]):
            chosen[key] = pair
    return list(chosen.values())


def assert_same_pairs(got, want):
    """Two pair lists with equal faces, lengths, q and p, in one order."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.length == b.length
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.p, b.p)
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
        assert a.q.tobytes() == b.q.tobytes()
        assert a.p.tobytes() == b.p.tobytes()
        assert a.certificate.to_json_obj() == b.certificate.to_json_obj()


def two_gon_minimum(K, T):
    """The least ell_T length of a closed 2-gon {q_1, q_2} that cannot be
    translated into the interior of K, in closed form (F^2_cp(K) of the
    paper).  q_1 and q_2 lie on the faces F(u) and F(-u) of K that maximize
    <u, x> and <-u, x> at some direction u: at every normal of K and its
    negative, and between two neighbouring ones of these, read from the
    vertices within 1e-12 of each support maximum.  The length is
    h_T(x) + h_T(-x) for x = q_2 - q_1 on the segment F(-u) - F(u), linear
    between the ends and the points where x crosses the line of a normal of
    T, so its least value over the segment is that of those points."""
    V, W = K.vertices, T.vertices
    crit = np.sort(np.arctan2(*np.concatenate([K.normals, -K.normals]).T[::-1]))
    theta = np.concatenate([crit, (crit + np.r_[crit[1:], crit[0] + 2 * math.pi]) / 2])
    tol = 1e-12 * (1 + np.abs(V).max())
    best = math.inf
    for u in np.column_stack([np.cos(theta), np.sin(theta)]):
        s = V @ u
        ends = (V[s <= s.min() + tol][:, None] - V[s >= s.max() - tol]).reshape(-1, 2)
        a = ends[np.argmax(np.hypot(*(ends - ends[0]).T))]  # the segment's two ends
        b = ends[np.argmax(np.hypot(*(ends - a).T))]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = cross2(a, T.normals) / cross2(a - b, T.normals)
        x = a + np.r_[0.0, 1.0, t[(t > 0) & (t < 1)]][:, None] * (b - a)
        best = min(best, float(((x @ W.T).max(1) + (-x @ W.T).max(1)).min()))
    return best


def reference_polar(T):
    """geom.polar as it was written: one 2x2 solve per facet, then the
    vertex cycle turned counterclockwise."""
    if T.origin_interior_margin() <= EPS_GEO:
        raise OriginNotInterior("polar body requires the origin strictly inside")
    w = np.empty_like(T.vertices)
    for i, ab in enumerate(T.face_table.ends[T.n:]):
        w[i] = np.linalg.solve(ab, np.ones(2))
    if cross2(w, w[cyclic(len(w))]).sum() < 0:
        w = w[::-1]
    return ConvexPolytope2.from_vertices(w)


def reference_check_weak_rule(K, T, q, normals):
    """verify.check_weak_rule as it was written, one supporting line at a
    time, with each normal at unit length before its support test."""
    v = np.asarray(q, float)
    m = len(v)
    resolution = 512
    h = K.diameter() / resolution
    worst = -math.inf
    for j in range(m):
        n = unit(normals[j])
        level = float(n @ v[j])
        if float((K.vertices @ n).max()) > level + EPS_GEO:
            raise LineNotSupporting(
                f"line {j} does not support K at its trajectory vertex")
        d = np.array([-n[1], n[0]])
        ts = np.arange(-resolution, resolution + 1) * h
        samples = v[j] + ts[:, None] * d
        total = (support_many(T, samples - v[(j - 1) % m]) +
                 support_many(T, v[(j + 1) % m] - samples))
        here = (float(support_many(T, (v[j] - v[(j - 1) % m])[None, :])[0]) +
                float(support_many(T, (v[(j + 1) % m] - v[j])[None, :])[0]))
        worst = max(worst, here - float(total.min()))
    return worst


def reference_largest_angle(triangle):
    """obtuse.largest_angle as it was written, one corner at a time."""
    v = triangle.vertices
    best = 0.0
    for i in range(3):
        a = v[(i - 1) % 3] - v[i]
        b = v[(i + 1) % 3] - v[i]
        c = float(a @ b) / (np.hypot(*a) * np.hypot(*b))
        best = max(best, math.acos(max(-1.0, min(1.0, c))))
    return best


def reference_family_t_construction(triangle, angle=math.pi / 2):
    """obtuse.family_t_construction as it was written: unit bisectors of
    the vertex normal cones, sorted by angle, then one 2x2 solve per new
    vertex."""
    rot = ConvexPolytope2.from_vertices(triangle.vertices @ rotation(angle).T)
    centred = ConvexPolytope2.from_vertices(rot.vertices - rot.centroid())
    ns, bs = [], []
    for i in range(3):
        g = normal_cone(centred, Face.vertex(i)).generators
        n = g[0] + g[1]
        n = n / np.hypot(*n)
        ns.append(n)
        bs.append(float(n @ centred.vertices[i]))
    ns, bs = np.array(ns), np.array(bs)
    order = np.argsort(np.arctan2(ns[:, 1], ns[:, 0]))
    ns, bs = ns[order], bs[order]
    verts = [np.linalg.solve(np.array([ns[i], ns[(i + 1) % 3]]),
                             np.array([bs[i], bs[(i + 1) % 3]]))
             for i in range(3)]
    return ConvexPolytope2.from_vertices(np.array(verts))


def reference_chunk_starts(masks, cap):
    """The oracle's chunk starts and tile side before each run was cut
    evenly: every run of equal masks cut at the multiples of one size, the
    smaller of cap and the longest run, so a run's last chunk holds what is
    left over."""
    N = len(masks)
    head = np.r_[True, masks[1:] != masks[:-1]]
    run = np.arange(N) - np.maximum.accumulate(np.where(head, np.arange(N), 0))
    size = min(cap, run.max() + 1)
    return np.flatnonzero(run % size == 0), int(size)
