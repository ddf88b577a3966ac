"""Named, seeded sets of (label, K, T) cases shared by the differential
tests, and the plain search results of each as tuples of one-row stacks,
built once per session and read-only.  A label is "<pool>/<instance>", "fixture/<name>", a kind, or in
"brute" the oracle's grid.  A test that monkeypatches a search runs it
itself.  tests/test_corpus.py pins every set."""

import functools
import itertools
import json
from pathlib import Path
from types import MappingProxyType

import numpy as np

from minkbill.bounce2 import search_two_bounce
from minkbill.bounce3 import search_three_bounce
from minkbill.fixtures import fixture_names, load, regular_ngon
from minkbill.geom import ConvexPolytope2, InvalidPolytope, rotation
from minkbill.randgen import random_instance, random_polytope

from references import rows, scaled, symmetric_polygon

POOLS = Path(__file__).resolve().parents[1] / "perfbench" / "pools"
SQUARE = ConvexPolytope2.from_vertices([(1, -1), (1, 1), (-1, 1), (-1, -1)])
DIAMOND = ConvexPolytope2.from_vertices([(1, 0), (0, 1), (-1, 0), (0, -1)])


@functools.cache
def pool(name):
    """The frozen instances of perfbench/pools/<name>.json, read once."""
    with open(POOLS / f"{name}.json") as fh:
        return tuple(map(MappingProxyType, json.load(fh)["instances"]))


def _pool_cases(name):
    return [(f"{name}/{inst['name']}", ConvexPolytope2.from_vertices(inst["K"]),
             ConvexPolytope2.from_vertices(inst["T"])) for inst in pool(name)]


BUILDERS = {name: functools.partial(_pool_cases, name) for name in ("grid", "oracle", "ngon")}


def _named(build):
    BUILDERS[build.__name__] = build
    return build


@functools.cache
def cases(name):
    return tuple(BUILDERS[name]())


@_named
def fixtures():
    return [(f"fixture/{name}", load(name).K, load(name).T) for name in fixture_names()]


@_named
def identity():
    """The fixtures, square and diamond, regular n-gons, random pairs (every
    fourth T translated) and random centrally symmetric pairs; all but the
    random pairs have parallel facets."""
    ngons = [regular_ngon(n) for n in (3, 4, 6, 12)]
    out = list(cases("fixtures"))
    out += [("plain", P, Q) for P, Q in itertools.product([SQUARE, DIAMOND], repeat=2)]
    out += [("regular", *pair) for pair in itertools.chain(
        zip(ngons, ngons), zip(ngons, [DIAMOND] * 4), zip([SQUARE] * 4, ngons))]
    rng = np.random.default_rng(2)
    for k in range(110):
        K, T = random_instance(rng, int(rng.integers(3, 8)), int(rng.integers(3, 8)))
        out.append(("random", K, T.translate(rng.uniform(-3.0, 3.0, 2)) if k % 4 == 0 else T))
    rng = np.random.default_rng(14)
    return out + [("symmetric", *(symmetric_polygon(rng, int(rng.integers(2, 7)))
                                  for _ in range(2))) for _ in range(6)]


@_named
def chord():
    """The benchmark pools, the fixtures, regular 3- to 64-gons (parallel
    facets), a side feasible only within its slack, and random 3- to 25-gons
    scaled by powers of two in 2^-12..2^20 and translated."""
    out = [*cases("grid"), *cases("oracle"), *cases("ngon"), *cases("fixtures")]
    out += [("regular", regular_ngon(n), regular_ngon(m))
            for n, m in ((3, 3), (4, 4), (4, 6), (5, 8), (6, 6), (8, 3), (12, 12),
                         (16, 4), (32, 6), (64, 64))]
    # facet sides that solve_interval accepts only past a facet end: the
    # chords from (0, c) to the bottom facet of c house miss the normal
    # (0, 1) of the square by 5e-10 c, and an equality pins t = -5e-10
    house = ConvexPolytope2.from_vertices([(5e-10, -1), (1, -1), (1, 0), (0, 1), (-1, 0)])
    for c in (1.0, 2.0 ** 10, 2.0 ** 20):
        out += [("slack", scaled(house, c, 0.0), SQUARE),
                ("slack", SQUARE, scaled(house, c, 0.0))]
    rng = np.random.default_rng(22)
    for _ in range(60):
        K, T = random_instance(rng, int(rng.integers(3, 26)), int(rng.integers(3, 26)))
        c, d = 2.0 ** rng.integers(-12, 21, size=2)
        out.append(("scaled", scaled(K, c, c * rng.uniform(-3, 3, 2)),
                    scaled(T, d, d * rng.uniform(-3, 3, 2))))
    return out


@_named
def contact():
    """chord, the fixtures rotated, where a contact cone on an edge of its
    wedge rounds to either side of it, a seeded random 96-gon K against an
    8-gon T, and regular K moved 2^31 from the origin against regular T that
    share their normals, where the rows that vanish at a corner chord round
    to about EPS_CERT in either form of the row test."""
    out = list(cases("chord"))
    for _, K, T in cases("fixtures"):
        out += [("rotated", *(ConvexPolytope2.from_vertices(P.vertices @ rotation(a).T)
                              for P in (K, T))) for a in (0.3, 2.0)]
    rng = np.random.default_rng(0)
    out.append(("96-gon", random_polytope(rng, 96), random_polytope(rng, 8)))
    return out + [("far", scaled(regular_ngon(n), 2.0 ** s, np.array([1.0, 0.75]) * 2.0 ** 31),
                   regular_ngon(m)) for n, m, s in ((4, 4, 0), (6, 12, 4), (8, 8, 10),
                                                    (12, 6, 4), (16, 8, 0), (16, 4, 10))]


@_named
def search():
    """The fixtures and 120 random instances; every third T is moved off
    the origin, so that the inbody LPs run phase 1."""
    out = list(cases("fixtures"))
    rng = np.random.default_rng(12345)
    for k in range(120):
        K, T = random_instance(rng, int(rng.integers(3, 9)), int(rng.integers(3, 9)))
        out.append(("random", K, T.translate(rng.uniform(-4.0, 4.0, 2)) if k % 3 == 0 else T))
    return out


@_named
def inbody():
    """The fixtures, 150 seeded random pairs of 3- to 16-gons, each followed
    by a copy scaled by 10**u, u uniform in [-3, 3], and translated by up to
    1e3; u is drawn again where from_vertices rejects the scaled or the
    translated copy (about 2 % of 16-gons at 1e-3)."""
    def moved(P):
        while True:
            try:
                return P.scale(10.0 ** rng.uniform(-3.0, 3.0)).translate(
                    rng.uniform(-1e3, 1e3, size=2))
            except InvalidPolytope:
                pass

    out = list(cases("fixtures"))
    rng = np.random.default_rng(12345)
    for _ in range(150):
        K, T = random_instance(rng, int(rng.integers(3, 17)), int(rng.integers(3, 17)))
        out += [("random", K, T), ("moved", moved(K), moved(T))]
    return out


@_named
def brute():
    """The oracle's cases, labelled with their grids: seeded random bodies,
    regular n-gon pairs (with and without parallel facets), and the fixtures
    whose K the oracle takes."""
    rng = np.random.default_rng(20240601)
    out = []
    for _ in range(60):
        K, T = random_instance(rng, int(rng.integers(3, 9)), int(rng.integers(3, 13)))
        out.append((int(rng.integers(2, 41)), K, T))
    out += [(12, regular_ngon(nk), regular_ngon(nt))
            for nk in (3, 4, 6, 8) for nt in (3, 4, 5, 12)]
    out += [(10, K, T) for _, K, T in cases("fixtures") if K.n <= 16]
    # grid 1: every class of the m = 3 blocks is one vertex point
    out += [(1, *random_instance(rng, int(rng.integers(3, 9)), int(rng.integers(3, 13))))
            for _ in range(4)]
    out += [(1, regular_ngon(nk), regular_ngon(5)) for nk in (3, 4, 16)]
    # a triangle K, from one to 24 inner points per facet
    out += [(grid, regular_ngon(3, phase=0.3), regular_ngon(7)) for grid in (2, 3, 7, 25)]
    # a trapezoid K whose shortest grid triangles at grids 3 and 8 have their
    # first two points on the inner points of one facet; then the largest K
    # the oracle takes; facets of several chunks each, and symmetric bodies
    # whose chunk bounds tie in many places
    K = ConvexPolytope2.from_vertices([(2.1, 0), (2.7, 0), (4, 1), (0, 1)])
    T = ConvexPolytope2.from_vertices([(-2.9, 0.3), (-1.1, -1.2), (2.3, -1.5)])
    return out + [(3, K, T), (8, K, T), (3, *random_instance(rng, 16, 6)),
                  (2, regular_ngon(16), regular_ngon(16, phase=0.1)),
                  (33, SQUARE, SQUARE), (40, regular_ngon(6), regular_ngon(6))]


@_named
def certify():
    """The five small fixtures and five seeded random instances."""
    rng = np.random.default_rng(11)
    return [*cases("fixtures")[:5], *(
        ("random", *random_instance(rng, int(rng.integers(3, 9)), int(rng.integers(3, 9))))
        for _ in range(5))]


@_named
def table():
    """Bodies two by two: the fixtures, the benchmark pools, regular 3- to
    256-gons, and random 3- to 25-gons scaled by powers of two in
    2^-12..2^20 and translated by up to 1e3."""
    rng = np.random.default_rng(23)
    regular = [regular_ngon(n, phase=0.1 * n) for n in range(3, 257)]
    moved = [scaled(random_polytope(rng, int(rng.integers(3, 26))),
                    2.0 ** int(rng.integers(-12, 21)), rng.uniform(-1e3, 1e3, 2))
             for _ in range(60)]
    return [*cases("fixtures"), *cases("grid"), *cases("oracle"), *cases("ngon"),
            *(("regular", *regular[k:k + 2]) for k in range(0, len(regular), 2)),
            *(("scaled", *moved[k:k + 2]) for k in range(0, len(moved), 2))]


@functools.cache
def two_bounce(name):
    return tuple(tuple(rows(search_two_bounce(K, T))) for _, K, T in cases(name))


@functools.cache
def three_bounce(name):
    return tuple(tuple(rows(search_three_bounce(K, T))) for _, K, T in cases(name))


def per_body(reference):
    """reference(*bodies) as a tuple, computed once per tuple of body
    objects (by their ids; the entry holds the bodies, so that no other body
    can take one of those ids)."""
    cache = {}

    def cached(*bodies):
        key = tuple(map(id, bodies))
        if key not in cache:
            cache[key] = bodies, tuple(reference(*bodies))
        return cache[key][1]
    return cached
