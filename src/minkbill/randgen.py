"""Seeded random instance generation.

Vertices are drawn as normally distributed directions rescaled to uniform
lengths; the draw is repeated until its points are in strictly convex
position, so that each is a vertex.  For large vertex counts the radius
interval is narrowed towards its upper end (points close to a common circle
are all extreme), which keeps the rejection loop short."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .geom import ConvexPolytope2, InvalidPolytope, cross2, cyclic

_MAX_TRIES = 1000  # draws of one polytope before GenerationExhausted


class GenerationExhausted(RuntimeError):
    pass


def random_polytope(rng: np.random.Generator, n: int) -> ConvexPolytope2:
    if n < 3:
        raise ValueError("need at least three vertices")
    lo, hi = (1.0, 3.0) if n < 30 else (2.5, 3.0)
    for attempt in range(_MAX_TRIES):
        if attempt and attempt % 50 == 0:
            lo = 0.5 * (lo + hi)  # shrink towards the circle, keeps draws convex
        dirs = rng.normal(size=(n, 2))
        norms = np.hypot(dirs[:, 0], dirs[:, 1])
        good = norms > 1e-12
        dirs = dirs[good] / norms[good, None]
        radii = rng.uniform(lo, hi, size=dirs.shape[0])
        pts = dirs * radii[:, None]
        # in strictly convex position iff every turn is left in angle order
        # about the mean; from_vertices takes them from the lexicographically
        # least point on
        d = pts - pts.mean(axis=0)
        pts = pts[np.argsort(np.arctan2(d[:, 1], d[:, 0]))]
        edges = pts[cyclic(len(pts))] - pts
        if len(pts) < n or (cross2(edges, edges[cyclic(len(pts))]) <= 0).any():
            continue
        first = np.lexsort((pts[:, 1], pts[:, 0]))[0]
        try:
            return ConvexPolytope2.from_vertices(np.roll(pts, -first, axis=0))
        except InvalidPolytope:
            continue
    raise GenerationExhausted(
        f"no {n}-vertex polytope after {_MAX_TRIES} attempts")


def random_instance(rng: np.random.Generator, n_k: int, n_t: int
                    ) -> Tuple[ConvexPolytope2, ConvexPolytope2]:
    """A body K and a geometry T; T is recentred so the origin is interior
    (required for its gauge; lengths are unaffected by translating K)."""
    K = random_polytope(rng, n_k)
    T = random_polytope(rng, n_t)
    if T.origin_interior_margin() <= 1e-6:
        T = T.translate(-T.centroid())
    return K, T
