"""Named instance fixtures.

Each fixture bundles the two bodies and any distinguished curves, read-only
(m, 2) arrays (with a forced dual curve where the example needs one).  The
values the tests check on them are exact by construction of the instances
(rational data, hand-checkable support values)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from .geom import ConvexPolytope2, read_only


class UnknownFixture(KeyError):
    pass


@dataclass(frozen=True)
class Fixture:
    name: str
    K: ConvexPolytope2
    T: ConvexPolytope2
    curves: Dict[str, np.ndarray] = field(default_factory=dict)
    forced_duals: Dict[str, np.ndarray] = field(default_factory=dict)


def regular_ngon(n: int, radius: float = 1.0, phase: float = 0.0
                 ) -> ConvexPolytope2:
    ang = phase + 2 * math.pi * np.arange(n) / n
    return ConvexPolytope2.from_vertices(
        radius * np.column_stack([np.cos(ang), np.sin(ang)]))


def equilateral_triangle() -> ConvexPolytope2:
    return regular_ngon(3)


def _poly(*verts) -> ConvexPolytope2:
    return ConvexPolytope2.from_vertices(np.array(verts, float))


def example_g_curve(a: float) -> np.ndarray:
    """The 2-bounce family on the triangle/rectangle instance, (2, 2); its
    length is 4 - 4a for a in [0, 1/2]."""
    return read_only([[-1 + a, 1 - 2 * a], [1 - a, 1 - 2 * a]])


def _build_example_a() -> Fixture:
    """A weak 3-bounce trajectory admitting no strong counterpart."""
    K = _poly((1, 0), (0, 1), (-1, 0))
    T = _poly((1, 1), (-1, 1), (-1, -1), (1, -1))
    q = read_only([[0, 0], [0.5, 0.5], [-0.5, 0.5]])
    p = read_only([[0, 1], [-1, 0], [0, -1]])
    return Fixture(
        name="exampleA", K=K, T=T,
        curves={"q": q}, forced_duals={"q": p})


def _build_example_d() -> Fixture:
    """Contact normals all inside a closed halfplane."""
    K = _poly((1, -1), (1, 1), (-1, 1), (-1, -1))
    T = _poly((2, 1), (-2, 1), (0, -1))
    q = read_only([[0, -1], [0, 1], [1, 0]])
    return Fixture(name="exampleD", K=K, T=T, curves={"q": q})


def _build_example_e() -> Fixture:
    """The curve can be translated into the interior of K (by (0, 0.5))."""
    K = _poly((1, -1), (4, 2), (-4, 2), (-1, -1))
    T = _poly((0.5, 2), (-0.5, 0), (0.5, -2))
    q = read_only([[0, -1], [-2, 0], [2, 0]])
    return Fixture(name="exampleE", K=K, T=T, curves={"q": q})


def _build_example_f_aux() -> Fixture:
    """Rectangle with diamond geometry; the short chord has length 4, the
    minimum."""
    K = _poly((0, -1), (0, 1), (-2, 1), (-2, -1))
    T = _poly((1, 0), (0, 1), (-1, 0), (0, -1))
    chord = read_only([[0, -1], [0, 1]])
    return Fixture(name="exampleF_aux", K=K, T=T, curves={"q": chord})


def _build_example_g() -> Fixture:
    """A one-parameter family of 2-bounce curves of length 4 - 4a."""
    K = _poly((1, 1), (-1, 1), (0, -1))
    T = _poly((1, -2), (1, 2), (-1, 2), (-1, -2))
    return Fixture(name="exampleG", K=K, T=T)


def obtuse_triangle_100() -> ConvexPolytope2:
    """A triangle whose largest interior angle exceeds 100 degrees."""
    return _poly((0, 0), (4, 0), (0.5, 0.5))


def _build_obtuse100() -> Fixture:
    """Obtuse triangle vs. a regular polygon standing in for the disk; it
    has no regular 3-bounce trajectory."""
    return Fixture(name="obtuse100", K=obtuse_triangle_100(), T=regular_ngon(64))


def _build_fagnano() -> Fixture:
    """Equilateral triangle; the minimizer is the midpoint triangle."""
    return Fixture(name="fagnano", K=equilateral_triangle(), T=regular_ngon(256))


_REGISTRY: Dict[str, Callable[[], Fixture]] = {
    "exampleA": _build_example_a,
    "exampleD": _build_example_d,
    "exampleE": _build_example_e,
    "exampleF_aux": _build_example_f_aux,
    "exampleG": _build_example_g,
    "obtuse100": _build_obtuse100,
    "fagnano": _build_fagnano,
}

_UNBUILDABLE = {
    "exampleB": "requires a smooth (non-polytopal) body and is out of scope",
    "exampleC": "requires a smooth (non-polytopal) body and is out of scope",
}


def fixture_names() -> List[str]:
    return sorted(_REGISTRY)


def load(name: str) -> Fixture:
    if name in _UNBUILDABLE:
        raise UnknownFixture(f"{name}: {_UNBUILDABLE[name]}")
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise UnknownFixture(
            f"{name!r} is not a known fixture; available: {fixture_names()}")
    return builder()
