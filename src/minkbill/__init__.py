"""Length-minimizing closed billiard trajectories on a convex polytope whose
geometry is induced by a second convex polytope."""

__version__ = "0.1.0"

from .geom import (ConvexPolytope2, Face, GeometryError, InvalidPolytope,
                   OriginNotInterior, ZeroVector, all_faces, cone_contains,
                   cone_distance, ell_length, find_face, gauge, in_f,
                   normal_cone, polar, positively_spans, support)
from .pairs import Pairs
from .bounce2 import search_two_bounce, solve_face_tuple
from .bounce3 import search_three_bounce
from .verify import brute_force_min, certify, check_weak_rule
from .fixtures import UnknownFixture, load as load_fixture
from .obtuse import in_family_t, regular_three_bounce_exists
from .randgen import random_instance, random_polytope

__all__ = [
    "ConvexPolytope2", "Face", "GeometryError", "InvalidPolytope",
    "OriginNotInterior", "Pairs", "UnknownFixture", "ZeroVector", "all_faces",
    "brute_force_min", "certify", "check_weak_rule", "cone_contains",
    "cone_distance", "ell_length", "find_face", "gauge", "in_f",
    "in_family_t", "load_fixture", "normal_cone", "polar",
    "positively_spans", "random_instance", "random_polytope",
    "regular_three_bounce_exists", "search_three_bounce", "search_two_bounce",
    "solve_face_tuple", "support",
]
