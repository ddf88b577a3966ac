import numpy as np
import pytest

from minkbill import bounce2
from minkbill.bounce2 import (SearchStats, search_two_bounce, solve_face_tuple,
                              tuple_variable_count, two_bounce_tuple_count)
from minkbill.geom import ConvexPolytope2, Face, find_face, in_f
from minkbill.lp import NumericalFailure
from minkbill.pairs import _canonical_key
from minkbill.randgen import random_instance
from minkbill.verify import certify

SQUARE = ConvexPolytope2.from_vertices([(1, -1), (1, 1), (-1, 1), (-1, -1)])
DIAMOND = ConvexPolytope2.from_vertices([(1, 0), (0, 1), (-1, 0), (0, -1)])


def test_square_square_min_is_four():
    pairs = search_two_bounce(SQUARE, SQUARE)
    assert pairs
    assert pairs[0].length == pytest.approx(4.0)


def test_square_diamond_min_is_four():
    # any axis chord has length h_T(2e) + h_T(-2e) = 4 in diamond geometry,
    # and the diagonal chords are no shorter
    pairs = search_two_bounce(SQUARE, DIAMOND)
    assert pairs[0].length == pytest.approx(4.0)


def test_enumeration_count_matches_closed_form():
    assert two_bounce_tuple_count(SQUARE, DIAMOND) == 28 * 28
    stats = SearchStats()
    search_two_bounce(SQUARE, DIAMOND, stats=stats)
    assert stats.tuples_considered == 28 * 28
    assert stats.tuples_after_filter <= 2 * stats.tuples_considered
    assert stats.lp_solves <= stats.tuples_after_filter


def test_returned_pairs_certified_and_immovable(rng):
    for _ in range(5):
        K, T = random_instance(rng, int(rng.integers(3, 7)),
                               int(rng.integers(3, 7)))
        for pair in search_two_bounce(K, T):
            cert = certify(K, T, pair)
            assert cert.certified
            assert in_f(K, pair.q.vertices)
            assert in_f(T, pair.p.vertices)
            assert pair.length > 0


def test_multipliers_match_reflection_law():
    pairs = search_two_bounce(SQUARE, SQUARE)
    pair = pairs[0]
    dq = pair.q.edges()
    for j in range(2):
        assert pair.lambdas[j] == pytest.approx(float(np.hypot(*dq[j])))


def test_prefer_smooth_interior_bounce():
    # every minimal chord between parallel facets should sit strictly inside
    # both facets after smoothing
    for pair in search_two_bounce(SQUARE, SQUARE):
        if all(f.is_edge for f in pair.k_faces):
            for j, f in enumerate(pair.k_faces):
                a, b = SQUARE.facet_segment(f.index)
                d = b - a
                t = float((pair.q.vertices[j] - a) @ d / (d @ d))
                assert 1e-4 < t < 1 - 1e-4


def test_perturbed_objective_same_length(rng):
    K, T = random_instance(rng, 5, 5)
    pairs = search_two_bounce(K, T)
    assert pairs
    checked = 0
    for pair in pairs:
        f1, f2 = pair.k_faces
        g1, g2 = pair.t_faces
        nv = tuple_variable_count(f1, f2, g1, g2)
        if nv == 0:
            continue
        for _ in range(3):
            obj = 1e-2 * rng.standard_normal(nv)
            redo = solve_face_tuple(K, T, f1, f2, g1, g2, objective=obj)
            assert redo is not None
            assert abs(redo.length - pair.length) < 1e-8
            checked += 1
    assert checked > 0


def test_no_duplicate_canonical_keys(rng):
    K, T = random_instance(rng, 6, 5)
    pairs = search_two_bounce(K, T)
    keys = [_canonical_key(p, 1e-7) for p in pairs]
    assert len(keys) == len(set(keys))


def test_infeasible_tuple_returns_none():
    # adjacent facets of the square are not antipodal
    out = solve_face_tuple(SQUARE, SQUARE, Face.edge(0), Face.edge(1),
                           Face.edge(0), Face.edge(2))
    assert out is None


def test_declared_faces_contain_vertices(rng):
    K, T = random_instance(rng, 4, 6)
    for pair in search_two_bounce(K, T):
        for j in range(2):
            f = find_face(K, pair.q.vertices[j], tol=1e-7)
            # the declared face need not be minimal, but must contain the point
            from minkbill.geom import face_distance
            assert face_distance(K, pair.k_faces[j], pair.q.vertices[j]) < 1e-7
            assert face_distance(T, pair.t_faces[j], pair.p.vertices[j]) < 1e-7


def test_face_tuple_numerical_failure_is_no_pair(monkeypatch):
    """A face-tuple LP that fails numerically rules out that tuple only:
    the search completes with the pairs of the other tuples."""
    K, T = SQUARE, DIAMOND
    clean = search_two_bounce(K, T)
    solve_rows = bounce2._solve_rows
    calls = []

    def fail_first(rows, objective, upper):
        calls.append(len(rows))
        if len(calls) == 1:
            raise NumericalFailure("pivot budget exhausted")
        return solve_rows(rows, objective, upper)
    monkeypatch.setattr(bounce2, "_solve_rows", fail_first)
    pairs = search_two_bounce(K, T)
    assert len(calls) > 1
    assert pairs and pairs[0].length == pytest.approx(clean[0].length)
    clean_lengths = [p.length for p in clean]
    assert all(min(abs(p.length - c) for c in clean_lengths) < 1e-12
               for p in pairs)
