import functools
import itertools
import sys

import numpy as np
import pytest

from minkbill import bounce2, lp as lpmod
from minkbill.bounce2 import (SearchStats, prefer_smooth, search_two_bounce,
                              solve_face_tuple)
from minkbill.bounce3 import search_three_bounce
from minkbill.fixtures import load, regular_ngon
from minkbill.geom import (EPS_ANG, EPS_GEO, Face, all_faces, cone_contains,
                           face_array, face_tuples, find_face, in_f, normal_cone)
from minkbill.lp import LinearProgram, NumericalFailure, solve, solve_interval
from minkbill.pairs import _canonical_keys, dedupe, make_pair, sort_pairs
from minkbill.randgen import random_instance, random_polytope
from minkbill.verify import certify

import corpus
from corpus import DIAMOND, SQUARE
from references import (Affine, assert_same_pairs, assert_same_search, certified_pair,
                        cones_intersect, reference_cone_rows, spy)


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
    """Each antipodal face pair of K meets each antipodal face pair of T in
    both orientations."""
    for K, T, count in ((SQUARE, DIAMOND, 512), (regular_ngon(6), DIAMOND, 768),
                        (regular_ngon(5), regular_ngon(7), 280)):
        stats = SearchStats()
        search_two_bounce(K, T, stats=stats)
        assert stats.tuples_after_filter == count == (
            len(_reference_antipodal_pairs(K)) * 2 * len(_reference_antipodal_pairs(T)))
        assert stats.side_solves <= stats.tuples_after_filter
        assert 0 < stats.tuples_after_screen <= stats.tuples_after_filter


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
                a, b = SQUARE.face_table.ends[SQUARE.n + f.index]
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
        nv = sum(f.is_edge for f in (f1, f2, g1, g2))  # one per facet
        if nv == 0:
            continue
        for _ in range(3):
            obj = 1e-2 * rng.standard_normal(nv)
            redo = solve_face_tuple(K, T, f1, f2, g1, g2, objective=obj)
            assert redo is not None
            assert abs(redo.length - pair.length) < 1e-8
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("K, T", [(SQUARE, SQUARE), (regular_ngon(6), DIAMOND)],
                         ids=["square-square", "hexagon-diamond"])
def test_objective_on_parallel_facet_tuples(K, T, rng, monkeypatch):
    """An objective on a tuple with a side of two parallel facets (whose
    points share the side's one variable) may move its points but not its
    length: for every certified tuple of the search with such a side, and
    for random objectives, solve_face_tuple returns a certified pair on the
    same faces whose length matches the unperturbed one to 1e-12 relative.
    Facet-facet
    tuples (all four faces facets) are among them.  The one exception is a
    pair of facets of K against two vertices of T: nothing pins the chord
    there but the two wedges, whose rows have the absolute slack EPS_GEO, so
    the LP's vertex may tilt it out of them and its length moves by up to
    about |chord| * EPS_GEO (2e-9 of 4 on the square).  Some objective
    does move a point."""
    seen = spy(monkeypatch, bounce2, "prefer_smooth", lambda K, T, pair: pair)
    search_two_bounce(K, T)
    patterns = set()
    moved = 0
    for pair in seen:
        faces = pair.k_faces + pair.t_faces
        kinds = tuple(f.is_edge for f in faces)
        if not (all(kinds[:2]) or all(kinds[2:])):
            continue
        patterns.add(kinds)
        plain = solve_face_tuple(K, T, *faces)
        assert plain is not None and plain.length == pair.length
        tilts = kinds == (True, True, False, False)
        for _ in range(4):
            redo = solve_face_tuple(K, T, *faces,
                                    objective=rng.standard_normal(sum(kinds)))
            assert redo is not None and certify(K, T, redo).certified
            assert (redo.k_faces, redo.t_faces) == (pair.k_faces, pair.t_faces)
            assert redo.length == pytest.approx(
                plain.length, rel=1e-12, abs=4 * EPS_GEO * _diameter(K) if tilts else 0)
            moved += not (np.array_equal(redo.q.vertices, plain.q.vertices)
                          and np.array_equal(redo.p.vertices, plain.p.vertices))
    assert (True, True, True, True) in patterns and len(patterns) >= 5
    assert moved


def test_no_duplicate_canonical_keys(rng):
    K, T = random_instance(rng, 6, 5)
    pairs = search_two_bounce(K, T)
    keys = _canonical_keys(pairs)
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
            from minkbill.geom import face_distances
            f, g = pair.k_faces[j], pair.t_faces[j]
            assert face_distances(K, face_array(K, [[f]]), pair.q.vertices[j]) < 1e-7
            assert face_distances(T, face_array(T, [[g]]), pair.p.vertices[j]) < 1e-7


def test_search_solves_no_simplex(monkeypatch):
    """Every side of a face tuple has at most one variable, so the 2-bounce
    search never calls lp.solve, and so no tableau simplex, also where sides
    of two parallel facets are certified.  The 3-bounce search solves its
    LPs by lp.solve_dual3 and never calls it either."""
    seen = spy(monkeypatch, bounce2, "prefer_smooth", lambda K, T, pair: pair)
    calls = spy(monkeypatch, lpmod, "solve", lambda lp: lp)
    three = []
    for K, T in ([(load(name).K, load(name).T) for name in ("fagnano", "exampleF_aux")]
                 + [(regular_ngon(n), regular_ngon(m)) for n, m in ((4, 4), (6, 3), (8, 12))]):
        assert search_two_bounce(K, T)
        three += search_three_bounce(K, T)
    assert calls == []
    assert three
    assert any(all(f.is_edge for f in faces)
               for pair in seen for faces in (pair.k_faces, pair.t_faces))


# ---------------------------------------------------------------------------
# the search one face tuple at a time, as it was written before the tuples of
# one (K, T) were batched: the reference for the batched search


@corpus.per_body
def _reference_antipodal_pairs(P):
    faces = all_faces(P)
    cones = [normal_cone(P, f) for f in faces]
    return [(f1, f2) for (i, f1), (j, f2) in
            itertools.combinations(enumerate(faces), 2)
            if cones_intersect(cones[i], cones[j].negate())]


def _reference_face_tuple(K, T, f1, f2, g1, g2, sides_apart=False):
    """The face tuple's pair by the simplex on one LP over both sides, one
    variable per facet, or, with sides_apart, by solve_interval on each
    side, whose facets share its one variable."""
    ck1, ck2 = normal_cone(K, f1), normal_cone(K, f2)
    ct1, ct2 = normal_cone(T, g1), normal_cone(T, g2)
    f_fixed = not (f1.is_edge or f2.is_edge)
    g_fixed = not (g1.is_edge or g2.is_edge)
    ends = []
    for P, f in ((K, f1), (K, f2), (T, g1), (T, g2)):
        a, b = P.face_table.ends[P.n + f.index]
        ends.append((a, b - a if f.is_edge else None))
    if f_fixed and g_fixed:
        dq = ends[1][0] - ends[0][0]
        dp = ends[3][0] - ends[2][0]
        if not (cone_contains(ct1, dq) and cone_contains(ct2, -dq)
                and cone_contains(ck2, -dp) and cone_contains(ck1, dp)):
            return None
        return certified_pair(K, T, make_pair(
            K, T, [ends[0][0], ends[1][0]], [ends[2][0], ends[3][0]],
            (f1, f2), (g1, g2)))
    facet = [d is not None for _, d in ends]
    if sides_apart:  # one variable per free side, in this order
        side_col = np.cumsum([any(facet[:2]), any(facet[2:])]) - 1
        col, nv = np.repeat(side_col, 2), side_col[-1] + 1
    else:  # one variable per facet, in this order
        col, nv = np.cumsum(facet) - 1, sum(facet)
    points = []
    for r, (base, d) in enumerate(ends):
        M = np.zeros((2, nv))
        if d is not None:
            M[:, col[r]] = d
        points.append(Affine(base, M))
    q1, q2, p1, p2 = points
    sides = []  # the rows of each free side
    if f_fixed:
        dq = q2.c - q1.c
        if not (cone_contains(ct1, dq) and cone_contains(ct2, -dq)):
            return None
    else:
        sides.append([])
        reference_cone_rows(sides[-1], q2 - q1, ct1)
        reference_cone_rows(sides[-1], q1 - q2, ct2)
    if g_fixed:
        dp = p2.c - p1.c
        if not (cone_contains(ck2, -dp) and cone_contains(ck1, dp)):
            return None
    else:
        sides.append([])
        reference_cone_rows(sides[-1], p2 - p1, ck2.negate())
        reference_cone_rows(sides[-1], p1 - p2, ck1.negate())
    if sides_apart:  # free side c has variable c
        x = np.zeros(nv)
        for c, rows in enumerate(sides):
            [status], [[x[c]]] = solve_interval(
                np.zeros(1), np.array([[[r[c]] for r, _, _ in rows]]),
                np.array([[b for _, b, _ in rows]]),
                np.array([e for _, _, e in rows]))
            if status != "optimal":
                return None
    else:
        rows = [row for side in sides for row in side]
        try:
            sol = solve(LinearProgram(
                np.zeros(nv), np.array([r for r, _, _ in rows]),
                np.array([b for _, b, _ in rows]),
                np.array([e for _, _, e in rows]), np.zeros(nv), np.ones(nv)))
        except lpmod.NumericalFailure:
            return None
        if sol.status != "optimal":
            return None
        x = sol.x
    return certified_pair(K, T, make_pair(
        K, T, [q1.at(x), q2.at(x)], [p1.at(x), p2.at(x)], (f1, f2), (g1, g2)))


def _per_tuple_reference(K, T, face_tuple=_reference_face_tuple):
    """search_two_bounce one face tuple and one lp.solve at a time; also
    returns the certified pairs in the order they reach prefer_smooth."""
    found = []
    t_pairs = _reference_antipodal_pairs(T)
    for f1, f2 in _reference_antipodal_pairs(K):
        for g1, g2 in t_pairs:
            for gg1, gg2 in ((g1, g2), (g2, g1)):
                pair = face_tuple(K, T, f1, f2, gg1, gg2)
                if pair is not None:
                    found.append(pair)
    return sort_pairs(dedupe([prefer_smooth(K, T, p) for p in found])), found


def test_batched_search_matches_per_tuple_reference(monkeypatch):
    """The batched search gives, bit for bit, what the per-tuple search
    gives with each side solved apart by solve_interval, both facets of a
    side on one variable: the same certified pairs reach prefer_smooth in
    the same order, and the same pairs come out, with equal lengths, q, p
    and faces.  The per-tuple search by the simplex, one LP over both sides
    of a tuple and one variable per facet, certifies the same tuples, with
    lengths equal to 1e-12 relative.  The points of a side with at most one
    facet agree to 1e-12 of the body's diameter.  A side of two parallel
    facets is compared by length only: its chords slide along the facets at
    one length, and the simplex, with a variable per facet, may stop at
    another of them.  The length and the compared points are bit for bit the
    same wherever the closed form reproduces the pivots (over 80 % of the
    pairs).  The regular and symmetric polygons have parallel facets, so
    vertex-vertex and facet-facet tuples reach the side solver there."""
    seen = spy(monkeypatch, bounce2, "prefer_smooth", lambda K, T, pair: pair)
    apart = functools.partial(_reference_face_tuple, sides_apart=True)
    patterns = set()
    total = compared = same = 0
    for _, K, T in corpus.cases("identity"):
        seen.clear()
        got = search_two_bounce(K, T)
        want, found = _per_tuple_reference(K, T, apart)
        assert_same_pairs(seen, found)
        assert_same_pairs(got, want)
        _, by_simplex = _per_tuple_reference(K, T)
        assert ([(p.k_faces, p.t_faces) for p in found]
                == [(p.k_faces, p.t_faces) for p in by_simplex])
        compared += len(found)
        for a, b in zip(found, by_simplex):
            assert a.length == pytest.approx(b.length, rel=1e-12, abs=0)
            sides = [(u.vertices, v.vertices, P) for faces, u, v, P in
                     ((a.k_faces, a.q, b.q, K), (a.t_faces, a.p, b.p, T))
                     if not all(f.is_edge for f in faces)]
            for u, v, P in sides:
                assert np.allclose(u, v, rtol=0, atol=1e-12 * (1 + _diameter(P)))
            same += (a.length == b.length
                     and all(np.array_equal(u, v) for u, v, _ in sides))
        patterns.update(tuple(f.is_edge for f in pair.k_faces + pair.t_faces)
                        for pair in found)
        total += len(got)
    assert total >= 300
    assert {(False, False, False, False), (True, True, True, True)} <= patterns
    assert len(patterns) >= 5
    assert 5 * same >= 4 * compared  # most sides take the simplex's own bits


# the face-tuple LP as it was written before every side used _cone_rows: a
# side with a facet on each body pinned its difference to the facet normal
# with a multiplier variable (v = w g, w >= 0) and two equality rows


def _multiplier_face_tuple(K, T, f1, f2, g1, g2):
    f_fixed = not (f1.is_edge or f2.is_edge)
    g_fixed = not (g1.is_edge or g2.is_edge)
    if f_fixed and g_fixed:  # no LP: as _reference_face_tuple
        return _reference_face_tuple(K, T, f1, f2, g1, g2)
    ck1, ck2 = normal_cone(K, f1), normal_cone(K, f2)
    ct1, ct2 = normal_cone(T, g1), normal_cone(T, g2)
    ends = []
    for P, f in ((K, f1), (K, f2), (T, g1), (T, g2)):
        a, b = P.face_table.ends[P.n + f.index]
        ends.append((a, b - a if f.is_edge else None))
    mixed = not f_fixed and not g_fixed
    nv = sum(d is not None for _, d in ends) + 2 * mixed
    points = []
    for r, (base, d) in enumerate(ends):
        M = np.zeros((2, nv))
        if d is not None:  # one variable per facet, in this order
            M[:, sum(e is not None for _, e in ends[:r])] = d
        points.append(Affine(base, M))
    q1, q2, p1, p2 = points
    rows = []
    if f_fixed:
        dq = q2.c - q1.c
        if not (cone_contains(ct1, dq) and cone_contains(ct2, -dq)):
            return None
        reference_cone_rows(rows, p2 - p1, ck2.negate())
        reference_cone_rows(rows, p1 - p2, ck1.negate())
    elif g_fixed:
        dp = p2.c - p1.c
        if not (cone_contains(ck2, -dp) and cone_contains(ck1, dp)):
            return None
        reference_cone_rows(rows, q2 - q1, ct1)
        reference_cone_rows(rows, q1 - q2, ct2)
    else:
        if g1.is_edge:
            w_expr, w = q2 - q1, T.normals[g1.index]
        else:
            w_expr, w = q1 - q2, T.normals[g2.index]
        if f2.is_edge:
            u_expr, u = p2 - p1, -K.normals[f2.index]
        else:
            u_expr, u = p1 - p2, -K.normals[f1.index]
        for coord in range(2):
            row = w_expr.M[coord].copy()
            row[nv - 2] -= w[coord]
            rows.append((row, -w_expr.c[coord], True))
            row = u_expr.M[coord].copy()
            row[nv - 1] -= u[coord]
            rows.append((row, -u_expr.c[coord], True))
        if not g1.is_edge:
            reference_cone_rows(rows, q2 - q1, ct1)
        if not g2.is_edge:
            reference_cone_rows(rows, q1 - q2, ct2)
        if not f2.is_edge:
            reference_cone_rows(rows, p2 - p1, ck2.negate())
        if not f1.is_edge:
            reference_cone_rows(rows, p1 - p2, ck1.negate())
    upper = np.ones(nv)
    if mixed:
        upper[nv - 2:] = np.inf
    try:
        sol = solve(LinearProgram(
            np.zeros(nv), np.array([r for r, _, _ in rows]),
            np.array([b for _, b, _ in rows]),
            np.array([e for _, _, e in rows]), np.zeros(nv), upper))
    except lpmod.NumericalFailure:
        return None
    if sol.status != "optimal":
        return None
    return certified_pair(K, T, make_pair(
        K, T, [q1.at(sol.x), q2.at(sol.x)], [p1.at(sol.x), p2.at(sol.x)],
        (f1, f2), (g1, g2)))


def _diameter(P):
    return float(np.max(np.linalg.norm(
        P.vertices[:, None] - P.vertices[None], axis=-1)))


def _status_log(solve_lp, log):
    """solve_lp, appending the status of every LP it solves to log."""
    def logged(lp):
        try:
            sol = solve_lp(lp)
        except NumericalFailure:
            log.append("numerical")
            raise
        log.append(sol.status)
        return sol
    return logged


def test_cone_rows_match_multiplier_formulation(monkeypatch):
    """The cone rows of a facet's ray (cross(g, v) = 0, <g, v> >= 0) decide
    every face tuple as the multiplier formulation does: the same tuples
    are feasible (they reach certification), the same tuples are certified,
    with lengths equal to 1e-12 relative, and the search returns the same
    pairs, with q and p equal to 1e-12 of the body's diameter.  Within a
    family of constant length the two may stop at different points, so the
    pairs before prefer_smooth are compared by faces and length only."""
    seen, statuses = spy(monkeypatch, bounce2, "prefer_smooth", lambda K, T, pair: pair), []
    feasible = spy(monkeypatch, bounce2, "certified_pairs", lambda K, T, q, p, kf, tf:
                   list(zip(face_tuples(K, kf), face_tuples(T, tf))))
    multiplier_feasible = spy(monkeypatch, sys.modules[__name__], "make_pair",
                              lambda K, T, q, p, kf, tf: (tuple(kf), tuple(tf)))
    monkeypatch.setattr(sys.modules[__name__], "solve",
                        _status_log(solve, statuses))
    total = 0
    for _, K, T in corpus.cases("identity"):
        for log in (seen, feasible, multiplier_feasible):
            log.clear()
        got = search_two_bounce(K, T)
        want, found = _per_tuple_reference(K, T, _multiplier_face_tuple)
        # the search's one stack; prefer_smooth certifies one pair after it
        assert feasible[0] == multiplier_feasible
        assert ([(p.k_faces, p.t_faces) for p in seen]
                == [(p.k_faces, p.t_faces) for p in found])
        for a, b in zip(seen, found):
            assert a.length == pytest.approx(b.length, rel=1e-12, abs=0)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.k_faces == b.k_faces and a.t_faces == b.t_faces
            assert a.length == pytest.approx(b.length, rel=1e-12, abs=0)
            assert np.allclose(a.q.vertices, b.q.vertices, rtol=0,
                               atol=1e-12 * (1 + _diameter(K)))
            assert np.allclose(a.p.vertices, b.p.vertices, rtol=0,
                               atol=1e-12 * (1 + _diameter(T)))
        total += len(got)
    assert total >= 300
    assert min(statuses.count(s) for s in ("optimal", "infeasible")) >= 300


def test_antipodal_filter_matches_cones_intersect(rng):
    bodies = [SQUARE, DIAMOND] + [regular_ngon(n) for n in (3, 4, 6, 12, 64)]
    bodies += [random_polytope(rng, n) for n in (3, 4, 5, 8, 13, 25)]
    for P in bodies:
        want = face_array(P, _reference_antipodal_pairs(P)).tolist()
        assert bounce2._antipodal_pairs(P).tolist() == want


def _per_face_antipodal_pairs(P):
    """_antipodal_pairs as it was written before it read face_cones arrays:
    one normal_cone and its angles per face."""
    cones = [normal_cone(P, f) for f in all_faces(P)]
    a1, w1 = np.array([c.angles() for c in cones]).T
    a2, w2 = np.array([c.negate().angles() for c in cones]).T
    i, j = np.triu_indices(len(cones), 1)
    d12 = (a2[j] - a1[i]) % (2 * np.pi)
    d21 = (a1[i] - a2[j]) % (2 * np.pi)
    ok = (d12 <= w1[i] + EPS_ANG) | (d21 <= w2[j] + EPS_ANG)
    return np.column_stack([i[ok], j[ok]])


def test_antipodal_pairs_match_per_face_reference(rng):
    """The stacked cones give the same antipodal pairs as one cone per
    face, on bodies whose parallel facets put angles on the EPS_ANG edge."""
    bodies = [SQUARE, DIAMOND] + [regular_ngon(n) for n in (3, 4, 6, 12, 64, 256)]
    bodies += [random_polytope(rng, n) for n in (3, 4, 5, 8, 13, 25)]
    bodies += [P for _, K, T in corpus.cases("identity") for P in (K, T)]
    for P in bodies:
        got = bounce2._antipodal_pairs(P)
        want = _per_face_antipodal_pairs(P)
        assert got.shape == want.shape and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# the search before the chord screen: _solve_tuples on the whole product of
# the antipodal face pairs, the reference of the screened search


def _unscreened_two_bounce(K, T, solve_tuples=bounce2._solve_tuples):
    """search_two_bounce as it was before _side_tables screened the face
    tuples, and the number of tuples it solved."""
    k_pairs, t_pairs = bounce2._antipodal_pairs(K), bounce2._antipodal_pairs(T)
    t_both = np.stack([t_pairs, t_pairs[:, ::-1]], 1).reshape(-1, 2)
    tuples = np.concatenate([np.repeat(k_pairs, len(t_both), 0),
                             np.tile(t_both, (len(k_pairs), 1))], 1)
    found = [prefer_smooth(K, T, pair) for pair in solve_tuples(K, T, tuples)
             if pair is not None]
    return sort_pairs(dedupe(found)), len(tuples)


def _reference_side_solves(K, T):
    """SearchStats.side_solves one face tuple at a time: the tuples of the
    product with a facet whose sides without one pass their cone checks."""
    count = 0
    t_pairs = _reference_antipodal_pairs(T)
    for f1, f2 in _reference_antipodal_pairs(K):
        q_free = f1.is_edge or f2.is_edge
        dq = K.vertices[f2.index] - K.vertices[f1.index]
        for g1, g2 in t_pairs:
            for h1, h2 in ((g1, g2), (g2, g1)):
                p_free = h1.is_edge or h2.is_edge
                dp = T.vertices[h2.index] - T.vertices[h1.index]
                count += bool((q_free or p_free)
                              and (q_free or (cone_contains(normal_cone(T, h1), dq)
                                              and cone_contains(normal_cone(T, h2), -dq)))
                              and (p_free or (cone_contains(normal_cone(K, f2), -dp)
                                              and cone_contains(normal_cone(K, f1), dp))))
    return count


def test_chord_screen_drops_only_tuples_the_side_lps_reject(monkeypatch):
    """The chord screen of search_two_bounce drops only face tuples that
    _solve_tuples would not pass to certification: every stack handed to
    certified_pairs is byte-identical to that of the unscreened search, and
    so are the returned pairs, certificates included.  side_solves keeps
    counting the whole product (checked one tuple at a time where it is
    small), and the screen screens: at most 200 of the grid pool's 26,912
    face tuples reach _solve_tuples."""
    real_solve = bounce2._solve_tuples
    calls = spy(monkeypatch, bounce2, "certified_pairs",
                lambda K, T, *rows: list(map(np.asarray, rows)))
    solved = spy(monkeypatch, bounce2, "_solve_tuples", lambda K, T, tuples: len(tuples))
    grid, labels, total = [0, 0], set(), 0
    for label, K, T in corpus.cases("chord"):
        calls.clear()
        stats = SearchStats()
        got = search_two_bounce(K, T, stats)
        screened = list(calls)
        calls.clear()
        want, product = _unscreened_two_bounce(K, T, real_solve)
        assert_same_search(screened, calls, got, want)
        assert stats.tuples_after_filter == product
        assert solved[-1] == stats.tuples_after_screen <= product
        if product <= 2000:
            assert stats.side_solves == _reference_side_solves(K, T)
        if label.startswith("grid/"):
            grid[0] += product
            grid[1] += stats.tuples_after_screen
        labels.add(label.split("/")[0])
        total += len(got)
    assert grid[0] == 26912 and grid[1] <= 200
    assert len(labels) == 7 and total >= 900
