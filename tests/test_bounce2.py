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
from minkbill.geom import (EPS_ANG, EPS_CERT, EPS_GEO, Face, NormalConeRep, all_faces,
                           cone_contains, cone_rows, cross2, dot2, face_array, face_tuples,
                           find_face, in_f, normal_cone)
from minkbill.lp import solve, solve_interval
from minkbill.pairs import _canonical_keys, dedupe, make_pair, sort_pairs
from minkbill.randgen import random_instance, random_polytope
from minkbill.verify import certify

import corpus
from corpus import DIAMOND, SQUARE
from references import (Affine, assert_same_pairs, assert_same_search, certified_pair,
                        cones_intersect, face_key, faces_of, reference_cone_rows,
                        reference_dedupe, returns, rows, sorted_pairs, spy)


def test_square_square_min_is_four():
    pairs = search_two_bounce(SQUARE, SQUARE)
    assert pairs
    assert pairs.length[0] == pytest.approx(4.0)


def test_square_diamond_min_is_four():
    # any axis chord has length h_T(2e) + h_T(-2e) = 4 in diamond geometry,
    # and the diagonal chords are no shorter
    pairs = search_two_bounce(SQUARE, DIAMOND)
    assert pairs.length[0] == pytest.approx(4.0)


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
        for pair in rows(search_two_bounce(K, T)):
            cert = certify(K, T, pair)
            assert cert.certified[0]
            assert in_f(K, pair.q[0])
            assert in_f(T, pair.p[0])
            assert pair.length[0] > 0


def test_multipliers_match_reflection_law():
    pairs = search_two_bounce(SQUARE, SQUARE)
    q, lambdas = pairs.q[0], pairs.lambdas[0]
    dq = np.roll(q, -1, axis=0) - q
    for j in range(2):
        assert lambdas[j] == pytest.approx(float(np.hypot(*dq[j])))


def test_prefer_smooth_interior_bounce():
    # every minimal chord between parallel facets should sit strictly inside
    # both facets after smoothing
    for pair in (prefer_smooth(SQUARE, SQUARE, pr)
                 for pr in rows(search_two_bounce(SQUARE, SQUARE))):
        if (pair.k_faces >= SQUARE.n).all():
            for j, f in enumerate(pair.k_faces[0]):
                a, b = SQUARE.face_table.ends[f]
                d = b - a
                t = float((pair.q[0, j] - a) @ d / (d @ d))
                assert 1e-4 < t < 1 - 1e-4


def test_prefer_smooth_moves_no_pair(monkeypatch):
    """The smoothing stage, which the search no longer calls, returns every
    row of search_two_bounce's certified stack as it is given on the
    fixtures, search, identity and chord sets and the three benchmark
    pools.  The two facets of a side share its one t, so both points sit at
    the same fraction of antiparallel facets: the fixed-chord slide is
    blocked at t = 0 and t = 1 and needless inside, except within about
    1e-6 of an end.  Over 600 of the pairs touch two facets of K, the only
    pairs the stage would try to move."""
    found, stacks, searched = returns(monkeypatch, bounce2, "certified_pairs"), [], set()
    for name in ("fixtures", "search", "identity", "chord", "grid", "oracle", "ngon"):
        for _, K, T in corpus.cases(name):
            if (id(K), id(T)) not in searched:
                searched.add((id(K), id(T)))
                search_two_bounce(K, T)
                [stack] = found
                stacks.append((K, T, stack))
                found.clear()
    calls = [(K, pair, prefer_smooth(K, T, pair)) for K, T, stack in stacks
             for pair in rows(stack)]
    assert all(out is pair for _, pair, out in calls)
    two_facets = [(K, pair.k_faces[0]) for K, pair, _ in calls if (pair.k_faces >= K.n).all()]
    assert len(two_facets) >= 600
    for K, faces in two_facets:  # the two facets run antiparallel
        d1, d2 = np.diff(K.face_table.ends[faces], axis=1)[:, 0]
        assert d1 @ d2 < 0


def test_prefer_smooth_slides_a_corner_chord():
    """A vertical chord of the square within 5e-8 of its right corners, on
    the antiparallel bottom and top facets, slides to the middle of both:
    prefer_smooth returns a certified one-row stack of the same length to
    1e-12 relative, whose points sit halfway along their facets.  The slid
    pair is not moved again: it comes back as the same object."""
    x = 1 - 5e-8
    pair = certify(SQUARE, SQUARE, make_pair(
        SQUARE, SQUARE, [(x, -1), (x, 1)], [(0, 1), (0, -1)],
        (Face.edge(3), Face.edge(1)), (Face.edge(1), Face.edge(3))))
    assert pair.certified[0]
    out = prefer_smooth(SQUARE, SQUARE, pair)
    assert out is not pair and len(out) == 1 and out.certified[0]
    assert out.length[0] == pytest.approx(pair.length[0], rel=1e-12, abs=0)
    assert np.array_equal(out.k_faces, pair.k_faces) and np.array_equal(out.p, pair.p)
    for f, v in zip(out.k_faces[0], out.q[0]):
        a, b = SQUARE.face_table.ends[f]
        assert (v - a) @ (b - a) / ((b - a) @ (b - a)) == pytest.approx(0.5, abs=1e-9)
    assert prefer_smooth(SQUARE, SQUARE, out) is out


def test_perturbed_objective_same_length(rng):
    K, T = random_instance(rng, 5, 5)
    pairs = search_two_bounce(K, T)
    assert pairs
    checked = 0
    for pair in rows(pairs):
        (f1, f2), (g1, g2) = faces_of(pair)
        nv = sum(f.is_edge for f in (f1, f2, g1, g2))  # one per facet
        if nv == 0:
            continue
        for _ in range(3):
            obj = 1e-2 * rng.standard_normal(nv)
            redo = solve_face_tuple(K, T, f1, f2, g1, g2, objective=obj)
            assert redo is not None
            assert abs(redo.length[0] - pair.length[0]) < 1e-8
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
    found = returns(monkeypatch, bounce2, "certified_pairs")
    search_two_bounce(K, T)
    patterns = set()
    moved = 0
    for pair in rows(found[0]):
        faces = sum(faces_of(pair), ())
        kinds = tuple(f.is_edge for f in faces)
        if not (all(kinds[:2]) or all(kinds[2:])):
            continue
        patterns.add(kinds)
        plain = solve_face_tuple(K, T, *faces)
        assert plain is not None and plain.length[0] == pair.length[0]
        tilts = kinds == (True, True, False, False)
        for _ in range(4):
            redo = solve_face_tuple(K, T, *faces,
                                    objective=rng.standard_normal(sum(kinds)))
            assert redo is not None and certify(K, T, redo).certified[0]
            assert faces_of(redo) == faces_of(pair)
            assert redo.length[0] == pytest.approx(
                plain.length[0], rel=1e-12, abs=4 * EPS_GEO * _diameter(K) if tilts else 0)
            moved += not (np.array_equal(redo.q, plain.q)
                          and np.array_equal(redo.p, plain.p))
    assert (True, True, True, True) in patterns and len(patterns) >= 5
    assert moved


def test_no_duplicate_canonical_keys(rng):
    K, T = random_instance(rng, 6, 5)
    pairs = search_two_bounce(K, T)
    keys = _canonical_keys(pairs.q)
    assert len(keys) == len(set(keys))


def test_objective_of_the_wrong_size_is_rejected():
    """solve_face_tuple takes one objective entry per facet of its tuple."""
    with pytest.raises(ValueError, match="objective must have 4 entries"):
        solve_face_tuple(SQUARE, SQUARE, Face.edge(3), Face.edge(1),
                         Face.edge(1), Face.edge(3), objective=np.zeros(3))


def test_infeasible_tuple_returns_none():
    # adjacent facets of the square are not antipodal
    out = solve_face_tuple(SQUARE, SQUARE, Face.edge(0), Face.edge(1),
                           Face.edge(0), Face.edge(2))
    assert out is None


def test_declared_faces_contain_vertices(rng):
    K, T = random_instance(rng, 4, 6)
    for pair in rows(search_two_bounce(K, T)):
        for j in range(2):
            f = find_face(K, pair.q[0, j], tol=1e-7)
            # the declared face need not be minimal, but must contain the point
            from minkbill.geom import face_distances
            f, g = pair.k_faces[:, j], pair.t_faces[:, j]
            assert face_distances(K, f, pair.q[:, j]) < 1e-7
            assert face_distances(T, g, pair.p[:, j]) < 1e-7


def test_search_solves_no_simplex(monkeypatch):
    """Every side of a face tuple has at most one variable, so the 2-bounce
    search never calls lp.solve, and so no tableau simplex, also where sides
    of two parallel facets are certified.  The 3-bounce search solves its
    LPs by lp.solve_dual3 and never calls it either."""
    seen = returns(monkeypatch, bounce2, "certified_pairs")
    calls = spy(monkeypatch, lpmod, "solve", lambda *lp: lp)
    three = []
    for K, T in ([(load(name).K, load(name).T) for name in ("fagnano", "exampleF_aux")]
                 + [(regular_ngon(n), regular_ngon(m)) for n, m in ((4, 4), (6, 3), (8, 12))]):
        assert search_two_bounce(K, T)
        three += rows(search_three_bounce(K, T))
    assert calls == []
    assert three
    assert any(all(f.is_edge for f in faces)
               for stack in seen for pair in rows(stack) for faces in faces_of(pair))


# ---------------------------------------------------------------------------
# the search one face tuple at a time, as it was written before the tuples of
# one (K, T) were batched: the reference for the batched search


@corpus.per_body
def _cones(P):
    """normal_cone of every face of P, by face id."""
    return [normal_cone(P, f) for f in all_faces(P)]


def _face_cones(P, *faces):
    cones = _cones(P)
    return [cones[f.index + P.n * f.is_edge] for f in faces]


@corpus.per_body
def _vertex_chords(P, Q):
    """cone_contains of every vertex chord of P, v_j - v_i, in every normal
    cone of Q, by [face id of Q][i, j]: one stacked call per (P, Q)."""
    (g0, g1), ray = Q.face_table.cones.generators, Q.face_table.cones.is_ray
    cones = NormalConeRep((g0[:, None, None], g1[:, None, None]), ray[:, None, None])
    return cone_contains(cones, P.vertices - P.vertices[:, None])


def _vertex_side(P, Q, a1, a2, c1, c2):
    """Whether the side on the vertices a1, a2 of P passes its cone checks,
    a2 - a1 in N_Q(c1) and a1 - a2 in N_Q(c2), read from _vertex_chords."""
    inside = _vertex_chords(P, Q)
    return (inside[c1.index + Q.n * c1.is_edge][a1.index, a2.index]
            and inside[c2.index + Q.n * c2.is_edge][a2.index, a1.index])


@corpus.per_body
def _reference_antipodal_pairs(P):
    cones = _cones(P)
    return [(f1, f2) for (i, f1), (j, f2) in
            itertools.combinations(enumerate(all_faces(P)), 2)
            if cones_intersect(cones[i], cones[j].negate())]


def _reference_face_tuple(K, T, f1, f2, g1, g2, sides_apart=False):
    """The face tuple's pair by the simplex on one LP over both sides, one
    variable per facet, or, with sides_apart, by solve_interval on each
    side, whose facets share its one variable."""
    ck1, ck2 = _face_cones(K, f1, f2)
    ct1, ct2 = _face_cones(T, g1, g2)
    f_fixed = not (f1.is_edge or f2.is_edge)
    g_fixed = not (g1.is_edge or g2.is_edge)
    ends = []
    for P, f in ((K, f1), (K, f2), (T, g1), (T, g2)):
        a, b = P.face_table.ends[P.n + f.index]
        ends.append((a, b - a if f.is_edge else None))
    if f_fixed and g_fixed:
        if not (_vertex_side(K, T, f1, f2, g1, g2) and _vertex_side(T, K, g1, g2, f1, f2)):
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
        if not _vertex_side(K, T, f1, f2, g1, g2):
            return None
    else:
        sides.append([])
        reference_cone_rows(sides[-1], q2 - q1, ct1)
        reference_cone_rows(sides[-1], q1 - q2, ct2)
    if g_fixed:
        if not _vertex_side(T, K, g1, g2, f1, f2):
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
        status, x = solve(np.zeros(nv), np.array([r for r, _, _ in rows]),
                          np.array([b for _, b, _ in rows]),
                          np.array([e for _, _, e in rows]), np.zeros(nv), np.ones(nv))
        if status != "optimal":
            return None
    return certified_pair(K, T, make_pair(
        K, T, [q1.at(x), q2.at(x)], [p1.at(x), p2.at(x)], (f1, f2), (g1, g2)))


def _per_tuple_reference(K, T, face_tuple=_reference_face_tuple):
    """search_two_bounce one face tuple and one lp.solve at a time; also
    returns the certified pairs in the order of the search's certified
    stack."""
    found = []
    t_pairs = _reference_antipodal_pairs(T)
    for f1, f2 in _reference_antipodal_pairs(K):
        for g1, g2 in t_pairs:
            for gg1, gg2 in ((g1, g2), (g2, g1)):
                pair = face_tuple(K, T, f1, f2, gg1, gg2)
                if pair is not None:
                    found.append(pair)
    return sorted_pairs(reference_dedupe(found)), found


def test_batched_search_matches_per_tuple_reference(monkeypatch):
    """The batched search gives, bit for bit, what the per-tuple search
    gives with each side solved apart by solve_interval, both facets of a
    side on one variable: the same pairs certify in the same order, and
    the same pairs come out, with equal lengths, q, p
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
    seen = returns(monkeypatch, bounce2, "certified_pairs")
    apart = functools.partial(_reference_face_tuple, sides_apart=True)
    patterns = set()
    total = compared = same = 0
    for _, K, T in corpus.cases("identity"):
        seen.clear()
        got = search_two_bounce(K, T)
        want, found = _per_tuple_reference(K, T, apart)
        [certified] = seen
        assert_same_pairs(certified, found)
        assert_same_pairs(got, want)
        _, by_simplex = _per_tuple_reference(K, T)
        assert [faces_of(p) for p in found] == [faces_of(p) for p in by_simplex]
        compared += len(found)
        for a, b in zip(found, by_simplex):
            assert a.length[0] == pytest.approx(b.length[0], rel=1e-12, abs=0)
            k_faces, t_faces = faces_of(a)
            sides = [(u, v, P) for faces, u, v, P in
                     ((k_faces, a.q, b.q, K), (t_faces, a.p, b.p, T))
                     if not all(f.is_edge for f in faces)]
            for u, v, P in sides:
                assert np.allclose(u, v, rtol=0, atol=1e-12 * (1 + _diameter(P)))
            same += (a.length[0] == b.length[0]
                     and all(np.array_equal(u, v) for u, v, _ in sides))
        patterns.update(tuple(f.is_edge for f in sum(faces_of(pair), ()))
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
    ck1, ck2 = _face_cones(K, f1, f2)
    ct1, ct2 = _face_cones(T, g1, g2)
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
        if not _vertex_side(K, T, f1, f2, g1, g2):
            return None
        reference_cone_rows(rows, p2 - p1, ck2.negate())
        reference_cone_rows(rows, p1 - p2, ck1.negate())
    elif g_fixed:
        if not _vertex_side(T, K, g1, g2, f1, f2):
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
    status, x = solve(np.zeros(nv), np.array([r for r, _, _ in rows]),
                      np.array([b for _, b, _ in rows]),
                      np.array([e for _, _, e in rows]), np.zeros(nv), upper)
    if status != "optimal":
        return None
    return certified_pair(K, T, make_pair(
        K, T, [q1.at(x), q2.at(x)], [p1.at(x), p2.at(x)], (f1, f2), (g1, g2)))


def _diameter(P):
    return float(np.max(np.linalg.norm(
        P.vertices[:, None] - P.vertices[None], axis=-1)))


def _status_log(solve_lp, log):
    """solve_lp, appending the status of every LP it solves to log."""
    def logged(*lp):
        status, x = solve_lp(*lp)
        log.append(status)
        return status, x
    return logged


def test_cone_rows_match_multiplier_formulation(monkeypatch):
    """The cone rows of a facet's ray (cross(g, v) = 0, <g, v> >= 0) decide
    every face tuple as the multiplier formulation does: the same tuples
    are feasible (they reach certification), the same tuples are certified,
    with lengths equal to 1e-12 relative, and the search returns the same
    pairs, with q and p equal to 1e-12 of the body's diameter.  Within a
    family of constant length the two may stop at different points, so the
    certified pairs before dedupe are compared by faces and length only."""
    statuses = []
    feasible = spy(monkeypatch, bounce2, "certified_pairs", lambda K, T, q, p, kf, tf:
                   list(zip(face_tuples(K, kf), face_tuples(T, tf))))
    seen = returns(monkeypatch, bounce2, "certified_pairs")
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
        [tuples], [certified] = feasible, seen  # the search's one stack
        assert tuples == multiplier_feasible
        assert [face_key(p) for p in rows(certified)] == [face_key(p) for p in found]
        for a, b in zip(rows(certified), found):
            assert a.length[0] == pytest.approx(b.length[0], rel=1e-12, abs=0)
        assert len(got) == len(want)
        for a, b in zip(rows(got), want):
            assert face_key(a) == face_key(b)
            assert a.length[0] == pytest.approx(b.length[0], rel=1e-12, abs=0)
            assert np.allclose(a.q, b.q, rtol=0,
                               atol=1e-12 * (1 + _diameter(K)))
            assert np.allclose(a.p, b.p, rtol=0,
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
    return sort_pairs(dedupe(solve_tuples(K, T, tuples))), len(tuples)


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


def _four_end_chord_reach(P, Q, a, b):
    """_chord_reach as it was before it took the distinct ends once: the
    rows at both ends of every face, 4 n_P points."""
    (g0, g1), ray = Q.face_table.cones.generators, Q.face_table.cones.is_ray
    start, stop = P.face_table.ends.transpose(1, 0, 2)
    ends = np.stack([start - 1e-9 * (stop - start), stop])[:, None]
    rows = np.stack([cross2(g0[:, None], ends), cross2(ends, g1[:, None]),
                     np.where(ray[:, None], dot2(g0[:, None], ends), 0.0)])
    floor = -4 * EPS_CERT - 16 * np.finfo(float).eps * np.abs(ends).sum(-1).max()
    return (rows.max(1)[:, :, b] - rows.min(1)[:, :, a] >= floor).all(0)


def test_chord_reach_matches_the_four_end_form():
    """_chord_reach, which evaluates the rows at the 2 n_P distinct ends,
    is bit for bit the four-end form at every pair of face ids, both ways
    round, on every instance of the contact set."""
    for _, K, T in corpus.cases("contact"):
        for P, Q in ((K, T), (T, K)):
            faces = np.arange(2 * P.n)
            block = max(1, 2 ** 20 // (len(faces) * 2 * Q.n))
            for a in np.split(faces, range(block, len(faces), block)):
                pairs = np.meshgrid(a, faces, indexing="ij")
                assert np.array_equal(bounce2._chord_reach(P, Q, *pairs),
                                      _four_end_chord_reach(P, Q, *pairs))


def test_every_cone_test_reads_cone_rows(monkeypatch):
    """geom.cone_rows is the one membership test.  The rows _cone_rows
    returns for the 1-variable sides of the identity set and the 3-variable
    q-side fits of the search set equal reference_cone_rows, written one
    member at a time on Affine, to the last bit (a zero's sign aside); and
    cone_contains at tol 0 is the sign test on cone_rows, at every chord
    between two vertices of one body against every cone of the other, and at
    each cone's generators and their negatives."""
    real = bounce2._cone_rows
    log = spy(monkeypatch, bounce2, "_cone_rows",
              lambda expr, cone: (real(expr, cone), expr, cone))
    for name, search, nv in (("identity", search_two_bounce, 1),
                             ("search", search_three_bounce, 3)):
        log.clear()
        for _, K, T in corpus.cases(name):
            search(K, T)
        kinds = np.zeros(2, int)  # members at wedges and at rays
        for (A, b, eq), expr, cone in log:
            (g0, g1), ray = cone.generators, np.broadcast_to(cone.is_ray, len(expr))
            for k in range(len(expr)):
                want = []
                reference_cone_rows(want, Affine(expr[k, 0], expr[k, 1:].T),
                                    NormalConeRep((g0[k], g1[k]), ray[k]))
                for r, (w_coef, w_bound, w_eq) in enumerate(want):
                    assert np.array_equal(A[k, r], w_coef) and b[k, r] == w_bound
                    assert eq[k, r] == w_eq
            kinds += np.bincount(ray, minlength=2)
        # 2,828 and 2,642 members of the sides, 3 and 867 of the fits
        assert kinds.min() > 0 and kinds.sum() >= 800
        assert {e.shape[1] for _, e, _ in log} == {1 + nv}
    for _, K, T in corpus.cases("identity"):
        for P, Q in ((K, T), (T, K)):
            cones = Q.face_table.cones
            v = np.concatenate([(P.vertices[:, None] - P.vertices).reshape(-1, 2),
                                *cones.generators, *(-g for g in cones.generators)])[:, None]
            assert np.array_equal(cone_contains(cones, v, 0.0),
                                  (cone_rows(cones, v) >= 0).all(0))


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
