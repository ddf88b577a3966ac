import functools
import math
import sys
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minkbill import lp as lpmod, verify
from minkbill.bounce2 import search_two_bounce
from minkbill.bounce3 import search_three_bounce
from minkbill.fixtures import example_g_curve, fixture_names, load, regular_ngon
from minkbill.geom import (EPS_GEO, ConvexPolytope2, Face,
                           GeometryError, InvalidPolytope, ZeroVector,
                           cone_contains, cyclic, face_array, face_cones, find_face,
                           find_faces, normal_cone)
from minkbill.pairs import _canonical_keys, make_pair
from minkbill.randgen import random_instance, random_polytope
from minkbill.verify import (Certificate, LineNotSupporting, boundary_grid,
                             brute_force_min, certify,
                             check_weak_rule, _immovable_table,
                             _subset_immovable_table)

import corpus
from corpus import SQUARE
from references import (reference_check_weak_rule, reference_chunk_starts,
                        reference_in_f, rebuilt, spy)


# the vertical chord of the square with itself as geometry, and a triangle
_CHORD_Q, _CHORD_P = [(0, -1), (0, 1)], [(0, 1), (0, -1)]
_K_FACES, _T_FACES = (Face.edge(3), Face.edge(1)), (Face.edge(1), Face.edge(3))
_TRIANGLE = [(1, 0), (0, 1), (-1, 0)]


def _chord_pair():
    return make_pair(SQUARE, SQUARE, _CHORD_Q, _CHORD_P, _K_FACES, _T_FACES)


def test_certify_valid_chord():
    pair = _chord_pair()
    cert = certify(SQUARE, SQUARE, pair)
    assert cert.certified
    assert cert.system_residual < 1e-12
    assert cert.dual_length_residual < 1e-12
    assert pair.length == pytest.approx(4.0)


def test_certify_detects_broken_reflection():
    pair = _chord_pair()
    bad = make_pair(SQUARE, SQUARE, [(0, -1), (0.4, 1)], pair.p,
                    pair.k_faces, pair.t_faces)
    cert = certify(SQUARE, SQUARE, bad)
    assert not cert.certified
    assert cert.system_residual > 1e-3


def test_certify_detects_off_face_vertex():
    pair = _chord_pair()
    bad = make_pair(SQUARE, SQUARE, pair.q,
                    [(0.5, 1.2), (0, -1)], pair.k_faces, pair.t_faces)
    cert = certify(SQUARE, SQUARE, bad)
    assert not cert.certified
    assert cert.face_residual > 0.1


@pytest.mark.parametrize("q, p, k_faces, t_faces", [
    ([], [], [], []),  # perfbench's Checker on a report with no argmin
    ([(0, -1)], [(0, 1)], _K_FACES[:1], _T_FACES[:1]),
    ([(0, -1), (0, -1)], _CHORD_P, _K_FACES, _T_FACES),
    ([(0, -1), (0, 0), (0, 1)], _TRIANGLE, _K_FACES + _K_FACES[:1], _T_FACES + _T_FACES[:1]),
    ([(0, -1), (math.nan, 1)], _CHORD_P, _K_FACES, _T_FACES),
    (_CHORD_Q, [(0, 1), (0, math.inf)], _K_FACES, _T_FACES),
    (_CHORD_Q, [(0, 1), (0, 1)], _K_FACES, _T_FACES),
    ([(1, 0, 0), (0, 1, 0), (-1, 0, 0)], _TRIANGLE, _K_FACES + _K_FACES[:1],
     _T_FACES + _T_FACES[:1]),
    (_CHORD_Q, _TRIANGLE, _K_FACES, _T_FACES),
    (_CHORD_Q, _CHORD_P, _K_FACES[:1], _T_FACES),
    (_CHORD_Q, _CHORD_P, _K_FACES, _T_FACES + _T_FACES[:1]),
], ids=["no-argmin", "one-vertex", "coinciding", "collinear", "nan", "p-inf",
        "p-coinciding", "three-columns", "q-p-lengths", "k-face-count", "t-face-count"])
def test_make_pair_rejects_invalid_curves(q, p, k_faces, t_faces):
    """make_pair builds no pair unless q and p are finite (m, 2) arrays,
    m >= 2, with no degenerate vertex, and K and T have one face per vertex."""
    assert make_pair(SQUARE, SQUARE, q, p, k_faces, t_faces) is None


def test_pairs_hand_out_read_only_copies():
    """make_pair and indexing a search's stack give a pair read-only float
    copies of its curves."""
    q, p = np.array(_CHORD_Q), np.array(_CHORD_P)
    pair = make_pair(SQUARE, SQUARE, q, p, _K_FACES, _T_FACES)
    stack = search_two_bounce(SQUARE, SQUARE)
    for got, given in ((pair.q, q), (pair.p, p), (stack[0].q, stack.q), (stack[0].p, stack.p)):
        assert got.dtype == float and got.shape == (2, 2)
        assert not got.flags.writeable and not np.shares_memory(got, given)
    assert np.array_equal(pair.q, q) and np.array_equal(pair.p, p)
    assert np.array_equal(stack[0].q, stack.q[0]) and np.array_equal(stack[0].p, stack.p[0])


def _forced_dual_case():
    """exampleA's q with its forced dual p: a pair that fails certify."""
    fx = load("exampleA")
    q, p = fx.curves["q"], fx.forced_duals["q"]
    return fx.K, fx.T, make_pair(fx.K, fx.T, q, p,
                                 tuple(find_face(fx.K, v) for v in q),
                                 tuple(find_face(fx.T, v) for v in p))


def test_forced_dual_fails_on_example_a():
    K, T, pair = _forced_dual_case()
    cert = certify(K, T, pair)
    assert not cert.certified
    assert cert.system_residual > 0.1


# --- weak rule --------------------------------------------------------------

def _g_normals(K, q):
    return [np.asarray(K.normals[find_face(K, v).index])
            if find_face(K, v).is_edge else None
            for v in q]


def test_weak_rule_holds_on_family_member():
    fx = load("exampleG")
    q = example_g_curve(0.25)
    normals = _g_normals(fx.K, q)
    assert check_weak_rule(fx.K, fx.T, q, normals) <= 1e-9


def test_weak_rule_flags_non_minimizer():
    fx = load("exampleG")
    # same supporting lines, but one vertex displaced along its line
    q = example_g_curve(0.25)
    moved = q.copy()
    d = fx.K.vertices[1] - fx.K.vertices[2]
    moved[0] = moved[0] - 0.2 * d / np.hypot(*d)
    normals = _g_normals(fx.K, q)
    assert check_weak_rule(fx.K, fx.T, moved, normals) > 1e-3


def test_weak_rule_rejects_non_supporting_line():
    fx = load("exampleG")
    q = example_g_curve(0.25)
    with pytest.raises(LineNotSupporting):
        check_weak_rule(fx.K, fx.T, q, [(0.0, -1.0), (0.0, -1.0)])


def test_weak_rule_rejects_zero_normal():
    fx = load("exampleF_aux")
    with pytest.raises(ZeroVector):
        check_weak_rule(fx.K, fx.T, fx.curves["q"], [(0.0, 0.0), (0.0, 1.0)])


def _outcome(check, *args):
    """check(*args), or the type and message of the GeometryError it raised."""
    try:
        return check(*args)
    except GeometryError as exc:
        return type(exc), str(exc)


def _weak_rule_cases():
    """Every fixture curve with, at each vertex, the sum of the generators
    of K's normal cone there; the pairs of both searches on the identity
    set (which begins with the fixtures) with p_{j-1} - p_j at q_j; one
    line that does not support K, and one zero normal."""
    for name in fixture_names():
        fx = load(name)
        curves = [*fx.curves.values(), *(example_g_curve(a) for a in (0.0, 0.25, 0.5)
                                         if name == "exampleG")]
        for q in curves:
            yield fx.K, fx.T, q, sum(face_cones(fx.K, find_faces(fx.K, q)).generators)
    for (_, K, T), two, three in zip(corpus.cases("identity"), corpus.two_bounce("identity"),
                                     corpus.three_bounce("identity")):
        for pair in (*two, *three):
            p = pair.p
            yield K, T, pair.q, p[cyclic(len(p), -1)] - p
    fx = load("exampleG")
    yield fx.K, fx.T, example_g_curve(0.25), [(0.0, -1.0), (0.0, -1.0)]
    fx = load("exampleF_aux")
    yield fx.K, fx.T, fx.curves["q"], [(0.0, 0.0), (0.0, 1.0)]


def test_weak_rule_matches_per_line_reference():
    """check_weak_rule on one (m, 1025, 2) array agrees with the per-line
    loop it replaced to 1e-12, and raises the same exception with the same
    message."""
    raised, values = [], 0
    for K, T, q, normals in _weak_rule_cases():
        got = _outcome(check_weak_rule, K, T, q, normals)
        want = _outcome(reference_check_weak_rule, K, T, q, normals)
        if isinstance(want, tuple):
            assert got == want
            raised.append(want[0])
        else:
            assert abs(got - want) <= 1e-12
            values += 1
    assert set(raised) == {LineNotSupporting, ZeroVector}
    assert values >= 600


def test_weak_rule_ignores_the_length_of_the_normals():
    """Scaling every normal by 2^k, k = -4..4, gives the same value to
    1e-12, or the same exception with the same message: the support test
    takes unit normals, as the sampling direction does."""
    for K, T, q, normals in _weak_rule_cases():
        want = _outcome(check_weak_rule, K, T, q, normals)
        for k in range(-4, 5):
            got = _outcome(check_weak_rule, K, T, q, 2.0 ** k * np.asarray(normals, float))
            if isinstance(want, tuple):
                assert got == want, k
            else:
                assert not isinstance(got, tuple) and abs(got - want) <= 1e-12, k


# --- brute force ------------------------------------------------------------

def test_boundary_grid_counts():
    pts, masks = boundary_grid(SQUARE, 8)
    assert pts.shape == (32, 2)
    # corner points carry two facet bits
    assert bin(int(masks[0])).count("1") == 2


def _reference_boundary_grid(K, grid_per_facet):
    """boundary_grid as a loop over the facets and their grid points."""
    pts = []
    masks = []
    n = K.n
    for i in range(n):
        a, b = K.face_table.ends[K.n + i]
        pts.append(a)
        masks.append((1 << i) | (1 << ((i - 1) % n)))
        for k in range(1, grid_per_facet):
            pts.append(a + (k / grid_per_facet) * (b - a))
            masks.append(1 << i)
    return np.asarray(pts), np.asarray(masks, np.int64)


def test_boundary_grid_matches_reference_loop(rng):
    """The broadcast grid has the loop's points bit for bit (signed zeros
    included) and its masks, for 3- to 16-gons at grids 1 to 70."""
    bodies = [regular_ngon(n, phase=0.1 * n) for n in range(3, 17)]
    bodies += [random_polytope(rng, n) for n in range(3, 17)]
    # a vertex at -0.0 whose next vertex lies to its right: a + 0 * (b - a)
    # would be +0.0
    bodies.append(ConvexPolytope2.from_vertices(
        [(-0.0, -1.0), (1.0, -0.0), (-0.0, 1.0), (-1.0, 0.0)]))
    for K in bodies:
        for grid in range(1, 71):
            pts, masks = boundary_grid(K, grid)
            want_pts, want_masks = _reference_boundary_grid(K, grid)
            assert pts.shape == want_pts.shape and pts.dtype == want_pts.dtype
            assert pts.tobytes() == want_pts.tobytes(), (K.n, grid)
            assert masks.dtype == want_masks.dtype
            assert np.array_equal(masks, want_masks), (K.n, grid)


@pytest.mark.parametrize("grid", [0, -1])
def test_grid_below_one_is_rejected(grid):
    """A grid below 1 is an error, not the grid-1 values."""
    with pytest.raises(ValueError):
        boundary_grid(SQUARE, grid)
    with pytest.raises(ValueError):
        brute_force_min(SQUARE, regular_ngon(5), grid)


def test_brute_force_square_chord():
    assert brute_force_min(SQUARE, SQUARE, 8)[0] == pytest.approx(4.0)


def test_brute_force_example_f():
    fx = load("exampleF_aux")
    assert brute_force_min(fx.K, fx.T, 128)[0] == pytest.approx(4.0, abs=0.05)


def test_brute_force_triangle_m3():
    from minkbill.fixtures import equilateral_triangle, regular_ngon
    K = equilateral_triangle()
    val = brute_force_min(K, regular_ngon(32), 64)[1]
    # true minimum is the Fagnano orbit, about 2.598 for the 32-gon geometry
    assert 2.4 < val < 2.8


def test_brute_never_below_search(rng):
    for _ in range(3):
        K, T = random_instance(rng, int(rng.integers(3, 6)),
                               int(rng.integers(3, 6)))
        alg = min(p.length for p in search_two_bounce(K, T))
        assert brute_force_min(K, T, 64)[0] >= alg - 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 10**6))
def test_mask_table_matches_margin_lp(seed, pick):
    """The facet-subset criterion used by the oracle agrees with the
    translation-margin LP on boundary point sets."""
    rng = np.random.default_rng(seed)
    K = random_polytope(rng, int(rng.integers(3, 7)))
    pts, masks = boundary_grid(K, 6)
    tab = _subset_immovable_table(K)
    i = pick % len(pts)
    j = (pick * 7919 + 13) % len(pts)
    subset = pts[[i, j]]
    assert tab[masks[i] | masks[j]] == reference_in_f(K, subset)


def _reference_immovable_table(normals):
    """The facet-subset table built one mask at a time, by a loop over the
    sorted angles of the selected normals."""
    n = normals.shape[0]
    angles = np.arctan2(normals[:, 1], normals[:, 0])
    tab = np.zeros(1 << n, bool)
    for mask in range(1, 1 << n):
        sel = sorted(angles[i] for i in range(n) if mask >> i & 1)
        if len(sel) == 1:
            continue
        gap = max(sel[k + 1] - sel[k] for k in range(len(sel) - 1))
        gap = max(gap, 2 * math.pi - (sel[-1] - sel[0]))
        tab[mask] = gap <= math.pi + 1e-12
    return tab


def test_mask_table_matches_reference_loop(rng):
    bodies = [regular_ngon(n, phase=phase) for n in range(3, 17)
              for phase in (0.0, 0.1 * n)]
    bodies += [random_polytope(rng, int(rng.integers(3, 11))) for _ in range(30)]
    for K in bodies:
        got = _subset_immovable_table(K)
        assert np.array_equal(got, _reference_immovable_table(K.normals)), K.n
    # facets 0 and 3 of the hexagon are a strip: gap pi, immovable
    assert _subset_immovable_table(regular_ngon(6))[0b001001]
    with pytest.raises(GeometryError):
        _subset_immovable_table(regular_ngon(17))


def test_certify_runs_no_lp(monkeypatch):
    """A certificate is recomputed without the LP solvers the searches use:
    with every binding of lp.solve, lp.solve_dual3 and lp.solve_interval in
    the package made to raise, certify returns the same certificates.  The
    cases are the square's chord pair, exampleA's forced dual, and the pairs
    of both searches on the certify set, the first two 2-bounce pairs of each
    instance also with their dual reversed (certificates that fail)."""
    cases = [(SQUARE, SQUARE, _chord_pair()), _forced_dual_case()]
    for (_, K, T), two, three in zip(corpus.cases("certify"), corpus.two_bounce("certify"),
                                     corpus.three_bounce("certify")):
        cases += [(K, T, pair) for pair in two + three]
        cases += [(K, T, make_pair(K, T, pair.q, pair.p[::-1],
                                   pair.k_faces, pair.t_faces[::-1]))
                  for pair in (two + three)[:2] if len(pair.q) == 2]
    want = [certify(K, T, pair) for K, T, pair in cases]
    assert {c.certified for c in want} == {True, False}

    def no_lp(*args, **kwargs):
        raise AssertionError("the LP solver was called")

    solvers = (lpmod.solve, lpmod.solve_dual3, lpmod.solve_interval)
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "minkbill":
            continue
        for attr, value in list(vars(mod).items()):
            if any(value is f for f in solvers):
                monkeypatch.setattr(mod, attr, no_lp)
    # the patch does reach the solvers of both searches (the 3-bounce one on
    # an instance whose contact screen keeps a triple)
    with pytest.raises(AssertionError):
        search_two_bounce(SQUARE, SQUARE)
    with pytest.raises(AssertionError):
        search_three_bounce(*next((K, T) for K, T, pair in cases if len(pair.q) == 3))
    assert [certify(K, T, pair) for K, T, pair in cases] == want


def test_mask_table_cache_stays_bounded(rng):
    """The oracle keeps the facet-subset tables of a bounded number of
    bodies, however many distinct bodies a process meets."""
    limit = _immovable_table.cache_info().maxsize
    bodies = [random_polytope(rng, int(rng.integers(3, 7)))
              for _ in range(2 * limit)]
    for K in bodies:
        brute_force_min(K, K, 2)
    assert _immovable_table.cache_info().currsize == limit
    # a cached table is returned as is, and cannot be altered by a caller
    tab = _subset_immovable_table(bodies[-1])
    assert tab is _subset_immovable_table(bodies[-1])
    assert not tab.flags.writeable


def _reference_brute_force_min(K, T, m, grid_per_facet):
    """The oracle as it was before degeneracy was read from the facet masks:
    an (N, N, |V(T)|) support temporary, EPS_GEO distance and cross-product
    thresholds, and one fancy-indexed (N, N) block per row."""
    if m not in (2, 3):
        raise ValueError("only m = 2 and m = 3 are supported")
    pts, masks = boundary_grid(K, grid_per_facet)
    ok = _subset_immovable_table(K)
    N = pts.shape[0]
    G = pts @ T.vertices.T  # (N, |V(T)|); support of a difference is a max over columns
    scale2 = max(1.0, K.diameter() ** 2)
    if m == 2:
        sup = (G[None, :, :] - G[:, None, :]).max(axis=2)  # sup[i,j] = h_T(x_j - x_i)
        pairmask = masks[:, None] | masks[None, :]
        d = pts[:, None, :] - pts[None, :, :]
        dist2 = (d ** 2).sum(axis=2)
        valid = ok[pairmask] & (dist2 > (EPS_GEO ** 2) * scale2)
        lengths = np.where(valid, sup + sup.T, np.inf)
        return float(lengths.min())

    best = np.inf
    sup = (G[None, :, :] - G[:, None, :]).max(axis=2)
    for i in range(N - 2):
        idx = np.arange(i + 1, N)
        tm = ok[(masks[i] | masks[idx])[:, None] | masks[idx][None, :]]
        di = pts[idx] - pts[i]
        # noncollinearity of the triangle (i, j, k)
        crossjk = np.abs(di[:, 0][:, None] * di[:, 1][None, :]
                         - di[:, 1][:, None] * di[:, 0][None, :])
        valid = tm & (crossjk > EPS_GEO * scale2)
        if not valid.any():
            continue
        L = (sup[i, idx][:, None] + sup[np.ix_(idx, idx)] + sup[idx, i][None, :])
        cand = float(np.where(valid, L, np.inf).min())
        best = min(best, cand)
    return best


@functools.cache
def _brute_reference_cases():
    """(grid, K, T, the reference's two floats) of the corpus brute cases."""
    return [(grid, K, T, tuple(_reference_brute_force_min(K, T, m, grid) for m in (2, 3)))
            for grid, K, T in corpus.cases("brute")]


def test_brute_force_matches_reference():
    """Reading degeneracy from the facet masks returns the very floats of the
    threshold-based oracle, for 2-gons and for triangles."""
    for grid, K, T, want in _brute_reference_cases():
        assert brute_force_min(K, T, grid) == want, (K.n, T.n, grid)


@pytest.mark.parametrize("block", [1, 7])
def test_brute_force_blocks_split_inside_a_class(monkeypatch, block):
    """With batches of at most 1 or 7 elements a batch holds a single chunk
    pair or triple (up to seven where chunks are single points), so the
    bounds are evaluated and pruned a few candidates at a time and the
    blocks of h_T are built a few chunk pairs at a time, and both oracle
    floats are still the reference's."""
    cases = [(K, T, grid) for grid, K, T in corpus.cases("brute")
             if K.n * grid <= 40][::2]
    assert len(cases) >= 10
    want = [tuple(_reference_brute_force_min(K, T, m, grid) for m in (2, 3))
            for K, T, grid in cases]
    monkeypatch.setattr(verify, "_BLOCK", block)
    assert [brute_force_min(K, T, grid) for K, T, grid in cases] == want


@pytest.mark.parametrize("chunk", [1, 2, 5, 64])
def test_brute_force_chunks_change_no_float(monkeypatch, chunk):
    """Chunks of 1, 2, 5 or 64 points (one point per chunk, a facet cut into
    many chunks, a whole facet in one chunk) give both oracle floats of the
    reference."""
    cases = [(K, T, grid) for grid, K, T in corpus.cases("brute")
             if K.n * grid <= 40][1::2]
    assert len(cases) >= 10
    want = [tuple(_reference_brute_force_min(K, T, m, grid) for m in (2, 3))
            for K, T, grid in cases]
    monkeypatch.setattr(verify, "_CHUNK", chunk)
    assert [brute_force_min(K, T, grid) for K, T, grid in cases] == want


def test_brute_force_tile_store_holds_every_chunk_pair(monkeypatch):
    """With bounds of -inf nothing is pruned, so both h_T tiles of every
    valid chunk pair A < B are built, into the one store of the call
    (_assert_store_follows_the_tiles).  At least 10 cases build more tiles
    than the (N + 1)^2 // size^2 of a full table's footprint (small grids,
    whose one-point vertex chunks are padded to full tiles), and both oracle
    floats are still the reference's."""
    seen = []
    store = _StoreSpy()
    monkeypatch.setattr(verify, "np", store)

    def no_bounds(G, start):
        seen.append((G.shape[0], start))
        return np.full((len(start), len(start)), -np.inf)

    monkeypatch.setattr(verify, "_chunk_bounds", no_bounds)
    grown = 0
    for grid, K, T, want in _brute_reference_cases():
        if K.n * grid > 40:
            continue
        store.reset()
        assert brute_force_min(K, T, grid) == want, (K.n, T.n, grid)
        N, start = seen[-1]
        size = np.diff(np.r_[start, N]).max()
        cm = boundary_grid(K, grid)[1][start]
        a, b = np.nonzero(np.triu(_subset_immovable_table(K)[cm[:, None] | cm], 1))
        _assert_store_follows_the_tiles(store, len(start), size)
        pairs = {*zip(a.tolist(), b.tolist()), *zip(b.tolist(), a.tolist())}
        assert pairs <= set(store.pairs), (K.n, T.n, grid)
        grown += len(pairs) > (N + 1) ** 2 // size ** 2
    assert grown >= 10


def _oracle_pool_cases():
    """(grid, K, T, frozen oracle floats) of the oracle benchmark pool."""
    return [(int(inst["args"][1]), ConvexPolytope2.from_vertices(inst["K"]),
             ConvexPolytope2.from_vertices(inst["T"]),
             (inst["oracle"]["two_bounce_min"], inst["oracle"]["three_bounce_min"]))
            for inst in corpus.pool("oracle")]


class _Store(np.ndarray):
    """The oracle's tile store, whose resize fails the test."""

    def resize(self, *args, **kwargs):
        pytest.fail("the tile store was resized")


class _Slots(np.ndarray):
    """The oracle's slot map, which notes in pairs each chunk pair (A, B)
    that it gives a slot, in order."""

    def __setitem__(self, key, value):
        if isinstance(key, tuple):
            self.pairs += zip(*(k.tolist() for k in key))
        super().__setitem__(key, value)


class _StoreSpy:
    """numpy, with the shape of every 3-d np.empty noted (the oracle's tile
    store), the chunk pairs given a slot by every np.full of -1 noted (the
    slot map), and the tiles that every np.subtract into a 3-d out writes
    counted (the tiles built), since the last reset."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.shapes, self.pairs, self.built = [], [], 0

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape, *args, **kwargs):
        if len(shape) != 3:
            return np.empty(shape, *args, **kwargs)
        self.shapes.append(shape)
        return np.ndarray.__new__(_Store, shape)

    def full(self, shape, fill_value, *args, **kwargs):
        out = np.full(shape, fill_value, *args, **kwargs)
        if fill_value != -1:
            return out
        out = out.view(_Slots)
        out.pairs = self.pairs
        return out

    def subtract(self, *args, out=None, **kwargs):
        if out is not None and out.ndim == 3:
            self.built += len(out)
        return np.subtract(*args, out=out, **kwargs)


def _assert_store_follows_the_tiles(store, chunks, size):
    """One brute_force_min call (a _StoreSpy) makes exactly one tile store,
    of cap = max(3, min(C^2, _STORE // size^2)) tiles of the longest chunk's
    side for C chunks; each tile built is a chunk pair given a slot, and no
    pair is built twice unless more than cap tiles are built."""
    cap = max(3, min(chunks ** 2, verify._STORE // size ** 2))
    assert store.shapes == [(cap, size, size)]
    assert store.built == len(store.pairs)
    assert store.built > cap or len(set(store.pairs)) == store.built


def test_brute_force_cuts_each_run_evenly(monkeypatch):
    """Each run of equal masks (a vertex, or the inner points of one facet)
    is cut into the fewest chunks of at most cap = max(_CHUNK, isqrt(N) // 4)
    points, each ceil(L / parts) long but the last, on the 34 oracle pool
    instances and the brute cases.  No chunk crosses a run, a run of L points
    gets ceil(L / cap) chunks, as many as the cut at one fixed size had
    (references.reference_chunk_starts), the tile side is the longest chunk
    and at most the old one, the one store has max(3, min(C^2, _STORE //
    size^2)) slots (_assert_store_follows_the_tiles), and no
    instance has more pad points than before: 3,020 over the pool, against
    4,817."""
    layouts = spy(monkeypatch, verify, "_chunk_bounds", lambda G, start: (len(G), start))
    store = _StoreSpy()
    monkeypatch.setattr(verify, "np", store)
    pool = [(grid, K, T) for grid, K, T, _ in _oracle_pool_cases()]
    pads = {"even": 0, "reference": 0}
    for n, (grid, K, T) in enumerate(pool + list(corpus.cases("brute"))):
        store.reset()
        brute_force_min(K, T, grid)
        N, start = layouts[-1]
        masks = boundary_grid(K, grid)[1]
        cap = max(verify._CHUNK, math.isqrt(N) // 4)
        heads = np.flatnonzero(np.r_[True, masks[1:] != masks[:-1]])
        L = np.diff(np.r_[heads, N])
        lens = np.diff(np.r_[start, N])
        assert np.isin(heads, start).all(), (K.n, grid)
        parts = np.diff(np.searchsorted(start, np.r_[heads, N]))
        assert (parts == -(-L // cap)).all(), (K.n, grid)
        r = np.searchsorted(heads, start, "right") - 1  # each chunk's run
        last = np.r_[start[1:], N] == np.r_[heads[1:], N][r]
        assert (lens[~last] == -(-L // parts)[r][~last]).all(), (K.n, grid)
        ref, ref_size = reference_chunk_starts(masks, cap)
        assert len(start) == len(ref), (K.n, grid)
        size = lens.max()
        _assert_store_follows_the_tiles(store, len(start), size)
        assert size <= ref_size, (K.n, grid)
        pad, ref_pad = (size - lens).sum(), (ref_size - np.diff(np.r_[ref, N])).sum()
        assert pad <= ref_pad, (K.n, grid)
        if n < len(pool):
            pads["even"] += pad
            pads["reference"] += ref_pad
    assert len(layouts) == len(pool) + len(corpus.cases("brute"))
    assert pads == {"even": 3020, "reference": 4817}


@pytest.mark.parametrize("chunk", [5, 16, 24])
def test_brute_force_chunks_keep_the_pool_oracle_floats(monkeypatch, chunk):
    """Chunks of at most 5, 16 or 24 points give both oracle floats frozen in
    the pool, bit for bit, on the six oracle pool instances with G = 34, 50
    or 51 points per facet, whose runs the cut at one fixed size of 16 left
    with a one- or two-point last chunk."""
    cases = [case for case in _oracle_pool_cases() if case[0] in (34, 50, 51)]
    assert len(cases) == 6
    monkeypatch.setattr(verify, "_CHUNK", chunk)
    for grid, K, T, frozen in cases:
        assert brute_force_min(K, T, grid) == frozen, (K.n, T.n, grid)


def test_brute_force_is_covariant_under_scale_and_translation():
    """brute_force_min(cK + s, dT + t) = c d brute_force_min(K, T): exactly for
    powers of two with no translation, to rounding with one."""
    rng = np.random.default_rng(7)
    scales = (2.0 ** -14, 2.0 ** -12, 2.0 ** 10)
    checked = 0
    for _ in range(10):
        K, T = random_instance(rng, int(rng.integers(4, 9)),
                               int(rng.integers(4, 9)))
        s, t = rng.normal(size=2) * 5, rng.normal(size=2) * 5
        base = brute_force_min(K, T, 64)
        for c in scales:
            for d in scales:
                try:
                    cK, dT = rebuilt(K, c, 0.0), rebuilt(T, d, 0.0)
                except InvalidPolytope:
                    continue  # too small for from_vertices' absolute tolerance
                checked += 1
                for m, b, got in zip((2, 3), base, brute_force_min(cK, dT, 64)):
                    assert got == c * d * b, (c, d, m)
        for c, d in zip(scales, scales[1:] + scales[:1]):
            try:
                cKs, dTt = rebuilt(K, c, c * s), rebuilt(T, d, d * t)
            except InvalidPolytope:
                continue
            for m, b, got in zip((2, 3), base, brute_force_min(cKs, dTt, 64)):
                assert got == pytest.approx(c * d * b, rel=1e-9), (c, d, m)
    assert checked >= 40


def _reference_table(G):
    """h_T(x_j - x_i) for all pairs of grid points with support values G, as
    the oracle built it before it built only the blocks it reads: one
    (N, N) running max over the columns of G."""
    S = G[None, :, 0] - G[:, None, 0]
    for c in range(1, G.shape[1]):
        np.maximum(S, G[None, :, c] - G[:, None, c], out=S)
    return S


def test_chunk_bounds_are_below_every_block(monkeypatch):
    """The bounds that the oracle takes from the extremes of the support
    values, with no table, are finite and at most every entry of their
    chunk pair's block of the full table, on the oracle instances and on
    their bodies scaled by 1e-3 and 1e3 and translated by (1e3, -1e3)."""
    calls = []

    def spy(G, start):
        low = real(G, start)
        calls.append((G, start, low))
        return low

    real = verify._chunk_bounds
    monkeypatch.setattr(verify, "_chunk_bounds", spy)
    base = [(K, T, grid) for grid, K, T in corpus.cases("brute")]
    cases = list(base)
    for c in (1e-3, 1e3):
        for K, T, grid in base[::4]:
            try:
                cases.append((rebuilt(K, c, (1e3, -1e3)), rebuilt(T, c, (1e3, -1e3)), grid))
            except InvalidPolytope:
                continue  # too small for from_vertices' absolute tolerance
    assert len(cases) >= len(base) + 40
    for K, T, grid in cases:
        brute_force_min(K, T, grid)
    assert len(calls) == len(cases)
    for G, start, low in calls:
        S = _reference_table(G)
        least = np.minimum.reduceat(np.minimum.reduceat(S, start, axis=0), start, axis=1)
        assert np.isfinite(low).all() and (low <= least).all()


def test_brute_force_memory_is_quadratic_in_the_grid():
    """The oracle's peak allocation stays within a few (N, N) float arrays and
    does not grow with the number of vertices of T, for an 8-gon K and for
    a 16-gon, the largest K the oracle takes."""
    for nk in (8, 16):
        K = regular_ngon(nk)
        N = boundary_grid(K, 64)[0].shape[0]
        peaks = []
        for nt in (6, 48):
            T = regular_ngon(nt)
            brute_force_min(K, T, 8)  # warm the mask-table cache
            tracemalloc.start()
            try:
                brute_force_min(K, T, 64)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 8 * N * N * 8, nk
        assert max(peaks) <= 1.2 * min(peaks), nk


def test_brute_force_memory_follows_the_tiles_built():
    """On the oracle pool instance o05-8x7-g64 the traced peak of
    brute_force_min stays at most 2.5 MB; the store of one slot per chunk
    pair that it replaced held 3.1 MB there, in a 4.83 MB peak."""
    (inst,) = [inst for inst in corpus.pool("oracle") if inst["name"] == "o05-8x7-g64"]
    K, T = (ConvexPolytope2.from_vertices(inst[b]) for b in "KT")
    grid = int(inst["args"][1])
    brute_force_min(K, T, 8)  # warm the mask-table cache
    tracemalloc.start()
    try:
        got = brute_force_min(K, T, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (inst["oracle"]["two_bounce_min"], inst["oracle"]["three_bounce_min"])
    assert peak <= 2.5 * 2**20


def test_brute_force_memory_peaks_at_the_middle_vertex_sums():
    """On every oracle pool instance the traced peak of brute_force_min is
    at most 1.6 MB, with both frozen floats: the triangle minimum takes the
    middle vertex first, t size^2 elements at a time.  Summing whole
    (t, size, size, size) triangle tiles peaked at 2.15 MB (on o05-8x7-g64)."""
    brute_force_min(regular_ngon(4), regular_ngon(3), 8)  # warm lazy imports
    peaks = []
    for grid, K, T, want in _oracle_pool_cases():
        brute_force_min(K, T, 8)  # warm the mask-table cache
        tracemalloc.start()
        try:
            assert brute_force_min(K, T, grid) == want, (K.n, T.n, grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 1.6 * 2**20


@pytest.mark.parametrize("store", [0, 1 << 12])
def test_brute_force_full_store_changes_no_float(monkeypatch, store):
    """A store of _STORE = 0 elements (3 tiles, so each batch holds one
    chunk pair or triple) or 2^12 (a few tiles) gives both oracle floats
    frozen in the pool, bit for bit, on all 34 oracle pool instances, and
    builds tiles again on each of them; and the reference's floats on the
    brute cases, on each of which the cap // 3 triples a batch may hold are
    fewer than _BLOCK // size^3."""
    monkeypatch.setattr(verify, "_STORE", store)
    spy = _StoreSpy()
    monkeypatch.setattr(verify, "np", spy)
    for grid, K, T, want in _oracle_pool_cases():
        spy.reset()
        assert brute_force_min(K, T, grid) == want, (K.n, T.n, grid)
        assert spy.built > spy.shapes[0][0], (K.n, T.n, grid)
    for grid, K, T, want in _brute_reference_cases():
        spy.reset()
        assert brute_force_min(K, T, grid) == want, (K.n, T.n, grid)
        cap, size, _ = spy.shapes[0]
        assert cap // 3 < verify._BLOCK // size ** 3, (K.n, T.n, grid)


# certify as it was written before certificates were computed as stacks: one
# pair at a time, with a 1-D dot per edge


def _reference_cone_distance(cone, v):
    if cone_contains(cone, v, 0.0):
        return 0.0
    best = float(np.hypot(v[0], v[1]))
    for g in cone.generators:
        t = max(0.0, float(g @ v))
        best = min(best, float(np.hypot(*(v - t * g))))
    return best


def _reference_face_distance(P, f, x):
    a = P.vertices[f.index]
    if not f.is_edge:
        return float(np.hypot(*(x - a)))
    d = P.vertices[(f.index + 1) % P.n] - a
    t = float(np.clip((x - a) @ d / float(d @ d), 0.0, 1.0))
    return float(np.hypot(*(a + t * d - x)))


def _reference_certify(K, T, pair):
    q, p = pair.q, pair.p
    m = len(q)
    sys_res = face_res = inner = 0.0
    for j in range(m):
        dq = q[(j + 1) % m] - q[j]
        dp = p[(j + 1) % m] - p[j]
        sys_res = max(sys_res,
                      _reference_cone_distance(normal_cone(T, pair.t_faces[j]), dq),
                      _reference_cone_distance(normal_cone(K, pair.k_faces[(j + 1) % m]), -dp))
        face_res = max(face_res, _reference_face_distance(K, pair.k_faces[j], q[j]),
                       _reference_face_distance(T, pair.t_faces[j], p[j]))
        inner += float(dq @ p[j])
    dq, dp = np.roll(q, -1, axis=0) - q, np.roll(p, -1, axis=0) - p
    ell = float((dq @ T.vertices.T).max(axis=1).sum())
    dual = float((-dp @ K.vertices.T).max(axis=1).sum())
    return Certificate(sys_res, face_res, abs(ell - inner), abs(ell - dual),
                       reference_in_f(K, q), reference_in_f(T, p))


def _reference_lengths(T, q, p):
    """make_pair's length, lambdas and mus as it computed them one pair at a
    time."""
    dq, dp = np.roll(q, -1, axis=0) - q, np.roll(p, -1, axis=0) - p
    return ([float((dq @ T.vertices.T).max(axis=1).sum())]
            + [float(np.hypot(*d)) for d in dq]
            + [float(np.hypot(*dp[(j - 1) % len(p)])) for j in range(len(p))])


def _bits(values):
    """Floats by their bit patterns (so that -0.0 and 0.0 differ)."""
    return [v.hex() if isinstance(v, float) else v for v in values]


def test_stacked_certification_matches_certify():
    """The stacked arithmetic that certified_pairs shares with certify
    (verify._checks) gives each member of a stack, bit for bit, the
    certificate that certify gives it alone, and that the per-pair certify
    of before the stacks gave, and the length, lambdas and mus that
    make_pair gives it and gave one pair at a time; certified_pairs returns
    the stack of exactly the members that certify, in order, each row as
    make_pair builds it and with certify's certificate, and _canonical_keys
    gives each the key it gets alone.  The stacks are the pairs of each search on the identity
    instances, and the same pairs with their duals reversed (certificates
    that fail)."""
    outcomes, members = set(), 0
    for (_, K, T), two, three in zip(corpus.cases("identity"), corpus.two_bounce("identity"),
                                     corpus.three_bounce("identity")):
        for pairs in (two, three):
            flipped = [make_pair(K, T, pr.q, pr.p[::-1],
                                 pr.k_faces, pr.t_faces[::-1]) for pr in pairs]
            for stack in (pairs, [pr for pr in flipped if pr is not None]):
                if not stack:
                    continue
                rows = (np.stack([pr.q for pr in stack]),
                        np.stack([pr.p for pr in stack]),
                        face_array(K, [pr.k_faces for pr in stack]),
                        face_array(T, [pr.t_faces for pr in stack]))
                (lambdas, mus, ell), fields = verify._checks(K, T, *rows)
                found = iter(verify.certified_pairs(K, T, *rows))
                for r, pair in enumerate(stack):
                    cert = Certificate(*(v.tolist()[r] for v in fields))
                    want = certify(K, T, pair)
                    assert _bits(astuple(cert)) == _bits(astuple(want))
                    assert _bits(astuple(cert)) == _bits(astuple(
                        _reference_certify(K, T, pair)))
                    outcomes.add(cert.certified)
                    built = make_pair(K, T, pair.q, pair.p,
                                      pair.k_faces, pair.t_faces)
                    assert _bits([ell[r].item(), *lambdas[r].tolist(),
                                  *mus[r].tolist()]) == _bits(
                        [built.length, *built.lambdas, *built.mus]) == _bits(
                        _reference_lengths(T, pair.q, pair.p))
                    if not cert.certified:
                        continue
                    got = next(found)
                    assert _bits(astuple(got.certificate)) == _bits(astuple(want))
                    assert _bits([got.length, *got.lambdas, *got.mus]) == _bits(
                        [built.length, *built.lambdas, *built.mus])
                    assert np.array_equal(got.q, built.q)
                    assert np.array_equal(got.p, built.p)
                    assert (got.k_faces, got.t_faces) == (built.k_faces, built.t_faces)
                assert next(found, None) is None
                assert _canonical_keys(rows[0]) == [_canonical_keys(pr.q[None])[0]
                                                    for pr in stack]
                members += len(stack)
    assert outcomes == {True, False}
    assert members >= 1000
