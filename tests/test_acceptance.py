"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v tests/test_acceptance.py -s` to see the lines; every
criterion also asserts, so the suite fails loudly if any regresses.
"""

import math
import time

import numpy as np

from minkbill.bounce2 import search_two_bounce, solve_face_tuple
from minkbill.bounce3 import search_three_bounce
from minkbill.cli import _search_report, run_bench
from minkbill.fixtures import (equilateral_triangle, example_g_curve, load,
                               obtuse_triangle_100, regular_ngon)
from minkbill.geom import ell_length, find_face, polar, support
from minkbill.pairs import make_pair
from minkbill.randgen import random_instance, random_polytope
from minkbill.obtuse import regular_three_bounce_exists
from minkbill.verify import brute_force_min, certify

from references import same_cycle, spearman


def _report(num, label, ok, detail=""):
    print(f"ACCEPTANCE {num:02d} [{label}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def test_criterion_01_short_chord_instance():
    fx = load("exampleF_aux")
    t0 = time.perf_counter()
    rep = _search_report(fx.K, fx.T, bounce_counts=(2, 3))
    brute = brute_force_min(fx.K, fx.T, 128)[0]
    elapsed = time.perf_counter() - t0
    ok = (abs(rep["min"] - 4.0) <= 1e-6
          and abs(rep["min"] - brute) <= 0.05
          and elapsed < 1.0)
    _report(1, "short chord min", ok,
            f"min={rep['min']:.9f} brute={brute:.9f} t={elapsed:.2f}s")


def test_criterion_02_family_lengths():
    fx = load("exampleG")
    vals = {a: ell_length(fx.T, example_g_curve(a)) for a in (0.0, 0.25, 0.5)}
    ok = (abs(vals[0.0] - 4.0) <= 1e-9 and abs(vals[0.25] - 3.0) <= 1e-9
          and abs(vals[0.5] - 2.0) <= 1e-9)
    _report(2, "2-bounce family lengths", ok, f"values={vals}")


def test_criterion_03_weak_without_strong():
    fx = load("exampleA")
    t0 = time.perf_counter()
    q, p = fx.curves["q"], fx.forced_duals["q"]
    pair = make_pair(fx.K, fx.T, q, p,
                     tuple(find_face(fx.K, v) for v in q),
                     tuple(find_face(fx.T, v) for v in p))
    cert = certify(fx.K, fx.T, pair)
    empty = len(search_three_bounce(fx.K, fx.T)) == 0
    elapsed = time.perf_counter() - t0
    ok = (not cert.certified) and empty and elapsed < 1.0
    _report(3, "weak trajectory, no strong one", ok,
            f"certified={cert.certified} search_empty={empty} t={elapsed:.2f}s")


def test_criterion_04_obtuse_triangles():
    tri = obtuse_triangle_100()
    t0 = time.perf_counter()
    results = {n: regular_three_bounce_exists(tri, regular_ngon(n))
               for n in (16, 64, 256)}
    elapsed = time.perf_counter() - t0
    ok = not any(results.values()) and elapsed < 5.0
    _report(4, "obtuse triangle vs n-gons", ok,
            f"exists={results} t={elapsed:.2f}s")


def test_criterion_05_fagnano():
    K = equilateral_triangle()
    t0 = time.perf_counter()
    pairs = search_three_bounce(K, regular_ngon(256))
    elapsed = time.perf_counter() - t0
    mid = 0.5 * (K.vertices + np.roll(K.vertices, -1, axis=0))
    ok = bool(pairs) and elapsed < 5.0
    worst = math.inf
    if pairs:
        worst = max(min(float(np.hypot(*(mid - v).T).min())
                        for v in [w]) for w in pairs[0].q)
        ok = ok and all(
            min(np.hypot(*(mid - v).T)) < 0.01 for v in pairs[0].q)
    _report(5, "Fagnano orbit", ok,
            f"found={len(pairs)} max_dev={worst:.4f} t={elapsed:.2f}s")


def test_criterion_06_dual_length_identity():
    worst = 0.0
    count = 0
    instances = []
    for name in ("exampleA", "exampleD", "exampleE", "exampleF_aux",
                 "exampleG", "fagnano"):
        fx = load(name)
        instances.append((fx.K, fx.T))
    rng = np.random.default_rng(2024)
    for _ in range(20):
        instances.append(random_instance(rng, int(rng.integers(3, 9)),
                                         int(rng.integers(3, 9))))
    for K, T in instances:
        for pair in [*search_two_bounce(K, T), *search_three_bounce(K, T)]:
            dual = ell_length(K.reflect(), pair.p)
            worst = max(worst, abs(pair.length - dual))
            count += 1
    ok = count > 0 and worst < 1e-8
    _report(6, "primal/dual length identity", ok,
            f"pairs={count} worst={worst:.2e}")


def test_criterion_07_perturbed_objectives():
    rng = np.random.default_rng(7)
    checked = 0
    worst = 0.0
    while checked < 10:
        K, T = random_instance(rng, int(rng.integers(4, 7)),
                               int(rng.integers(4, 7)))
        for pair in search_two_bounce(K, T):
            f1, f2 = pair.k_faces
            g1, g2 = pair.t_faces
            nv = sum(f.is_edge for f in (f1, f2, g1, g2))  # one per facet
            if nv == 0:
                continue
            redo = solve_face_tuple(K, T, f1, f2, g1, g2,
                                    objective=1e-2 * rng.standard_normal(nv))
            if redo is None:
                worst = math.inf
            else:
                worst = max(worst, abs(redo.length - pair.length))
            checked += 1
            if checked >= 10:
                break
    ok = worst < 1e-8
    _report(7, "objective perturbation stability", ok,
            f"tuples={checked} worst={worst:.2e}")


def test_criterion_08_oracle_sandwich():
    rng = np.random.default_rng(88)
    t0 = time.perf_counter()
    grid = 96
    worst_gap = 0.0
    worst_excess = -math.inf
    for _ in range(20):
        K, T = random_instance(rng, int(rng.integers(3, 7)),
                               int(rng.integers(3, 7)))
        alg = min(p.length for p in
                  [*search_two_bounce(K, T), *search_three_bounce(K, T)])
        brute = min(brute_force_min(K, T, grid))
        h = max(np.hypot(*(b - a)) for a, b in K.face_table.ends[K.n:]) / grid
        R = float(np.hypot(*T.vertices.T).max())
        C = 12.0 * R  # 2 vertices moved per edge, 3 edges, Lipschitz R each
        worst_gap = max(worst_gap, abs(alg - brute) / (C * h))
        worst_excess = max(worst_excess, alg - brute)
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1.0 and worst_excess <= 1e-6 and elapsed < 120.0
    _report(8, "oracle sandwich", ok,
            f"gap/C*h={worst_gap:.3f} excess={worst_excess:.2e} t={elapsed:.1f}s")


def test_criterion_09_geometry_identities():
    rng = np.random.default_rng(99)
    t0 = time.perf_counter()
    trials = 1000
    # support homogeneity + subadditivity + monotonicity on one body per trial
    polys = [random_polytope(rng, int(rng.integers(3, 8))) for _ in range(60)]
    ok = True
    for _ in range(trials):
        P = polys[int(rng.integers(len(polys)))]
        x = rng.normal(size=2) * 3
        y = rng.normal(size=2) * 3
        c = float(rng.uniform(0.1, 4))
        ok &= abs(support(P, c * x) - c * support(P, x)) < 1e-7
        ok &= support(P, x + y) <= support(P, x) + support(P, y) + 1e-7
        centred = P.translate(-P.centroid())
        Q = centred.scale(1.5)  # genuine superset: origin is interior
        ok &= support(centred, x) <= support(Q, x) + 1e-9
    homo_sub = ok
    # polar involution on recentred bodies
    ok = True
    for _ in range(trials):
        P = polys[int(rng.integers(len(polys)))]
        P = P.translate(-P.centroid())
        ok &= same_cycle(polar(polar(P)).vertices, P.vertices)
    involution = ok
    # translation invariance of curve length
    ok = True
    curve = np.array([(0, 0), (2, 0.3), (0.7, 1.9)])
    for _ in range(trials):
        P = polys[int(rng.integers(len(polys)))]
        t = rng.normal(size=2) * 5
        ok &= abs(ell_length(P, curve) - ell_length(P, curve + t)) < 1e-8
    translation = ok
    elapsed = time.perf_counter() - t0
    all_ok = homo_sub and involution and translation and elapsed < 10.0
    _report(9, "geometry identity suite", all_ok,
            f"homo/sub={homo_sub} involution={involution} "
            f"translation={translation} t={elapsed:.1f}s")


def test_criterion_10_bench_trends():
    """The bench's work counts follow the sizes: the 2-bounce face tuples
    and side solves of cell (a, b) equal those of (b, a), and the spanning
    facet triples rank with |V(K)|.  Times are checked only where the work
    differs by far more than the 2x a shared host drifts: in each search
    the 25x25 cell is slower than the 5x5 one."""
    res = run_bench([5, 15, 25], seed=3)
    by = {(r["nk"], r["nt"]): r for r in res["rows"]}
    sym = all(by[a, b][f] == by[b, a][f] for a, b in by
              for f in ("two_bounce_tuples", "two_bounce_solves"))
    corr3 = spearman([r["three_bounce_triples"] for r in res["rows"]],
                     [r["nk"] for r in res["rows"]])
    times = {f: (by[5, 5][f], by[25, 25][f]) for f in ("two_bounce_s", "three_bounce_s")}
    ok = sym and corr3 > 0.9 and all(small < large for small, large in times.values())
    _report(10, "bench scaling trends", ok,
            f"two_bounce counts symmetric={sym} three_bounce_triples~|V(K)| "
            f"corr={corr3:.3f} 5x5 vs 25x25 s={times}")
