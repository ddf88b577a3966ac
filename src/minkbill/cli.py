"""Command-line interface.

Subcommands operate on polytope JSON files ({"vertices": [[x, y], ...]},
counterclockwise) and emit a versioned JSON report.  Everything is
deterministic for a fixed seed, and reports round-trip through `verify`.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__
from .bounce2 import SearchStats, search_two_bounce
from .bounce3 import search_three_bounce, spanning_triples
from .fixtures import UnknownFixture, load as load_fixture, regular_ngon
from .geom import ConvexPolytope2, Face, GeometryError
from .obtuse import in_family_t, largest_angle, regular_three_bounce_exists
from .pairs import make_pair
from .randgen import GenerationExhausted, random_instance
from .verify import brute_force_min, certify

REPORT_SCHEMA = "minkowski-billiards-report/1"


class InvalidInput(ValueError):
    """A command-line argument or input file that breaks a stated rule."""


class _Entries(dict):
    """A JSON object of a report: a missing key is invalid input."""

    def __missing__(self, key):
        raise InvalidInput(f"report entry without the key {key!r}")


def _polygon_sizes(text: str, option: str) -> List[int]:
    """A comma-separated list of vertex counts, each at least 3."""
    sizes = [int(s) for s in re.findall(r"\d+", text)]
    if not re.fullmatch(r"\d+(,\d+)*", text) or min(sizes) < 3:
        raise InvalidInput(f"{option} must list integers >= 3, got {text!r}")
    return sizes


def _load_polytope(path: str) -> ConvexPolytope2:
    with open(path) as fh:
        return ConvexPolytope2.from_json_obj(json.load(fh))


def _dump_json(obj, out: Optional[str]) -> None:
    text = json.dumps(obj, sort_keys=True)  # any indent forces json's Python encoder
    if out is None or out == "-":
        print(text)
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _face_from_obj(obj, P: ConvexPolytope2) -> Face:
    """The face [kind, index] of a report, checked against P."""
    if not (isinstance(obj, list) and len(obj) == 2
            and obj[0] in ("vertex", "edge") and type(obj[1]) is int
            and 0 <= obj[1] < P.n):
        raise GeometryError(f"{obj!r} is not a face of a {P.n}-gon")
    return Face(*obj)


def _points(obj, what: str) -> np.ndarray:
    """A JSON list of points [x, y] as an (m, 2) float array."""
    try:
        pts = np.asarray(obj)
    except ValueError:  # ragged
        pts = np.empty(0)
    if pts.dtype.kind not in "iuf" or pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidInput(f"{what} is not a list of points [x, y]")
    return pts.astype(float)


def _candidate(cand, what: str):
    """q, p and length of a report candidate, its entries' types and counts checked."""
    if not isinstance(cand, dict):
        raise InvalidInput(f"{what} is not an object")
    if not all(isinstance(cand[key], list) for key in ("k_faces", "t_faces")):
        raise InvalidInput(f"{what} has faces that are not a list")
    length = cand["length"]
    if isinstance(length, bool) or not isinstance(length, (int, float)):
        raise InvalidInput(f"{what} has a length that is not a number")
    q, p = _points(cand["q"], f"{what} q"), _points(cand["p"], f"{what} p")
    if [len(q), len(p), len(cand["k_faces"]), len(cand["t_faces"])] != [cand["m"]] * 4:
        raise InvalidInput(f"{what}: q, p, k_faces and t_faces do not all have m entries")
    return q, p, length


def _load_report(path: str) -> dict:
    with open(path) as fh:
        report = json.load(fh, object_hook=_Entries)
    if not isinstance(report, dict) or report.get("schema") != REPORT_SCHEMA:
        raise InvalidInput(f"{path} is not a {REPORT_SCHEMA} report")
    return report


def _search_report(K: ConvexPolytope2, T: ConvexPolytope2,
                   bounce_counts: Sequence[int]) -> dict:
    timings: Dict[str, float] = {}
    found = []
    for m, name, search in ((2, "two", search_two_bounce), (3, "three", search_three_bounce)):
        if m in bounce_counts:
            t0 = time.perf_counter()
            pairs = search(K, T)
            timings[f"{name}_bounce_s"] = time.perf_counter() - t0
            found += pairs.to_json_obj()
    # each stack is in (length, face ids) order, so a stable sort by
    # (length, m) puts the candidates in (length, m, face ids) order
    candidates = sorted(found, key=lambda c: (c["length"], c["m"]))
    return {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "bounce_counts": sorted(bounce_counts),
        "K": K.to_json_obj(),
        "T": T.to_json_obj(),
        "candidates": candidates,
        "min": candidates[0]["length"] if candidates else None,
        "argmin": candidates[0] if candidates else None,
        "timings": timings,
    }


def cmd_shortest(args) -> int:
    if args.grid is not None and args.grid < 1:
        raise InvalidInput(f"--grid must be at least 1, got {args.grid}")
    K = _load_polytope(args.K)
    T = _load_polytope(args.T)
    if args.grid is not None:  # first, so that its facet limit fails before the searches
        t0 = time.perf_counter()
        two, three = brute_force_min(K, T, args.grid)
        oracle = {"grid": args.grid, "two_bounce_min": two, "three_bounce_min": three}
        oracle_s = time.perf_counter() - t0
    report = _search_report(K, T, (2, 3))
    if args.grid is not None:
        report["oracle"] = oracle
        report["timings"]["oracle_s"] = oracle_s
    _dump_json(report, args.out)
    return 0 if report["min"] is not None else 1


def cmd_search(args) -> int:
    K = _load_polytope(args.K)
    T = _load_polytope(args.T)
    _dump_json(_search_report(K, T, args.bounce_counts), args.out)
    return 0


def cmd_verify(args) -> int:
    report = _load_report(args.report)
    K = ConvexPolytope2.from_json_obj(report["K"])
    T = ConvexPolytope2.from_json_obj(report["T"])
    if not isinstance(report["candidates"], list):
        raise InvalidInput("the report's candidates are not a list")
    all_ok = True
    rows = []
    for i, cand in enumerate(report["candidates"]):
        q, p, length = _candidate(cand, f"candidate {i}")
        pair = make_pair(K, T, q, p,
                         [_face_from_obj(f, K) for f in cand["k_faces"]],
                         [_face_from_obj(f, T) for f in cand["t_faces"]])
        if pair is None:
            rows.append({"index": i, "certified": False,
                         "error": "degenerate curve data"})
            all_ok = False
            continue
        cert = certify(K, T, pair)
        ok = cert.certified and abs(pair.length - length) < 1e-9
        rows.append({"index": i, "certified": ok,
                     "certificate": cert.to_json_obj()})
        all_ok = all_ok and ok
    _dump_json({"schema": REPORT_SCHEMA, "verified": all_ok,
                "candidates": rows}, args.out)
    return 0 if all_ok else 1


def _check_seed(seed: int) -> int:
    if seed < 0:
        raise InvalidInput(f"--seed must be a non-negative integer, got {seed}")
    return seed


def cmd_gen(args) -> int:
    if min(args.nk, args.nt) < 3:
        raise InvalidInput("nk and nt must be at least 3")
    rng = np.random.default_rng(_check_seed(args.seed))
    K, T = random_instance(rng, args.nk, args.nt)
    _dump_json(K.to_json_obj(), args.out_k)
    _dump_json(T.to_json_obj(), args.out_t)
    return 0


def run_bench(sizes: Sequence[int], seed: int) -> dict:
    """Best-of-7 times of both searches on a grid of random instance sizes,
    next to their work counts: SearchStats (2-bounce tuples, side solves and
    screened tuples, 3-bounce inbody triples) and the spanning facet triples.
    Each repeat visits every cell in turn, so a stretch of slow machine time
    costs each cell at most one of its samples; on a shared host whose speed
    drifts by up to 2x, 7 repeats keep cells whose work differs by 1.7x in
    order where 3 did not."""
    rng = np.random.default_rng(seed)
    cells = [(nk, nt, *random_instance(rng, nk, nt))
             for nk in sizes for nt in sizes]
    best = np.full((len(cells), 2), math.inf)
    found = [(0, 0)] * len(cells)
    stats = [SearchStats() for _ in cells]
    for _ in range(7):
        for i, (nk, nt, K, T) in enumerate(cells):
            stats[i] = SearchStats()
            t0 = time.perf_counter()
            two = search_two_bounce(K, T, stats[i])
            t1 = time.perf_counter()
            three = search_three_bounce(K, T, stats[i])
            best[i] = np.minimum(best[i], [t1 - t0, time.perf_counter() - t1])
            found[i] = (len(two), len(three))
    rows = [{"nk": nk, "nt": nt,
             "two_bounce_s": float(best[i, 0]),
             "three_bounce_s": float(best[i, 1]),
             "two_bounce_found": found[i][0],
             "three_bounce_found": found[i][1],
             "two_bounce_tuples": stats[i].tuples_after_filter,
             "two_bounce_solves": stats[i].side_solves,
             "two_bounce_screened": stats[i].tuples_after_screen,
             "three_bounce_triples": len(spanning_triples(K)),
             "three_bounce_inbody": stats[i].inbody_triples}
            for i, (nk, nt, K, _) in enumerate(cells)]
    return {
        "schema": "minkowski-billiards-bench/1",
        "seed": seed,
        "sizes": list(sizes),
        "rows": rows,
    }


def cmd_bench(args) -> int:
    _dump_json(run_bench(_polygon_sizes(args.sizes, "--sizes"),
                         _check_seed(args.seed)), args.out)
    return 0


def cmd_obtuse(args) -> int:
    if args.triangle:
        tri = _load_polytope(args.triangle)
        if tri.n != 3:
            raise InvalidInput(f"--triangle has {tri.n} vertices, not 3")
    else:
        tri = load_fixture("obtuse100").K
    ngons = _polygon_sizes(args.ngons, "--ngons")
    rows = []
    for n in ngons:
        T = regular_ngon(n)
        exists = regular_three_bounce_exists(tri, T)
        member, witness = in_family_t(tri, T)
        rows.append({
            "ngon": n,
            "regular_three_bounce_exists": exists,
            "in_family": member,
            "witness": None if witness is None else {
                "rotation": witness.rotation,
                "scale": witness.scale,
                "shift": witness.shift.tolist(),
                "vertices": witness.vertices.tolist(),
            },
        })
    _dump_json({
        "schema": "minkowski-billiards-obtuse/1",
        "triangle": tri.to_json_obj(),
        "largest_angle_deg": float(np.degrees(largest_angle(tri))),
        "rows": rows,
    }, args.out)
    return 0


def render_svg(report: dict) -> str:
    """Deterministic SVG: K with the winning trajectory, T with its dual."""
    K = ConvexPolytope2.from_json_obj(report["K"])
    T = ConvexPolytope2.from_json_obj(report["T"])
    argmin = report.get("argmin")

    def panel(body, curve, x0, color):
        lo = body.vertices.min(axis=0)
        hi = body.vertices.max(axis=0)
        span = float(max(hi - lo))
        scale = 360.0 / span

        def pt(p):
            x = x0 + 20 + (p[0] - lo[0]) * scale
            y = 380 - (p[1] - lo[1]) * scale
            return f"{x:.3f},{y:.3f}"

        parts = ["<polygon points=\"%s\" fill=\"none\" stroke=\"black\"/>"
                 % " ".join(pt(v) for v in body.vertices)]
        if curve is not None:
            parts.append(
                "<polygon points=\"%s\" fill=\"none\" stroke=\"%s\" stroke-width=\"2\"/>"
                % (" ".join(pt(v) for v in curve), color))
            for v in curve:
                x, y = pt(v).split(",")
                parts.append(f"<circle cx=\"{x}\" cy=\"{y}\" r=\"3\" fill=\"{color}\"/>")
        return parts

    q = np.asarray(argmin["q"]) if argmin else None
    p = np.asarray(argmin["p"]) if argmin else None
    body = panel(K, q, 0, "#c0392b") + panel(T, p, 420, "#2980b9")
    label = ("min length %.6f (m=%d)" % (argmin["length"], len(q))
             if argmin else "no certified trajectory")
    body.append(f'<text x="20" y="20" font-family="monospace">{label}</text>')
    return ("<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"840\" height=\"420\">"
            + "".join(body) + "</svg>")


def cmd_plot(args) -> int:
    report = _load_report(args.report)
    if report["argmin"] is not None:
        _candidate(report["argmin"], "argmin")
    svg = render_svg(report)
    with open(args.out, "w") as fh:
        fh.write(svg + "\n")
    return 0


@functools.lru_cache(maxsize=None)  # one per process: parse_args leaves it as it is
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="minkbill",
        description="length-minimizing closed billiard trajectories in "
                    "polytopal Minkowski geometries")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    bodies = argparse.ArgumentParser(add_help=False)
    bodies.add_argument("K")
    bodies.add_argument("T")
    bodies.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("shortest", parents=[bodies],
                       help="run both searches, report the minimum")
    p.add_argument("--grid", type=int, default=None,
                   help="also run the brute-force oracle at this resolution")
    p.set_defaults(func=cmd_shortest)

    p = sub.add_parser("two-bounce", parents=[bodies],
                       help="all certified 2-bounce trajectories")
    p.set_defaults(func=cmd_search, bounce_counts=(2,))

    p = sub.add_parser("three-bounce", parents=[bodies],
                       help="all certified 3-bounce trajectories")
    p.set_defaults(func=cmd_search, bounce_counts=(3,))

    p = sub.add_parser("verify", help="re-certify the candidates of a report")
    p.add_argument("report")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("nk", type=int)
    p.add_argument("nt", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-k", default="K.json")
    p.add_argument("--out-t", default="T.json")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="timing grid over random instances")
    p.add_argument("--sizes", default="5,15,25")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("obtuse", help="triangle 3-bounce existence vs. n-gons")
    p.add_argument("--triangle", default=None, help="triangle JSON (default: "
                   "the built-in obtuse example)")
    p.add_argument("--ngons", default="16,64,256")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_obtuse)

    p = sub.add_parser("plot", help="render a report as SVG")
    p.add_argument("report")
    p.add_argument("out")
    p.set_defaults(func=cmd_plot)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GeometryError, InvalidInput, UnknownFixture, GenerationExhausted,
            json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
