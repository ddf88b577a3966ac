#!/usr/bin/env python3
"""Generate the instance pools in ``perfbench/pools`` and freeze their
reference values.

Run from the root of a checkout:

    python3 perfbench/freeze.py [grid ngon oracle]

Each pool is drawn from the workload's fixed seed below with the program's
own generators (``randgen``, ``fixtures``), then every instance is solved
once with ``minkbill shortest`` and its minimum (and for ``oracle`` the two
oracle values) is stored next to the vertices.  The benchmark compares every
later report against these values, so regenerate a pool only on purpose: the
references must come from a commit whose results are trusted.

Why each workload is built the way it is:

* ``grid``: |V(K)| and |V(T)| drawn per instance from 5..25, the range of
  the ROADMAP grid.  Facet triples grow as n_K^3, so the 3-bounce inbody LPs
  dominate.  Sizes are drawn, not taken from a 3x3 grid, so that the median
  does not sit on one cell.
* ``ngon``: the ``fagnano`` and ``obtuse100`` triangles plus random
  triangles and quadrilaterals, each against the regular 256-gon.  The
  2-bounce face-tuple LPs and the 256-row ``in_f`` LPs of ``certify``
  dominate: many small LPs instead of tall inbody LPs.
* ``oracle``: ``shortest --grid G`` on instances with |V(K)| from 4..8 (the
  oracle takes at most 16 facets), |V(T)| from 4..12 and G from 32..64.  The
  numpy ``brute_force_min`` does most of the work and runs no LP.  Its cost
  grows as (G |V(K)|)^3; drawing G as well spreads the operation times
  instead of leaving five clusters, one per |V(K)|, whose edges the median
  and the tail would otherwise sit on.

``pass_s`` is the time one pass over the pool took when it was frozen; a
run makes ``seconds // pass_s`` passes (at least one), so the amount of work,
and with it the percentile that ``solve_s.tail`` reports, does not change
when the program gets faster or slower.  ``trace_set`` is the part of the
pool that a traced run replays; ``warmup`` is a small instance of the same
kind, solved once during set-up.
"""

from __future__ import annotations

import json
import sys

from run import (OUT, POOLS, import_program, pin_threads, run_op,
                 write_instance)

SPECS = {
    "grid": {"seed": 101, "count": 18, "trace": 8},
    "ngon": {"seed": 102, "count": 5, "trace": 2},
    "oracle": {"seed": 103, "count": 34, "trace": 20},
}


def draw(name: str, rng):
    """(label, K, T, extra ``shortest`` arguments) for the pool, then the
    same for the warm-up instance."""
    from minkbill.fixtures import load, regular_ngon
    from minkbill.randgen import random_instance, random_polytope

    count = SPECS[name]["count"]
    if name == "grid":
        out = []
        for i in range(count):
            nk, nt = (int(n) for n in rng.integers(5, 26, size=2))
            out.append((f"g{i:02d}-{nk}x{nt}", *random_instance(rng, nk, nt), []))
        return out, ("warmup", *random_instance(rng, 5, 5), [])
    if name == "ngon":
        T = regular_ngon(256)
        out = [("fagnano", load("fagnano").K, T, []),
               ("obtuse100", load("obtuse100").K, T, [])]
        for i in range(count - len(out)):
            n = 3 + i % 2
            out.append((f"n{i:02d}-{n}gon", random_polytope(rng, n), T, []))
        return out, ("warmup", random_polytope(rng, 3), regular_ngon(16), [])
    out = []
    for i in range(count):
        nk = int(rng.integers(4, 9))
        nt = int(rng.integers(4, 13))
        grid = int(rng.integers(32, 65))
        out.append((f"o{i:02d}-{nk}x{nt}-g{grid}",
                    *random_instance(rng, nk, nt), ["--grid", str(grid)]))
    return out, ("warmup", *random_instance(rng, 4, 4), ["--grid", "32"])


def vertices(body) -> list:
    return body.to_json_obj()["vertices"]


def freeze(cli, name: str) -> dict:
    import numpy as np  # after pin_threads

    spec = SPECS[name]
    pool_draw, warm = draw(name, np.random.default_rng(spec["seed"]))
    directory = OUT / "freeze" / name
    directory.mkdir(parents=True, exist_ok=True)

    def instance(label, K, T, args):
        return {"name": label, "K": vertices(K), "T": vertices(T), "args": args}

    warmup = instance(*warm)
    run_op(cli, write_instance(directory, "warmup", warmup))
    instances = []
    pass_s = 0.0
    for drawn in pool_draw:
        inst = instance(*drawn)
        label = inst["name"]
        dt, rc, text = run_op(cli, write_instance(directory, label, inst))
        pass_s += dt
        if rc != 0:
            raise SystemExit(f"error: {name}/{label} exited with {rc}")
        report = json.loads(text)
        inst["min"] = report["min"]
        if "oracle" in report:
            inst["oracle"] = {k: report["oracle"][k]
                              for k in ("two_bounce_min", "three_bounce_min")}
        print(f"{name} {label} min={inst['min']:.10g} {dt:.2f}s", flush=True)
        instances.append(inst)
    return {
        "workload": name,
        "seed": spec["seed"],
        "pass_s": round(pass_s, 2),
        "trace_set": list(range(spec["trace"])),
        "warmup": warmup,
        "instances": instances,
    }


def main(argv) -> int:
    names = argv or list(SPECS)
    pin_threads()
    cli = import_program()
    POOLS.mkdir(exist_ok=True)
    for name in names:
        pool = freeze(cli, name)
        with open(POOLS / f"{name}.json", "w") as fh:
            json.dump(pool, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
