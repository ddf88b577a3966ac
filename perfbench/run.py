#!/usr/bin/env python3
"""Benchmark of ``minkbill shortest`` on frozen instance pools.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 56 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 56 --trace 1

One operation is one in-process ``minkbill.cli.main(["shortest", K.json,
T.json, ...])`` call on instance files written at set-up.  A single
closed-loop client issues operations back to back.  The instances of each
workload are a pool frozen in ``perfbench/pools/<workload>.json`` together
with the reference minimum (and, for ``oracle``, the oracle values) that
``perfbench/freeze.py`` computed for them.  ``--seed`` sets the order in
which every pass visits the pool, and the order of the workloads in a round.
A run makes ``--seconds // pass_s`` whole passes over each pool, where
``pass_s`` is the time of one pass when the pool was frozen.  So every seed
measures the same multiset of instances, the medians do not depend on which
instances a cut-off pass happened to reach, and the number of samples (and
with it the percentile of ``solve_s.tail``) does not change when the program
gets faster or slower.

``--trace 0`` times the operations with no instrumentation installed and
prints the end-to-end metrics of ``BENCHMARK.json``.  Every time in them is
normalised by the machine's speed at that moment (see ``speed.py``): after
each operation and each set-up a fixed reference computation is timed, and
the wall time is divided by its slow-down against nominal.  The raw wall
times go to the result file next to the normalised ones.  ``--trace 1`` runs
the pool's trace set once untraced and twice traced (see ``tracer.py``), checks
that the work counts of the two traced passes agree, and prints the
per-layer metrics.  Either way every report is checked after timing: the
minimum against the frozen reference (relative 1e-9), the argmin by an
independent ``certify``, and on ``oracle`` the oracle values against the
frozen ones and against the search minimum.  The last line of standard
output is one JSON object; the exit status is non-zero when any check
failed, any operation raised or exited non-zero, or the counts drifted.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
POOLS = BENCH / "pools"
OUT = ROOT / ".bench_out"
WORKLOADS = ("grid", "ngon", "oracle")
REL_TOL = 1e-9
SETUP_PROBES = 4  # fresh set-ups before and again after the timed passes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import ``minkbill.cli`` from the checkout's ``src`` directory."""
    src = ROOT / "src"
    if not (src / "minkbill" / "cli.py").is_file():
        raise SystemExit(f"error: no minkbill sources under {src}; run from "
                         "the root of a checkout of the repository")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import minkbill.cli
    return minkbill.cli


def load_pool(name: str) -> dict:
    with open(POOLS / f"{name}.json") as fh:
        return json.load(fh)


def write_instance(directory: Path, label: str, inst: dict) -> list:
    """Write K and T as polytope files; return the ``shortest`` argv."""
    paths = []
    for body in ("K", "T"):
        path = directory / f"{label}-{body}.json"
        with open(path, "w") as fh:
            json.dump({"vertices": inst[body]}, fh)
        paths.append(str(path))
    return ["shortest", *paths, *inst["args"]]


def run_op(cli, argv):
    """One timed operation: (seconds, exit status, captured stdout)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:  # an operation that raises counts as failed
        traceback.print_exc()
        rc = None
    return time.perf_counter() - t0, rc, buf.getvalue()


class Workload:
    """A loaded pool with its instance files written and warmed up."""

    def __init__(self, cli, name: str):
        pool = load_pool(name)
        self.instances = pool["instances"]
        self.trace_set = pool["trace_set"]
        self.pass_s = pool["pass_s"]
        directory = OUT / "instances" / name
        directory.mkdir(parents=True, exist_ok=True)
        self.argv = [write_instance(directory, inst["name"], inst)
                     for inst in self.instances]
        warm = write_instance(directory, "warmup", pool["warmup"])
        _, rc, _ = run_op(cli, warm)
        if rc != 0:
            raise SystemExit(f"error: {name} warm-up exited with {rc}")


def setup(names):
    """Import, instance files and warm-up; returns (cli, workloads, seconds)."""
    t0 = time.perf_counter()
    cli = import_program()
    work = {name: Workload(cli, name) for name in names}
    return cli, work, time.perf_counter() - t0


def setup_probes(names, count: int) -> list:
    """(raw, normalised) set-up time of ``count`` fresh interpreters, run
    one after another; each one normalises by its own speed probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", ",".join(names), "--setup-only"]
    out = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        raw, norm = map(float, proc.stdout.split()[-2:])
        out.append((raw, norm))
    return out


# ---------------------------------------------------------------------------
# checks


def close(a, b) -> bool:
    return a is not None and abs(a - b) <= REL_TOL * max(abs(a), abs(b))


class Checker:
    """Untimed checks of one report against its frozen instance, made with
    the program's own ``make_pair`` and ``certify``."""

    def __init__(self):
        from minkbill.geom import ConvexPolytope2, Face
        from minkbill.pairs import make_pair
        from minkbill.verify import certify
        self._poly = ConvexPolytope2.from_vertices
        self._face = Face
        self._make_pair = make_pair
        self._certify = certify
        self._bodies = {}

    def problems(self, inst: dict, text: str) -> list:
        report = json.loads(text)
        got = report["min"]
        out = []
        if not close(got, inst["min"]):
            out.append(f"min {got!r} differs from frozen {inst['min']!r}")
        key = inst["name"]
        if key not in self._bodies:
            self._bodies[key] = (self._poly(inst["K"]), self._poly(inst["T"]))
        K, T = self._bodies[key]
        arg = report["argmin"] or {}
        pair = self._make_pair(
            K, T, arg.get("q", []), arg.get("p", []),
            [self._face(str(k), int(i)) for k, i in arg.get("k_faces", [])],
            [self._face(str(k), int(i)) for k, i in arg.get("t_faces", [])])
        if pair is None or not self._certify(K, T, pair).certified:
            out.append("argmin fails certify")
        elif not close(pair.length, got):
            out.append(f"argmin length {pair.length!r} is not the minimum")
        if "oracle" in inst:
            oracle = report.get("oracle", {})
            for field, ref in inst["oracle"].items():
                if not close(oracle.get(field), ref):
                    out.append(f"oracle {field} {oracle.get(field)!r} "
                               f"differs from frozen {ref!r}")
            values = [v for v in oracle.values() if v is not None]
            if got is not None and values and min(values) < got * (1 - REL_TOL):
                out.append(f"oracle {min(values)!r} below the search "
                           f"minimum {got!r}")
        return out


def check_all(checker, work, runs) -> tuple:
    """Check every recorded operation; returns (errors, wrong) per workload."""
    errors = {name: 0 for name in work}
    wrong = {name: 0 for name in work}
    for name, index, rc, text, _, _ in runs:
        inst = work[name].instances[index]
        if rc != 0:
            errors[name] += 1
            print(f"error: {name}/{inst['name']} exited with {rc}",
                  file=sys.stderr)
            continue
        try:
            found = checker.problems(inst, text)
        except (ValueError, KeyError, TypeError) as exc:
            found = [f"unreadable report: {exc!r}"]
        if found:
            wrong[name] += 1
            print(f"wrong: {name}/{inst['name']}: {'; '.join(found)}",
                  file=sys.stderr)
    return errors, wrong


# ---------------------------------------------------------------------------
# measuring


def run_pass(cli, name, indices, argv, rng, runs, on_op=None, probe=None):
    """Visit ``indices`` in a seeded order; returns the wall time of the pass.

    Each op appends (workload, index, status, stdout, seconds, normalised
    seconds) to ``runs``.  With a ``probe`` (``speed.factor``) the op time
    is divided by the mean of the probes taken just before and just after
    it; without one the two times are equal."""
    t0 = time.perf_counter()
    before = probe() if probe else 1.0
    for index in rng.sample(indices, len(indices)):
        if on_op is not None:
            on_op(name, index)
        dt, rc, text = run_op(cli, argv[index])
        after = probe() if probe else 1.0
        runs.append((name, index, rc, text, dt, dt / ((before + after) / 2)))
        before = after
    return time.perf_counter() - t0


def measure(cli, work, rng, seconds):
    """Whole passes over every pool, round-robin across workloads in seeded
    order; each workload makes ``seconds // pass_s`` passes (at least one)."""
    import speed
    passes = {name: max(1, int(seconds // w.pass_s)) for name, w in work.items()}
    runs = []
    for r in range(max(passes.values())):
        for name in rng.sample(list(work), len(work)):
            if r >= passes[name]:
                continue
            w = work[name]
            run_pass(cli, name, list(range(len(w.instances))), w.argv, rng,
                     runs, probe=speed.factor)
    return runs, passes


def quantile(samples, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: a Beta(q(n+1),
    (1-q)(n+1))-weighted mean of all order statistics.

    A pool holds a few dozen instances whose times lie in clusters, so a
    single order statistic often sits on the edge between two instances and
    jumps with op-to-op noise; the weighted mean moves smoothly instead."""
    import numpy as np
    x = np.sort(np.asarray(samples, dtype=float))
    n, k = len(x), 64
    a, b = q * (n + 1), (1 - q) * (n + 1)
    u = np.linspace(0.0, 1.0, k * n + 1)[1:-1]
    log_pdf = (a - 1) * np.log(u) + (b - 1) * np.log1p(-u)
    pdf = np.concatenate([[0.0], np.exp(log_pdf - log_pdf.max()), [0.0]])
    cdf = np.concatenate([[0.0], np.cumsum(pdf[1:] + pdf[:-1])])
    return float(np.diff(cdf[::k] / cdf[-1]) @ x)


def tail(samples) -> tuple:
    """(value, percentile, samples beyond it): the highest percentile with
    ten samples above it, or with fewer, but never below the median, when
    there are fewer than 21 samples."""
    n = len(samples)
    beyond = min(10, (n - 1) // 2)
    q = (n - beyond) / n
    return quantile(samples, q), 100.0 * q, beyond


def peak_rss_mb() -> float:
    """High-water resident set size of this process image.

    ``ru_maxrss`` keeps the peak of the image that ran before ``exec``, so
    under a large parent process it reports the parent's size; the kernel's
    ``VmHWM`` starts afresh at ``exec``."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(work, runs, errors, wrong, setup_s, rss_mb):
    metrics, notes = {}, {}
    for name in work:
        ops = [r for r in runs if r[0] == name]
        t = [norm for *_, norm in ops]
        raw = [dt for *_, dt, _ in ops]
        per_instance = {}
        for _, index, _, _, _, norm in ops:
            per_instance.setdefault(index, []).append(norm)
        value, pct, beyond = tail(t)
        m = {
            # every instance has the same number of samples, so this is the
            # median op time with each instance's op-to-op noise damped
            "solve_s.p50": quantile([statistics.median(v)
                                     for v in per_instance.values()], 0.5),
            "solve_s.tail": value,
            "instances_per_s": len(t) / sum(t),
            "setup_s": setup_s,
            "peak_rss_mb": rss_mb,
        }
        metrics[name] = m
        notes[name] = {
            "solve_s.tail": f"p{pct:.1f}, n={len(t)}, {beyond} beyond",
            "wrong_min": wrong[name],
            "error_rate": errors[name] / len(t),
            "solve_s.p50": f"raw wall p50 {statistics.median(raw):.4g} s",
            "setup_s": "speed-normalised; raw samples on the first line",
        }
    return metrics, notes


def traced(cli, work, rng):
    """Per workload: one untraced and two traced passes over the trace set.
    ``trace.overhead`` compares the passes' speed-normalised op times, since
    the passes run at different moments."""
    import minkbill
    import speed
    from tracer import Tracer, installed

    metrics, notes, runs, drift = {}, {}, [], {}
    for name, w in work.items():
        def op_seconds(on_op=None, w=w, name=name):
            start = len(runs)
            run_pass(cli, name, w.trace_set, w.argv, rng, runs, on_op,
                     speed.factor)
            return sum(norm for *_, norm in runs[start:])

        tracer = Tracer()
        wall_u = op_seconds()
        passes = []
        with installed(tracer, minkbill):
            for label in ("A", "B"):
                def on_op(wname, index, label=label):
                    tracer.instance = f"{wname}/{w.instances[index]['name']}/{label}"
                wall_t = op_seconds(on_op)
                passes.append((tracer.take(), wall_t))
        (a, wall_a), (b, wall_b) = passes
        ma, mb = a.metrics(), b.metrics()
        drift[name] = {k: (ma[k], mb[k]) for k in a.counts() if ma[k] != mb[k]}
        m = {k: (ma[k] + mb[k]) / 2 if k.endswith((".s", ".self_s")) else ma[k]
             for k in ma}
        m["trace.overhead"] = (wall_a + wall_b) / 2 / wall_u
        metrics[name] = m
        notes[name] = {"untraced_s": wall_u, "traced_s": [wall_a, wall_b],
                       "spans": [len(a.spans), len(b.spans)]}
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{name}.jsonl", "w") as fh:
            a.write_spans(fh, "A")
            b.write_spans(fh, "B")
    return metrics, notes, runs, drift


# ---------------------------------------------------------------------------
# output


def declared(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def select(metrics: dict, units: dict) -> dict:
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"error: declared metrics not produced: {missing}")
    return {k: {"value": metrics[k], "unit": u} for k, u in units.items()}


def environment() -> dict:
    import numpy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    help="one of %s, a comma list, or all" % ", ".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=56.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        ap.error(f"unknown workload(s) {unknown}")

    pin_threads()
    cli, work, first_setup = setup(names)
    import speed
    first = (first_setup, first_setup / speed.factor())
    if args.setup_only:
        print(*first)
        return 0
    units = declared(args.trace)
    checker = Checker()
    setups = [first]
    setups += setup_probes(names, SETUP_PROBES)
    rng = random.Random(args.seed)

    drift = {}
    if args.trace:
        metrics, notes, runs, drift = traced(cli, work, rng)
    else:
        runs, passes = measure(cli, work, rng, args.seconds)
    errors, wrong = check_all(checker, work, runs)
    setups += setup_probes(names, SETUP_PROBES)
    setup_s = statistics.median(norm for _, norm in setups)
    if not args.trace:
        rss_mb = peak_rss_mb()
        metrics, notes = end_to_end(work, runs, errors, wrong, setup_s,
                                    rss_mb)
        for name in work:
            notes[name]["passes"] = passes[name]
    attempted = len(runs)
    failed = sum(errors.values()) + sum(wrong.values())
    drifted = {name: d for name, d in drift.items() if d}
    correct = failed == 0 and not drifted

    env = environment()
    print("# " + " ".join(f"{k}={v}" for k, v in env.items())
          + f" seed={args.seed} seconds={args.seconds} trace={args.trace}"
          + f" setup_samples={','.join(f'{s:.4f}' for s, _ in setups)}")
    result = {}
    for name in work:
        chosen = select(metrics[name], units)
        for key, m in chosen.items():
            note = notes[name].get(key, "")
            print(f"{name:<7} {key:<48} {m['value']:>14.6g} {m['unit']:<6} {note}")
        if not args.trace:
            print(f"{name:<7} {'wrong_min':<48} {wrong[name]:>14d} count")
            print(f"{name:<7} {'error_rate':<48} "
                  f"{notes[name]['error_rate']:>14.6g} ratio")
        for key, (x, y) in drift.get(name, {}).items():
            print(f"{name:<7} count drift {key}: {x} then {y}", file=sys.stderr)
        prefix = "" if len(work) == 1 else f"{name}."
        result.update({prefix + k: v for k, v in chosen.items()})

    op_s = {name: {} for name in work}
    for name, index, _, _, dt, norm in runs:
        op_s[name].setdefault(work[name].instances[index]["name"],
                              []).append([dt, norm])
    OUT.mkdir(exist_ok=True)
    record = {"workloads": names, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "setup_samples": setups,
              "attempted": attempted, "failed": failed, "drift": drifted,
              "metrics": metrics, "notes": notes, "op_s": op_s}
    with open(OUT / f"result-{'-'.join(names)}-{args.seed}-{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
