"""No change may alter a certified minimum: ``minkbill shortest`` on every
frozen instance of the benchmark pools (perfbench/pools/{grid,oracle,ngon}
.json, read only) passes the benchmark's own checks (``Checker.problems`` of
perfbench/run.py).  The minimum is within 1e-9 relative of the frozen one,
the argmin certifies and has that length, and on ``oracle`` both oracle
values are within 1e-9 of the frozen ones and not below the minimum.  The
oracle is exact, so its two values must moreover be the very floats frozen.

Nor may a change drop or add a candidate that is not the minimum: each
report's whole candidate list is pinned by tests/data/pool_candidates.json,
the ordered (m, k_faces, t_faces) of every candidate exactly and each length
to 1e-12 relative.  The same file pins the SHA-256 of each whole report
with its timings removed (report_digest), so a refactor that is meant to
change no output is checked to the last bit of every float.  Rewrite that
file, after a change that is meant to alter the candidates, with

    PYTHONPATH=src python tests/test_pools.py

which prints, for each instance, whether its report digest changed and the
largest relative change of any candidate length against the file it
replaces.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import minkbill.cli
from minkbill.geom import Face

import corpus

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
CANDIDATES = Path(__file__).resolve().parent / "data" / "pool_candidates.json"
POOLS = ("grid", "oracle", "ngon")


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = _load_run()
INSTANCES = [(pool, inst) for pool in POOLS for inst in corpus.pool(pool)]
IDS = [f"{pool}/{inst['name']}" for pool, inst in INSTANCES]


def _shortest(inst, directory) -> str:
    argv = RUN.write_instance(directory, inst["name"], inst)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert minkbill.cli.main(argv) == 0
    return out.getvalue()


def _candidates(text: str) -> list:
    """(m, k_faces, t_faces, length) of every candidate, in report order."""
    return [[c["m"], c["k_faces"], c["t_faces"], c["length"]]
            for c in json.loads(text)["candidates"]]


def report_digest(text: str) -> str:
    """SHA-256 of a report with its timings removed, keys sorted."""
    report = json.loads(text)
    del report["timings"]
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def checker():
    return RUN.Checker()


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """The report text of `minkbill shortest` on a pool instance, run once
    per instance for all tests of this module."""
    texts = {}

    def run(pool, inst):
        name = f"{pool}/{inst['name']}"
        if name not in texts:
            texts[name] = _shortest(inst, tmp_path_factory.mktemp(pool))
        return texts[name]
    return run


@pytest.fixture(scope="module")
def pinned():
    with open(CANDIDATES) as fh:
        return json.load(fh)


@pytest.mark.parametrize("pool, inst", INSTANCES, ids=IDS)
def test_pool_instance_keeps_its_minimum(pool, inst, checker, report):
    assert checker.problems(inst, report(pool, inst)) == []


@pytest.mark.parametrize("pool, inst", [(p, i) for p, i in INSTANCES if p == "oracle"],
                         ids=[name for name in IDS if name.startswith("oracle/")])
def test_pool_instance_keeps_its_oracle_floats(pool, inst, report):
    oracle = json.loads(report(pool, inst))["oracle"]
    assert {field: oracle[field] for field in inst["oracle"]} == inst["oracle"]


@pytest.mark.parametrize("pool, inst", INSTANCES, ids=IDS)
def test_pool_instance_keeps_its_candidates(pool, inst, pinned, report):
    got = _candidates(report(pool, inst))
    want = pinned[f"{pool}/{inst['name']}"]["candidates"]
    assert [c[:3] for c in got] == [c[:3] for c in want]
    for (*_, length), (*_, ref) in zip(got, want):
        assert length == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("pool, inst", INSTANCES, ids=IDS)
def test_pool_instance_keeps_its_report(pool, inst, pinned, report):
    got = report_digest(report(pool, inst))
    assert got == pinned[f"{pool}/{inst['name']}"]["report_digest"]


@pytest.mark.parametrize("pool, inst", INSTANCES, ids=IDS)
def test_verify_rederives_every_certificate(pool, inst, report, tmp_path):
    """`minkbill verify` on a pool report exits 0 and gives every candidate
    the certificate dict that the report carries, float for float."""
    text = report(pool, inst)
    path = tmp_path / "report.json"
    path.write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert minkbill.cli.main(["verify", str(path)]) == 0
    rows, candidates = json.loads(out.getvalue())["candidates"], json.loads(text)["candidates"]
    assert [row["index"] for row in rows] == list(range(len(candidates)))
    assert all(row["certified"] is True for row in rows)
    assert [row["certificate"] for row in rows] == [c["certificate"] for c in candidates]


def _broken_reports(inst, text):
    """(fault, report text, the problem the Checker must name) for a pool
    report: the min moved by 1e-6 relative, the argmin's first q vertex
    moved 1e-6 off its face along the outer normal of its facet (of the
    facet starting there, at a vertex), and its first K face replaced by
    ["edge", -n] and by the id of the other kind that aliases it, index
    i - n or i + n, neither a face of the n-gon K."""
    K = minkbill.ConvexPolytope2.from_vertices(inst["K"])
    reports = [json.loads(text) for _ in range(4)]
    kind, i = reports[0]["argmin"]["k_faces"][0]
    reports[0]["min"] *= 1 + 1e-6
    q = reports[1]["argmin"]["q"]
    q[0] = (np.array(q[0]) + 1e-6 * K.normals[i]).tolist()
    reports[2]["argmin"]["k_faces"][0] = ["edge", -K.n]
    reports[3]["argmin"]["k_faces"][0] = ["edge", i - K.n] if kind == "vertex" else [
        "vertex", i + K.n]
    faults = [("min", "min "), ("q off its face", "argmin fails certify"),
              ("face -n", "argmin fails certify"), ("aliased face", "argmin fails certify")]
    return [(fault, json.dumps(report), problem)
            for (fault, problem), report in zip(faults, reports)]


@pytest.mark.parametrize("name", ["grid/g00-11x24", "grid/g01-11x5", "oracle/o00-6x6-g34",
                                  "oracle/o32-8x9-g52"])
def test_checker_reports_a_broken_report(name, checker, report):
    """The benchmark's Checker names each fault of _broken_reports on grid
    and oracle reports whose own check passes (o32's argmin starts at
    vertex 0 of K, which ["edge", -n] aliases when face ids wrap)."""
    pool, inst = INSTANCES[IDS.index(name)]
    text = report(pool, inst)
    assert checker.problems(inst, text) == []
    for fault, bad, problem in _broken_reports(inst, text):
        found = checker.problems(inst, bad)
        assert any(p.startswith(problem) for p in found), (fault, found)


def test_shortest_builds_no_pair_object(monkeypatch, tmp_path):
    """`minkbill shortest` on every grid and oracle instance builds no
    Face: each search's certified pairs go from verify.certified_pairs to
    the report as one Pairs stack, with face ids.  The spy on its
    constructor counts one built directly."""
    built = Counter()

    def counted(self, *args, _init=Face.__init__, **kwargs):
        built["Face"] += 1
        _init(self, *args, **kwargs)
    monkeypatch.setattr(Face, "__init__", counted)
    Face.vertex(0)
    assert built == {"Face": 1}
    built.clear()
    for pool, inst in INSTANCES:
        if pool in ("grid", "oracle"):
            assert json.loads(_shortest(inst, tmp_path))["candidates"]
    assert built == {}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        reports = {name: _shortest(inst, Path(directory))
                   for name, (_, inst) in zip(IDS, INSTANCES)}
    old = json.loads(CANDIDATES.read_text()) if CANDIDATES.exists() else {}
    for name, text in reports.items():
        was, got = old.get(name, {"candidates": []}), _candidates(text)
        digest = "kept" if was.get("report_digest") == report_digest(text) else "changed"
        moved = max((abs(c[3] - w[3]) / w[3] for c, w in zip(got, was["candidates"])),
                    default=0.0)
        print(f"{name}: digest {digest}, largest relative length change {moved:.3g}")
    CANDIDATES.parent.mkdir(exist_ok=True)
    with open(CANDIDATES, "w") as fh:  # one candidate a line
        fh.write("{\n" + ",\n".join(
            f'{json.dumps(name)}: {{"report_digest": {json.dumps(report_digest(text))},'
            ' "candidates": [\n' + ",\n".join(map(json.dumps, _candidates(text))) + "]}"
            for name, text in reports.items()) + "\n}\n")
