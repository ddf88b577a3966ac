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
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import tempfile
from pathlib import Path

import pytest

import minkbill.cli

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
def pinned():
    with open(CANDIDATES) as fh:
        return json.load(fh)


@pytest.mark.parametrize("pool, inst", INSTANCES, ids=IDS)
def test_pool_instance_keeps_its_minimum(pool, inst, checker, tmp_path):
    assert checker.problems(inst, _shortest(inst, tmp_path)) == []


@pytest.mark.parametrize("pool, inst", [(p, i) for p, i in INSTANCES if p == "oracle"],
                         ids=[name for name in IDS if name.startswith("oracle/")])
def test_pool_instance_keeps_its_oracle_floats(pool, inst, tmp_path):
    oracle = json.loads(_shortest(inst, tmp_path))["oracle"]
    assert {field: oracle[field] for field in inst["oracle"]} == inst["oracle"]


@pytest.mark.parametrize("pool, inst", INSTANCES, ids=IDS)
def test_pool_instance_keeps_its_candidates(pool, inst, pinned, tmp_path):
    got = _candidates(_shortest(inst, tmp_path))
    want = pinned[f"{pool}/{inst['name']}"]["candidates"]
    assert [c[:3] for c in got] == [c[:3] for c in want]
    for (*_, length), (*_, ref) in zip(got, want):
        assert length == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("pool, inst", INSTANCES, ids=IDS)
def test_pool_instance_keeps_its_report(pool, inst, pinned, tmp_path):
    got = report_digest(_shortest(inst, tmp_path))
    assert got == pinned[f"{pool}/{inst['name']}"]["report_digest"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        reports = {name: _shortest(inst, Path(directory))
                   for name, (_, inst) in zip(IDS, INSTANCES)}
    CANDIDATES.parent.mkdir(exist_ok=True)
    with open(CANDIDATES, "w") as fh:  # one candidate a line
        fh.write("{\n" + ",\n".join(
            f'{json.dumps(name)}: {{"report_digest": {json.dumps(report_digest(text))},'
            ' "candidates": [\n' + ",\n".join(map(json.dumps, _candidates(text))) + "]}"
            for name, text in reports.items()) + "\n}\n")
