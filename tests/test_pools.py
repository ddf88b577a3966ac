"""No change may alter a certified minimum: ``minkbill shortest`` on every
frozen instance of the benchmark pools (perfbench/pools/{grid,oracle,ngon}
.json, read only) passes the benchmark's own checks (``Checker.problems`` of
perfbench/run.py).  The minimum is within 1e-9 relative of the frozen one,
the argmin certifies and has that length, and on ``oracle`` both oracle
values are within 1e-9 of the frozen ones and not below the minimum."""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

import minkbill.cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
POOLS = ("grid", "oracle", "ngon")


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = _load_run()
INSTANCES = [(pool, inst) for pool in POOLS
             for inst in RUN.load_pool(pool)["instances"]]


@pytest.fixture(scope="module")
def checker():
    return RUN.Checker()


@pytest.mark.parametrize("pool, inst", INSTANCES,
                         ids=[f"{pool}/{inst['name']}" for pool, inst in INSTANCES])
def test_pool_instance_keeps_its_minimum(pool, inst, checker, tmp_path):
    argv = RUN.write_instance(tmp_path, inst["name"], inst)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert minkbill.cli.main(argv) == 0
    assert checker.problems(inst, out.getvalue()) == []
