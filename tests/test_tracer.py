"""The contract between the program and perfbench/tracer.py: every function
the tracer wraps exists, a traced run counts work, and leaving the trace
restores the program's own bindings."""

import importlib.util
import json
import sys
from pathlib import Path

import minkbill
import minkbill.cli
from minkbill import bounce2, bounce3
from minkbill.fixtures import load

import corpus
from references import returns

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    return {(name, attr): value for name, module in list(sys.modules.items())
            if module is not None and name.startswith("minkbill")
            for attr, value in vars(module).items()}


def test_tracer_targets_resolve_and_are_restored(tmp_path):
    tracer = _load_tracer()
    for module, name, _ in tracer.TARGETS:
        assert callable(getattr(sys.modules[f"minkbill.{module}"], name))
    fx = load("exampleF_aux")
    paths = []
    for name, body in (("K", fx.K), ("T", fx.T)):
        paths.append(str(tmp_path / f"{name}.json"))
        Path(paths[-1]).write_text(json.dumps(body.to_json_obj()))
    before = _bindings()
    with tracer.installed(tracer.Tracer(), minkbill) as tr:
        assert minkbill.cli.main(["shortest", *paths, "--out",
                                  str(tmp_path / "rep.json")]) == 0
    counts = tr.take().counts()
    assert counts["bounce2.search.calls"] == 1
    assert counts["geom.in_f.calls"] > 0
    assert counts["cli.main.calls"] == 1
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_traced_run_counts_the_three_bounce_stages(tmp_path):
    """A traced shortest on a grid instance with edge-contact 3-bounce fits
    counts one find_inbody and one fit_to_k stack (the search's two array
    stages), and writes the report of an untraced run apart from timings."""
    tracer = _load_tracer()
    [inst] = [i for i in corpus.pool("grid") if i["name"].startswith("g04")]
    paths = []
    for body in ("K", "T"):
        paths.append(str(tmp_path / f"{body}.json"))
        Path(paths[-1]).write_text(json.dumps({"vertices": inst[body]}))
    reports = []
    for traced in (False, True):
        out = tmp_path / f"report-{traced}.json"
        argv = ["shortest", *paths, *inst["args"], "--out", str(out)]
        if traced:
            with tracer.installed(tracer.Tracer(), minkbill) as tr:
                assert minkbill.cli.main(argv) == 0
        else:
            assert minkbill.cli.main(argv) == 0
        reports.append(json.loads(out.read_text()))
        del reports[-1]["timings"]
    counts = tr.take().counts()
    assert counts["bounce3.find_inbody.calls"] == 1
    assert counts["bounce3.fit_to_k.calls"] == 1
    assert reports[0] == reports[1]
    assert any(c["m"] == 3 and all(kind == "edge" for kind, _ in c["t_faces"])
               for c in reports[1]["candidates"])


def test_traced_counts_read_the_pair_stacks(tmp_path, monkeypatch):
    """The tracer counts rows of the Pairs stacks: pairs.dedupe.merged on a
    traced shortest is the number of rows that dedupe dropped, the stacks
    the two searches built less the report's candidates, and
    bounce3.solve_facet_triple.pairs the rows of the stacks it returned."""
    tracer = _load_tracer()
    fx = load("exampleE")
    paths = []
    for name, body in (("K", fx.K), ("T", fx.T)):
        paths.append(str(tmp_path / f"{name}.json"))
        Path(paths[-1]).write_text(json.dumps(body.to_json_obj()))
    built = [returns(monkeypatch, bounce2, "_solve_tuples"),
             returns(monkeypatch, bounce3, "_solve_triples")]
    with tracer.installed(tracer.Tracer(), minkbill) as tr:
        assert minkbill.cli.main(["shortest", *paths, "--out", str(tmp_path / "rep.json")]) == 0
        rows = sum(len(stack) for log in built for stack in log)
        stacks = [bounce3.solve_facet_triple(fx.K, fx.T, tuple(triple))
                  for triple in bounce3.spanning_triples(fx.K).tolist()]
    counts = tr.take().counts()
    candidates = json.loads((tmp_path / "rep.json").read_text())["candidates"]
    assert counts["pairs.dedupe.calls"] == 2
    assert counts["pairs.dedupe.merged"] == rows - len(candidates) > 0
    assert counts["bounce3.solve_facet_triple.calls"] == len(stacks)
    assert counts["bounce3.solve_facet_triple.pairs"] == sum(map(len, stacks)) > 0
