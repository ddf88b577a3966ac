import argparse
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from minkbill import cli
from minkbill.cli import (REPORT_SCHEMA, build_parser, main, render_svg,
                          run_bench)
from minkbill.fixtures import load, regular_ngon
from minkbill.obtuse import in_family_t
from minkbill.randgen import random_instance


@pytest.fixture
def instance_files(tmp_path):
    fx = load("exampleF_aux")
    k = tmp_path / "K.json"
    t = tmp_path / "T.json"
    k.write_text(json.dumps(fx.K.to_json_obj()))
    t.write_text(json.dumps(fx.T.to_json_obj()))
    return str(k), str(t)


def test_shortest_report(instance_files, tmp_path):
    k, t = instance_files
    out = tmp_path / "rep.json"
    assert main(["shortest", k, t, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["schema"] == REPORT_SCHEMA
    assert rep["min"] == pytest.approx(4.0, abs=1e-9)
    assert rep["bounce_counts"] == [2, 3]
    assert rep["argmin"]["m"] == 2
    assert {"two_bounce_s", "three_bounce_s"} <= set(rep["timings"])
    for cand in rep["candidates"]:
        assert cand["certificate"]["certified"]


def test_two_and_three_bounce_subcommands(instance_files, tmp_path):
    k, t = instance_files
    out = tmp_path / "two.json"
    assert main(["two-bounce", k, t, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["bounce_counts"] == [2]
    assert all(c["m"] == 2 for c in rep["candidates"])
    out3 = tmp_path / "three.json"
    assert main(["three-bounce", k, t, "--out", str(out3)]) == 0
    assert json.loads(out3.read_text())["bounce_counts"] == [3]


def test_verify_roundtrip_and_tamper(instance_files, tmp_path):
    k, t = instance_files
    rep_path = tmp_path / "rep.json"
    main(["shortest", k, t, "--out", str(rep_path)])
    ver_path = tmp_path / "ver.json"
    assert main(["verify", str(rep_path), "--out", str(ver_path)]) == 0
    assert json.loads(ver_path.read_text())["verified"]
    rep = json.loads(rep_path.read_text())
    rep["candidates"][0]["q"][0][0] += 0.05
    rep_path.write_text(json.dumps(rep))
    assert main(["verify", str(rep_path), "--out", str(ver_path)]) == 1
    assert not json.loads(ver_path.read_text())["verified"]


def test_verify_flags_degenerate_curve_data(instance_files, tmp_path):
    """A candidate whose q repeats a vertex is well-formed data but no
    curve: verify gives it the "degenerate curve data" row and exits 1."""
    k, t = instance_files
    rep_path = tmp_path / "rep.json"
    assert main(["shortest", k, t, "--out", str(rep_path)]) == 0
    rep = json.loads(rep_path.read_text())
    cand = rep["candidates"][0]
    cand["q"] = [cand["q"][0]] * cand["m"]
    rep_path.write_text(json.dumps(rep))
    ver_path = tmp_path / "ver.json"
    assert main(["verify", str(rep_path), "--out", str(ver_path)]) == 1
    ver = json.loads(ver_path.read_text())
    assert not ver["verified"]
    assert ver["candidates"][0] == {"index": 0, "certified": False,
                                    "error": "degenerate curve data"}


def test_reports_are_one_compact_line(instance_files, tmp_path, capsys, monkeypatch):
    """shortest writes its report as one line of JSON with sorted keys, on
    stdout and with --out; the line parses to what the indented encoding
    of the same report parses to, and verify and plot read the file."""
    k, t = instance_files
    dumps, reports = json.dumps, []

    def spy(obj, **kwargs):
        reports.append(obj)
        return dumps(obj, **kwargs)
    monkeypatch.setattr(cli.json, "dumps", spy)
    out = tmp_path / "rep.json"
    capsys.readouterr()
    assert main(["shortest", k, t]) == 0
    printed = capsys.readouterr().out
    assert main(["shortest", k, t, "--out", str(out)]) == 0
    monkeypatch.undo()
    assert len(reports) == 2
    for text, report in zip([printed, out.read_text()], reports):
        assert text.endswith("}\n") and text.count("\n") == 1
        rep = json.loads(text)
        assert rep == json.loads(json.dumps(report, indent=2, sort_keys=True))
        assert list(rep) == sorted(rep) and len(rep) > 1
    ver = tmp_path / "ver.json"
    assert main(["verify", str(out), "--out", str(ver)]) == 0
    assert json.loads(ver.read_text())["verified"]
    assert main(["plot", str(out), str(tmp_path / "out.svg")]) == 0


def _relabel(kind, new_kind):
    def edit(rep):
        for cand in rep["candidates"]:
            for faces in (cand["k_faces"], cand["t_faces"]):
                for face in faces:
                    if face[0] == kind:
                        face[0] = new_kind
        return rep
    return edit


def _out_of_range(rep):
    rep["candidates"][0]["k_faces"][0] = ["edge", 99]
    return rep


def _entry(index, key, value):
    """The edit setting entry key of candidate index to value."""
    def edit(rep):
        rep["candidates"][index][key] = value
        return rep
    return edit


def _cut(key):
    """The edit cutting entry key of the first 3-bounce candidate to one item."""
    def edit(rep):
        cand = next(c for c in rep["candidates"] if c["m"] == 3)
        cand[key] = cand[key][:1]
        return rep
    return edit


@pytest.mark.parametrize("edit", [
    _relabel("edge", "facet"), _relabel("edge", "bogus"),
    _relabel("vertex", "bogus"), _out_of_range,
    lambda rep: {k: v for k, v in rep.items() if k != "candidates"},
    lambda rep: [rep],
    lambda rep: dict(rep, candidates=rep["candidates"][:1] + [7]),
    lambda rep: dict(rep, candidates={}),
    _entry(1, "q", [[0.0, 1.0], [2.0]]),
    _entry(0, "p", [["0", "1"], ["2", "3"]]),
    _entry(0, "length", "4.0"),
    _entry(0, "k_faces", 3),
    _cut("k_faces"), _cut("t_faces"), _cut("q"), _cut("p"),
    _entry(0, "m", 4), _entry(0, "m", "2"),
], ids=["edge-as-facet", "edge-as-bogus", "vertex-as-bogus",
        "index-out-of-range", "no-candidates", "top-level-list",
        "candidate-not-object", "candidates-not-list", "ragged-q",
        "string-coordinates", "string-length", "faces-not-list",
        "one-k-face", "one-t-face", "one-q", "one-p", "m-not-count", "m-string"])
def test_verify_rejects_malformed_faces(tmp_path, capsys, edit):
    """A report whose faces are not faces of K and T, that lacks an entry,
    or whose entries have the wrong JSON types, is invalid input: exit 2
    with a message, not a verdict."""
    K, T = random_instance(np.random.default_rng(5), 6, 5)
    paths = []
    for name, body in (("K", K), ("T", T)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(body.to_json_obj()))
    rep_path = tmp_path / "rep.json"
    assert main(["shortest", *map(str, paths), "--out", str(rep_path)]) == 0
    rep = json.loads(rep_path.read_text())
    assert len(rep["candidates"]) >= 5
    rep_path.write_text(json.dumps(edit(rep)))
    capsys.readouterr()
    assert main(["verify", str(rep_path), "--out", str(tmp_path / "v.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "v.json").exists()


def test_gen_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        assert main(["gen", "5", "4", "--seed", "11",
                     "--out-k", str(d / "K.json"),
                     "--out-t", str(d / "T.json")]) == 0
    assert (a / "K.json").read_text() == (b / "K.json").read_text()
    assert (a / "T.json").read_text() == (b / "T.json").read_text()
    K = json.loads((a / "K.json").read_text())
    assert len(K["vertices"]) == 5


def test_plot_svg(instance_files, tmp_path):
    k, t = instance_files
    rep = tmp_path / "rep.json"
    svg = tmp_path / "out.svg"
    main(["shortest", k, t, "--out", str(rep)])
    assert main(["plot", str(rep), str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg")
    assert text.count("<polygon") == 4  # two bodies + trajectory + dual
    # deterministic rendering
    assert render_svg(json.loads(rep.read_text())) + "\n" == text


def test_obtuse_subcommand(tmp_path):
    out = tmp_path / "obtuse.json"
    assert main(["obtuse", "--ngons", "16", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["largest_angle_deg"] > 100
    row = data["rows"][0]
    assert row["regular_three_bounce_exists"] is False
    assert row["in_family"] is False


def test_invalid_input_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": [[0, 0], [0, 1], [1, 0]]}))  # cw
    good = tmp_path / "good.json"
    good.write_text(json.dumps(load("exampleF_aux").T.to_json_obj()))
    assert main(["shortest", str(bad), str(good)]) == 2
    assert main(["shortest", str(tmp_path / "missing.json"), str(good)]) == 2


@pytest.mark.parametrize("argv", [
    ["plot", "{K}", "{out}"],
    ["plot", "{bare}", "{out}"],
    ["obtuse", "--triangle", "{K}", "--out", "{out}"],
    ["obtuse", "--ngons", "16,x", "--out", "{out}"],
    ["gen", "2", "5", "--out-k", "{out}", "--out-t", "{out}"],
    ["bench", "--sizes", "2,3", "--out", "{out}"],
    ["shortest", "{K}", "{T}", "--grid", "0", "--out", "{out}"],
    ["shortest", "{K}", "{T}", "--grid", "-4", "--out", "{out}"],
    ["shortest", "{ragged}", "{T}", "--out", "{out}"],
    ["shortest", "{K}", "{huge}", "--out", "{out}"],
    ["gen", "5", "4", "--seed", "-1", "--out-k", "{out}", "--out-t", "{out}"],
    ["bench", "--sizes", "3", "--seed", "-2", "--out", "{out}"],
], ids=["plot-polytope", "plot-bare-report", "obtuse-square",
        "obtuse-bad-ngons", "gen-2-gon", "bench-2-gon", "shortest-grid-0",
        "shortest-grid-negative", "shortest-ragged-vertices",
        "shortest-overflowing-edges", "gen-negative-seed", "bench-negative-seed"])
def test_invalid_arguments_exit_2(instance_files, tmp_path, capsys, argv):
    """Arguments or input files that break a rule of the command exit with
    status 2 and an "error: " message, and write no output."""
    k, t = instance_files
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"schema": REPORT_SCHEMA}))
    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [1]]}))
    huge = tmp_path / "huge.json"  # finite vertices, an edge that overflows
    huge.write_text(json.dumps({"vertices": [[1e308, 0], [0, 1e308], [-1e308, 0]]}))
    out = tmp_path / "out"
    names = dict(K=k, T=t, bare=bare, ragged=ragged, huge=huge, out=out)
    capsys.readouterr()
    assert main([a.format(**names) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_readme_cli_lines_parse():
    """Every `minkbill` line of README's CLI block parses, and the block
    shows every subcommand."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    parser = build_parser()
    shown = set()
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "minkbill"
        shown.add(parser.parse_args(argv[1:]).command)
    [sub] = [a for a in parser._actions
             if isinstance(a, argparse._SubParsersAction)]
    assert shown == set(sub.choices)


def test_readme_library_snippet_runs(capsys):
    """README's Library block runs as written and finds the certified chord
    of length 4."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    code = re.search(r"## Library\n.*?```python\n(.*?)```", readme, re.S).group(1)
    scope = {}
    exec(code, scope)
    assert scope["best"].length[0] == 4.0
    assert capsys.readouterr().out.splitlines()[-1] == "True"


def test_removed_tol_flag_is_a_usage_error(instance_files):
    k, t = instance_files
    with pytest.raises(SystemExit) as exc:
        main(["shortest", k, t, "--tol", "1e-8"])
    assert exc.value.code == 2


def test_shortest_with_oracle_grid(instance_files, tmp_path):
    k, t = instance_files
    out = tmp_path / "rep.json"
    assert main(["shortest", k, t, "--grid", "64", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["oracle"]["grid"] == 64
    assert rep["oracle"]["two_bounce_min"] == pytest.approx(4.0, abs=0.05)
    assert rep["min"] <= rep["oracle"]["two_bounce_min"] + 1e-6


def test_oracle_facet_limit_fails_before_the_searches(tmp_path, monkeypatch,
                                                     capsys):
    """--grid with a K of more than 16 facets exits 2 before either search
    runs, and writes no report."""
    k = tmp_path / "K.json"
    k.write_text(json.dumps(regular_ngon(17).to_json_obj()))
    t = tmp_path / "T.json"
    t.write_text(json.dumps(regular_ngon(4).to_json_obj()))
    out = tmp_path / "rep.json"

    def never(*args):
        raise AssertionError("search ran before the oracle's facet limit")

    monkeypatch.setattr(cli, "search_two_bounce", never)
    monkeypatch.setattr(cli, "search_three_bounce", never)
    capsys.readouterr()
    assert main(["shortest", str(k), str(t), "--grid", "4",
                 "--out", str(out)]) == 2
    assert "at most 16 facets" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, want", [
    ("shortest K.json T.json", dict(K="K.json", T="T.json", grid=None, out=None,
                                    func=cli.cmd_shortest)),
    ("two-bounce K.json T.json --out r.json",
     dict(K="K.json", T="T.json", out="r.json", func=cli.cmd_search, bounce_counts=(2,))),
    ("three-bounce K.json T.json", dict(K="K.json", T="T.json", out=None,
                                        func=cli.cmd_search, bounce_counts=(3,))),
    ("verify r.json", dict(report="r.json", out=None, func=cli.cmd_verify)),
    ("gen 4 5", dict(nk=4, nt=5, seed=0, out_k="K.json", out_t="T.json", func=cli.cmd_gen)),
    ("bench", dict(sizes="5,15,25", seed=0, out=None, func=cli.cmd_bench)),
    ("obtuse", dict(triangle=None, ngons="16,64,256", out=None, func=cli.cmd_obtuse)),
    ("plot r.json r.svg", dict(report="r.json", out="r.svg", func=cli.cmd_plot)),
])
def test_subcommand_arguments_and_defaults(argv, want):
    """Each subcommand parses to exactly these arguments and defaults."""
    args = build_parser().parse_args(shlex.split(argv))
    assert vars(args) == {"command": argv.split()[0], **want}


def test_obtuse_witness_floats(tmp_path):
    """An obtuse report carries each witness's shift and contact points as
    the floats of the witness, one by one."""
    tri = tmp_path / "tri.json"
    tri.write_text(json.dumps(regular_ngon(3).to_json_obj()))
    out = tmp_path / "obtuse.json"
    assert main(["obtuse", "--triangle", str(tri), "--ngons", "16,32",
                 "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    for row, n in zip(rows, (16, 32), strict=True):
        member, w = in_family_t(regular_ngon(3), regular_ngon(n))
        assert member and row["witness"] == {
            "rotation": w.rotation, "scale": w.scale,
            "shift": [float(c) for c in w.shift],
            "vertices": [[float(x), float(y)] for x, y in w.vertices]}


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_bench_smoke():
    res = run_bench([3, 4], seed=5)
    assert len(res["rows"]) == 4
    for row in res["rows"]:
        assert row["two_bounce_s"] >= 0
        # random polygons have no parallel facets: 2n antipodal face pairs
        # per body, combined in both orientations
        assert row["two_bounce_tuples"] == 8 * row["nk"] * row["nt"]
        assert 0 < row["two_bounce_solves"] <= row["two_bounce_tuples"]
        assert 0 < row["two_bounce_screened"] <= row["two_bounce_tuples"]
        nk = row["nk"]
        assert 0 < row["three_bounce_triples"] <= nk * (nk - 1) * (nk - 2) // 3
        assert 0 <= row["three_bounce_inbody"] <= row["three_bounce_triples"]
