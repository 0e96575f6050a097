import ast
import dataclasses
import gc
import json
from pathlib import Path

import pytest

from defcolor import cli, fixtures as fx
from defcolor.cli import main
from defcolor.colorer import (ColoringTrace, ColorResult, ReductionKind,
                              ReductionStep, color)
from defcolor.discharging import RowLog
from defcolor.graphio import parse_coloring, serialize_graph
from defcolor.coloring import Coloring, SolveStatus, is_valid, solve_exact
from defcolor.generate import gen_planar_girth5

from gadget_builders import (chorded_cycle, projective_plane_incidence,
                             tripod_lattice)
from oracles import reference_trace_json


def write_graph(tmp_path, graph, name="g.txt"):
    path = tmp_path / name
    path.write_text(serialize_graph(graph))
    return str(path)


def test_gen_stats_round(tmp_path, capsys):
    out = tmp_path / "gen.txt"
    assert main(["gen", "--seed", "11", "--size", "25",
                 "--output", str(out)]) == 0
    assert main(["stats", "--input", str(out)]) == 0
    text = capsys.readouterr().out
    girth_line = next(l for l in text.splitlines() if l.startswith("girth:"))
    assert int(girth_line.split(":")[1]) >= 5
    assert "genus: 0" in text


def test_color_then_check(tmp_path):
    gpath = write_graph(tmp_path, fx.dodecahedron())
    cpath = tmp_path / "col.txt"
    tpath = tmp_path / "trace.json"
    assert main(["color", "--input", gpath, "--t", "10",
                 "--output", str(cpath), "--trace", str(tpath)]) == 0
    assert main(["check", "--input", gpath, "--coloring", str(cpath)]) == 0
    assert tpath.exists()
    coloring = parse_coloring(cpath.read_text())
    assert is_valid(fx.dodecahedron(), coloring)


def test_trace_json_matches_the_stdlib_indenting_encoder():
    stdlib = reference_trace_json
    for graph in (fx.c5(), fx.dodecahedron(), fx.petersen_projective(),
                  fx.special_face().graph):
        trace = color(graph).trace
        empty = RowLog([], ReductionStep)
        for variant in (trace, dataclasses.replace(trace, steps=empty),
                        dataclasses.replace(trace, base={}, fallback=True),
                        dataclasses.replace(trace, steps=empty, base={})):
            assert cli._trace_json(variant) == stdlib(variant)

    # every kind with 1-3 deleted vertices and 0-3 actions, so each kind
    # comes with several counts and each pair of counts with every kind
    rows = [(kind, tuple(range(7 * d, 8 * d)), None,
             tuple((3 * a + d, a % 2) for a in range(k)))
            for d in (1, 2, 3) for k in (0, 1, 2, 3) for kind in ReductionKind]
    built = ColoringTrace(RowLog(rows, ReductionStep), {0: 1, 12: 0}, False,
                          False, 10)
    assert cli._trace_json(built) == stdlib(built)


def test_check_rejects_bad_coloring(tmp_path, capsys):
    gpath = write_graph(tmp_path, fx.c5())
    bad = tmp_path / "bad.txt"
    bad.write_text("coloring 5 defects 1,10\n0 1\n1 1\n2 1\n3 1\n4 1\n")
    assert main(["check", "--input", gpath, "--coloring", str(bad)]) == 1
    assert "invalid" in capsys.readouterr().out


def test_a_bad_defect_vector_is_reported_where_it_was_written(tmp_path,
                                                             capsys):
    gpath = write_graph(tmp_path, fx.c5())
    cpath = tmp_path / "c.txt"
    cpath.write_text("coloring 5 defects 1,10\n0 1\n1 1\n2 2\n3 1\n4 2\n")
    # on the command line: a usage error, whatever is wrong with it
    for spec in ("x", "1,-1", ""):
        for argv in (["solve", "--input", gpath],
                     ["check", "--input", gpath, "--coloring", str(cpath)]):
            assert main([*argv, "--defects", spec]) == cli.EXIT_USAGE
            assert f"bad defect vector {spec!r}" in capsys.readouterr().err
    # in a coloring document: a parse error on its header line
    cpath.write_text("coloring 5 defects 1,-1\n0 1\n1 1\n2 2\n3 1\n4 2\n")
    assert main(["check", "--input", gpath, "--coloring", str(cpath)]) == 3
    assert capsys.readouterr().err == (
        "error: parse: line 1: defect vector must be non-empty and "
        "non-negative: (1, -1)\n")


def test_check_rejects_a_vertex_count_mismatch(tmp_path, capsys):
    gpath = write_graph(tmp_path, fx.c5())
    short = tmp_path / "short.txt"
    short.write_text("coloring 4 defects 1,10\n0 1\n1 2\n2 1\n3 2\n")
    assert main(["check", "--input", gpath, "--coloring", str(short)]) == 1
    assert capsys.readouterr().out == "result: invalid (vertex count mismatch)\n"


def test_color_budget_exhaustion(tmp_path, capsys):
    # the pendant paths reduce; the 12-regular incidence graph does not,
    # and one node is too few for the fallback solver
    gpath = write_graph(tmp_path, projective_plane_incidence(11, (1, 2, 3, 1)))
    tpath = tmp_path / "trace.json"
    assert main(["color", "--input", gpath, "--t", "10", "--budget", "1",
                 "--trace", str(tpath)]) == cli.EXIT_BUDGET == 4
    assert capsys.readouterr().out == "result: unknown\n"
    trace = json.loads(tpath.read_text())
    assert trace["fallback"] and trace["steps"] == []


def _fake_color(coloring, status, anomaly):
    """A stand-in for cli.color returning a fixed result; no real input
    reaches the infeasible or anomaly exits."""
    def fake(graph, t, budget):
        trace = ColoringTrace(RowLog([], ReductionStep), {}, True, anomaly, 10)
        return ColorResult(coloring, trace, status)
    return fake


def test_color_infeasible_exit(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "color",
                        _fake_color(None, SolveStatus.INFEASIBLE, False))
    gpath = write_graph(tmp_path, fx.c5())
    assert main(["color", "--input", gpath, "--t", "10"]) == 1
    assert capsys.readouterr().out == "result: infeasible\n"


def test_color_anomaly_exit(monkeypatch, tmp_path, capsys):
    coloring = Coloring((0, 1, 0, 1, 1), (1, 10))
    monkeypatch.setattr(cli, "color",
                        _fake_color(coloring, SolveStatus.FOUND, True))
    gpath = write_graph(tmp_path, fx.c5())
    cpath = tmp_path / "col.txt"
    assert main(["color", "--input", gpath, "--t", "10",
                 "--output", str(cpath)]) == 1
    assert parse_coloring(cpath.read_text()) == coloring
    assert capsys.readouterr().err == (
        "result: anomaly (fallback fired on a genus<=1 input at t=10)\n")


def test_solve_infeasible_exit_code(tmp_path, capsys):
    gpath = write_graph(tmp_path, fx.c5())
    assert main(["solve", "--input", gpath, "--defects", "0,0"]) == 1
    assert "infeasible" in capsys.readouterr().out


def test_solve_found_writes_coloring(tmp_path):
    gpath = write_graph(tmp_path, fx.petersen_projective())
    cpath = tmp_path / "col.txt"
    assert main(["solve", "--input", gpath, "--defects", "1,10",
                 "--output", str(cpath)]) == 0
    assert main(["check", "--input", gpath, "--coloring", str(cpath),
                 "--defects", "1,10"]) == 0


def test_solve_budget_exhaustion(tmp_path, capsys):
    gpath = write_graph(tmp_path, fx.petersen_projective())
    assert main(["solve", "--input", gpath, "--defects", "0,0,0",
                 "--budget", "3"]) == 4
    out, err = capsys.readouterr()
    assert "unknown" in out and err == "nodes 3\n"


def test_solve_reports_nodes_on_stderr_when_not_found(tmp_path, capsys):
    # stdout keeps its one result line; the node count goes to stderr
    for graph, defects, budget, code, out in (
            (fx.c5(), (0, 0), 10 ** 7, 1, "result: infeasible\n"),
            (fx.petersen_projective(), (0, 0, 0), 3, 4,
             "result: unknown (budget exhausted)\n")):
        assert main(["solve", "--input", write_graph(tmp_path, graph),
                     "--defects", ",".join(map(str, defects)),
                     "--budget", str(budget)]) == code
        nodes = solve_exact(graph, defects, budget).nodes
        assert capsys.readouterr() == (out, f"nodes {nodes}\n")


def test_audit_text_and_csv(tmp_path, capsys):
    gpath = write_graph(tmp_path, fx.c5())
    assert main(["audit", "--input", gpath]) == 0
    out = capsys.readouterr().out
    assert "total initial charge: -12/1" in out
    assert "vx-degree" in out
    assert main(["audit", "--input", gpath, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "element_kind,element_id,initial,final" in out
    assert "rule,source_kind" in out


def test_input_error_category(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("graph 2 1\n0: 1\n")
    assert main(["stats", "--input", str(bad)]) == 3
    assert "error:" in capsys.readouterr().err


def test_graph_error_is_an_input_error(tmp_path, capsys):
    # an asymmetric rotation parses but fails the embedding's checks
    bad = tmp_path / "bad.txt"
    bad.write_text("graph 3 2\n0: 1\n1: 0 2\n2:\n")
    assert main(["stats", "--input", str(bad)]) == 3
    assert (capsys.readouterr().err
            == "error: input: 1 lists 2 but 2 does not list 1\n")


def test_nonpositive_budget_is_an_input_error(tmp_path, capsys):
    gpath = write_graph(tmp_path, fx.dodecahedron())
    for argv in (["color", "--t", "10"], ["solve", "--defects", "1,10"]):
        assert main(argv + ["--input", gpath, "--budget", "0"]) == 3
        assert (capsys.readouterr().err
                == "error: input: budget must be positive\n")


def test_hostile_vertex_count_is_a_parse_error(tmp_path, capsys):
    # a header n beyond the body must not allocate n slots first
    huge = 2 ** 61
    bad = tmp_path / "bad.txt"
    bad.write_text(f"graph {huge} 0\n")
    assert main(["stats", "--input", str(bad)]) == 3
    assert capsys.readouterr().err.startswith("error: parse: line 1:")

    gpath = write_graph(tmp_path, fx.c5())
    bad.write_text(f"coloring {huge} defects 1,10\n0 1\n")
    assert main(["check", "--input", gpath, "--coloring", str(bad)]) == 3
    assert capsys.readouterr().err.startswith("error: parse: line 1:")


def test_gen_size_above_the_bound_is_an_input_error(capsys):
    # without the bound this size runs until it is killed
    assert main(["gen", "--seed", "1", "--size", "100000000000000000000"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: input: target_size must be at most 100000\n"
    assert captured.out == ""


def test_memory_error_is_a_resources_error(monkeypatch, tmp_path, capsys):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli._HANDLERS, "stats", exhausted)
    gpath = write_graph(tmp_path, fx.c5())
    assert main(["stats", "--input", gpath]) == cli.EXIT_RESOURCES == 5
    captured = capsys.readouterr()
    assert captured.err == "error: resources: out of memory running stats\n"
    assert "Traceback" not in captured.err + captured.out


def test_usage_error():
    assert main(["frobnicate"]) == 2


def test_parser_prints_to_the_current_streams(capsys):
    # the parser is built once per process; each call must still print
    # help and usage errors to the streams in place at that call
    for _ in range(2):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: defcolor")
        assert main(["solve", "--input", "g.txt"]) == 2
        assert "--defects" in capsys.readouterr().err


def test_audit_t_defaults_to_capacity(tmp_path):
    # without --t, audit takes t = capacity(genus) = 11 at genus 2
    gpath = write_graph(tmp_path, fx.genus2_bad_face_gadget().graph)
    out = tmp_path / "audit.txt"
    assert main(["audit", "--input", gpath, "--output", str(out)]) == 0
    assert "genus: 2\nthreshold t: 11\n" in out.read_text()


def test_genus_auto_on_projective_input(tmp_path):
    # without --t, color takes t = capacity(genus) = 10 on the projective plane
    gpath = write_graph(tmp_path, fx.petersen_projective())
    cpath = tmp_path / "col.txt"
    assert main(["color", "--input", gpath, "--output", str(cpath)]) == 0
    coloring = parse_coloring(cpath.read_text())
    assert coloring.defects == (1, 10)


# -- the cyclic collector: paused for each command, the caller's state kept --


def _with_collector(enabled, call):
    """call() with the collector set to enabled before it; returns call's
    result and whether the collector was on after it."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        return call(), gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()


def _exit_cases(tmp_path):
    gpath = write_graph(tmp_path, fx.c5())
    bad = tmp_path / "bad.txt"
    bad.write_text("coloring 5 defects 1,10\n0 1\n1 1\n2 1\n3 1\n4 1\n")
    broken = tmp_path / "broken.txt"
    broken.write_text("graph 2 1\n0: 1\n")
    undecided = write_graph(tmp_path, fx.petersen_projective(), "p.txt")
    return [
        (0, ["color", "--input", gpath, "--output", str(tmp_path / "c.txt")]),
        (1, ["check", "--input", gpath, "--coloring", str(bad)]),
        (2, ["color", "--bogus"]),
        (3, ["stats", "--input", str(broken)]),
        (4, ["solve", "--input", undecided, "--defects", "0,0,0",
             "--budget", "1"]),
    ]


@pytest.mark.parametrize("enabled", (True, False))
def test_main_restores_the_callers_collector_state(tmp_path, enabled):
    for code, argv in _exit_cases(tmp_path):
        assert _with_collector(enabled, lambda: main(argv)) == (code, enabled)


@pytest.mark.parametrize("enabled", (True, False))
def test_main_restores_the_collector_when_a_handler_raises(
        monkeypatch, tmp_path, enabled):
    def broken(args):
        raise RuntimeError("handler bug")

    monkeypatch.setitem(cli._HANDLERS, "stats", broken)
    gpath = write_graph(tmp_path, fx.c5())

    def call():
        with pytest.raises(RuntimeError, match="handler bug"):
            main(["stats", "--input", gpath])

    assert _with_collector(enabled, call) == (None, enabled)


def test_only_the_entry_point_touches_the_collector():
    # the library is pure and thread-safe, so it leaves the collector alone
    src = Path(cli.__file__).parent

    def imports_gc(node):
        if isinstance(node, ast.ImportFrom):
            return node.module == "gc"
        return (isinstance(node, ast.Import)
                and any(alias.name == "gc" for alias in node.names))

    users = {path.name for path in src.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text("utf-8")))
             if imports_gc(node)}
    assert users == {"cli.py"}


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """Paths of the documents every subcommand runs on, with the t each
    colors and audits at and the exit of a (1, 1) solve in 2,000 nodes: a
    1k planar generator graph, the twisted genus-3 chorded cycle and the
    6 x 6 tripod torus lattice, whose kind-4 scan, induced embedding and
    fallback solve all run at t = 10."""
    root = tmp_path_factory.mktemp("docs")
    docs = []
    for name, graph, t, solved in (
            ("planar", gen_planar_girth5(1, 1000), "10", 0),
            ("twisted", chorded_cycle(1, 440, 3, twisted=True), "15", 0),
            ("lattice", tripod_lattice(6, 6), "10", cli.EXIT_BUDGET)):
        path = root / f"{name}.txt"
        path.write_text(serialize_graph(graph, declare_girth5=True))
        docs.append((str(path), t, solved))
    return docs


def _cyclic_garbage(argv):
    """The exit code of main(argv) and the number of unreachable objects
    it leaves for the cyclic collector, with the collector off meanwhile."""
    gc.collect()
    code, _ = _with_collector(False, lambda: main(argv))
    return code, gc.collect()


def test_no_command_leaves_cyclic_garbage(documents, tmp_path):
    """Pausing the collector for each command frees nothing late: every
    path through every subcommand leaves 0 objects for it.  An argparse
    usage error is left out: the stdlib's SystemExit leaves 6 objects,
    which the collector takes once main turns it back on."""
    out = str(tmp_path / "out.txt")
    col = str(tmp_path / "col.txt")
    for gpath, t, solved in documents:
        for code, argv in (
                (0, ["stats", "--input", gpath]),
                (0, ["stats", "--input", gpath, "--format", "csv"]),
                (0, ["color", "--input", gpath, "--t", t, "--output", col,
                     "--trace", str(tmp_path / "trace.json")]),
                (0, ["check", "--input", gpath, "--coloring", col]),
                (0, ["audit", "--input", gpath, "--t", t, "--output", out]),
                (0, ["audit", "--input", gpath, "--t", t, "--format", "csv",
                     "--output", out]),
                (solved, ["solve", "--input", gpath, "--defects", "1,1",
                          "--budget", "2000", "--output", out])):
            assert _cyclic_garbage(argv) == (code, 0), argv

    broken = tmp_path / "broken.txt"
    broken.write_text("graph 2 1\n0: 1\n")
    square = tmp_path / "square.txt"
    square.write_text("graph 4 4 girth5\n0: 1 3\n1: 0 2\n2: 1 3\n3: 2 0\n")
    c5 = write_graph(tmp_path, fx.c5(), "c5.txt")
    for code, argv in (
            (0, ["gen", "--seed", "3", "--size", "500", "--output", out]),
            (1, ["solve", "--input", c5, "--defects", "0,0"]),
            (3, ["stats", "--input", str(broken)]),
            (3, ["audit", "--input", str(square)]),
            (3, ["color", "--input", str(tmp_path / "missing.txt")])):
        assert _cyclic_garbage(argv) == (code, 0), argv
