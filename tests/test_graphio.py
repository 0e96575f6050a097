import tracemalloc

import pytest

from defcolor import cli, fixtures as fx
from defcolor.coloring import Coloring
from defcolor.embedding import (AsymmetricError, EmbeddedGraph,
                                GirthTooSmallError)
from defcolor.generate import gen_planar_girth5
from defcolor.graphio import (ParseError, parse_coloring, parse_graph,
                              serialize_coloring, serialize_graph)


def test_round_trip_c5():
    g = fx.c5()
    doc = serialize_graph(g)
    back = parse_graph(doc)
    assert back.rotation == g.rotation
    assert serialize_graph(back) == doc


def test_round_trip_preserves_rotation_order_and_twists():
    g = fx.petersen_projective()
    doc = serialize_graph(g)
    back = parse_graph(doc)
    assert back.rotation == g.rotation
    assert back.twists == g.twists
    assert serialize_graph(back) == doc
    assert back.genus == 1


def test_round_trip_generated():
    for seed in range(6):
        g = gen_planar_girth5(seed, 30 + 8 * seed)
        assert parse_graph(serialize_graph(g)).rotation == g.rotation


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_graph("")
    with pytest.raises(ParseError):
        parse_graph("graph x y\n")
    with pytest.raises(ParseError):
        parse_graph("graph 2 1\n0: 1\n")  # truncated: vertex 1 missing
    with pytest.raises(ParseError):
        parse_graph("graph 2 2\n0: 1\n1: 0\n")  # wrong edge count
    with pytest.raises(ParseError, match="line 1: vertex count -"):
        parse_graph("graph -10000000000000000000 0\n")  # no list of that size
    err = None
    try:
        parse_graph("graph 2 1\n0: 1\nbogus\n1: 0\n")
    except ParseError as exc:
        err = exc
    assert err is not None and err.line == 3


def test_only_the_word_twist_starts_a_twist_line():
    doc = serialize_graph(fx.c5())
    assert parse_graph(doc + "twist 0 1\n").genus == 1
    for line in ("twisty 0 1", "twist0 1 2", "twists 0 1"):
        with pytest.raises(ParseError, match="^line 7: expected '<vertex>: "
                                             "<neighbors>'$"):
            parse_graph(doc + line + "\n")


@pytest.mark.parametrize("twist", [(0, 1.0), (True, 0)])
def test_twists_given_as_equal_numbers_round_trip(twist):
    # the twist is stored as the edge's own int endpoints, so the
    # document names it as the parser expects
    g = EmbeddedGraph(fx.c5().rotation, [twist])
    assert [tuple(map(type, e)) for e in g.twists] == [(int, int)]
    doc = serialize_graph(g)
    assert doc.endswith("\ntwist 0 1\n")
    back = parse_graph(doc)
    assert back.twists == g.twists == {(0, 1)}
    assert back.genus == g.genus == 1
    assert serialize_graph(back) == doc


def test_parse_peak_on_a_long_cycle():
    # 6.7 MiB on CPython 3.11; finding reverses through a dict keyed by
    # u * n + v peaked at 8.4 MiB, and a per-vertex list of bound index
    # methods at 9.9 MiB
    n = 20_000
    doc = f"graph {n} {n}\n" + "".join(
        f"{v}: {(v - 1) % n} {(v + 1) % n}\n" for v in range(n))
    tracemalloc.start()
    try:
        graph = parse_graph(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.m == n
    assert peak < 8 * 2 ** 20, f"parse_graph peaked at {peak} bytes"


def test_repeated_twist_rejected(tmp_path, capsys):
    # two sign flips on one edge cancel, so merging them would misreport
    # the surface (genus 1 for this planar C5)
    doc = serialize_graph(fx.c5()) + "twist 0 1\ntwist 1 0\n"
    with pytest.raises(ParseError, match="^line 8: twist 1-0 listed twice$"):
        parse_graph(doc)
    path = tmp_path / "g.txt"
    path.write_text(doc)
    assert cli.main(["stats", "--input", str(path)]) == 3
    assert "error: parse: line 8: twist 1-0 listed twice" in capsys.readouterr().err
    assert parse_graph(serialize_graph(fx.c5()) + "twist 1 0\n").genus == 1


def test_build_errors_surface():
    with pytest.raises(AsymmetricError):
        parse_graph("graph 2 1\n0: 1\n1:\n")


def test_girth5_flag_checked():
    doc = "graph 4 4 girth5\n0: 1 3\n1: 0 2\n2: 1 3\n3: 2 0\n"
    with pytest.raises(GirthTooSmallError):
        parse_graph(doc)
    ok = parse_graph(serialize_graph(fx.c5(), declare_girth5=True))
    assert ok.n == 5


def test_coloring_round_trip():
    col = Coloring((0, 1, 1, 0, 1), (1, 10))
    doc = serialize_coloring(col)
    back = parse_coloring(doc)
    assert back.assignment == col.assignment
    assert back.defects == col.defects
    assert serialize_coloring(back) == doc


def test_coloring_parse_errors():
    with pytest.raises(ParseError):
        parse_coloring("coloring 2 defects 1,10\n0 1\n")  # vertex 1 missing
    with pytest.raises(ParseError):
        parse_coloring("coloring 1 defects 1,10\n0 3\n")  # class out of range
    with pytest.raises(ParseError, match="line 4: vertex 0 listed twice"):
        parse_coloring("coloring 2 defects 1,10\n0 1\n1 1\n0 2\n")
    with pytest.raises(ParseError, match="line 1: vertex count -1 is negative"):
        parse_coloring("coloring -1 defects 1,10\n")
    # a bad header vector is reported on the header line
    with pytest.raises(ParseError, match=r"^line 1: defect vector must be "
                                         r"non-empty and non-negative"):
        parse_coloring("coloring 2 defects 1,-1\n0 1\n1 2\n")
    with pytest.raises(ParseError, match="^line 1: bad counts or defect vector"):
        parse_coloring("coloring 2 defects 1,x\n0 1\n1 2\n")
