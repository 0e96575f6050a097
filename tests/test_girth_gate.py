"""The bounded girth-5 gate against independent girth oracles.

``EmbeddedGraph.short_cycle`` caches ``girth(graph, below=5)``: the girth
when it is 3 or 4, else math.inf.  It and the exact ``girth(graph)`` are
checked against ``networkx.girth`` and ``oracles.girth_oracle`` on cycles,
K_4, K_{2,3}, the Petersen graphs, every face fixture, a corpus slice and
random graphs with planted 3-, 4-, 5- and 6-cycles; C_4000, a
4,000-vertex path and a 24,000-vertex cycle with a hub check the exact
girth where the oracles are too slow.
The pipelines must read only the gate: a recording test pins every girth
call they make.
"""

import math
import sys
import time

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from defcolor import cli, fixtures as fx
from defcolor.colorer import color
from defcolor.discharging import apply_rules, audit
from defcolor.embedding import EmbeddedGraph, GirthTooSmallError, girth
from defcolor.graphio import parse_graph, serialize_graph

from oracles import girth_oracle
from test_golden import FIXTURE_CASES, _fixture_graph


def _embedded(nx_graph) -> EmbeddedGraph:
    """Any rotation embeds the graph; girth does not depend on it."""
    nodes = sorted(nx_graph)
    index = {v: i for i, v in enumerate(nodes)}
    return EmbeddedGraph([sorted(index[u] for u in nx_graph[v]) for v in nodes])


def _cycle(n: int) -> EmbeddedGraph:
    return EmbeddedGraph([[(i - 1) % n, (i + 1) % n] for i in range(n)])


def _assert_gate_matches_oracles(graph: EmbeddedGraph) -> None:
    nx_graph = nx.Graph(graph.edges)
    nx_graph.add_nodes_from(range(graph.n))
    want = nx.girth(nx_graph)
    assert girth_oracle(graph) == want
    assert girth(graph) == want
    assert graph.short_cycle == (want if want < 5 else math.inf)
    for below in (3, 4, 5, 6, 9):
        assert girth(graph, below=below) == (want if want < below else math.inf)


SMALL_GRAPHS = ([_cycle(n) for n in range(3, 13)]
                + [_embedded(nx.complete_graph(4)),
                   _embedded(nx.complete_bipartite_graph(2, 3)),
                   _embedded(nx.petersen_graph()),
                   fx.petersen_projective(), fx.dodecahedron(),
                   fx.path_graph(6), fx.star(4), EmbeddedGraph([[]])])


@pytest.mark.parametrize("index", range(len(SMALL_GRAPHS)))
def test_gate_on_small_graphs(index):
    _assert_gate_matches_oracles(SMALL_GRAPHS[index])


def test_gate_values_on_named_graphs():
    assert [_cycle(n).short_cycle for n in (3, 4, 5, 12)] == [3, 4, math.inf, math.inf]
    assert [girth(_cycle(n)) for n in (3, 4, 5, 12)] == [3, 4, 5, 12]
    assert _embedded(nx.complete_graph(4)).short_cycle == 3
    assert _embedded(nx.complete_bipartite_graph(2, 3)).short_cycle == 4
    assert fx.petersen_projective().short_cycle == math.inf


def test_long_cycle_and_path():
    # too long for the oracles; deleting each source after its BFS and
    # peeling degree <= 1 keeps both linear
    cycle = _cycle(4000)
    assert girth(cycle) == 4000
    assert cycle.short_cycle == math.inf
    assert girth(cycle, below=4001) == 4000
    assert girth(cycle, below=4000) == math.inf
    path = fx.path_graph(4000)
    assert girth(path) == path.short_cycle == math.inf


def _hub_graph(k: int, hub_first: bool) -> EmbeddedGraph:
    """A 3k-cycle and a hub joined to every third cycle vertex, embedded in
    the plane: girth 5.  The hub is vertex 0 or vertex 3k."""
    n, off = 3 * k, int(hub_first)
    hub = 0 if hub_first else n
    rim = [((i - 1) % n + off, hub, (i + 1) % n + off) if i % 3 == 0
           else ((i - 1) % n + off, (i + 1) % n + off) for i in range(n)]
    spokes = tuple(range(n - 3 + off, off - 1, -3))
    return EmbeddedGraph([spokes, *rim] if hub_first else [*rim, spokes])


def _seconds(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


@pytest.mark.parametrize("hub_first", [True, False], ids=["first", "last"])
def test_a_hub_keeps_the_girth_linear(hub_first):
    # With sources in id order each neighbor of a late hub would scan the
    # hub's whole rotation, about 2 s here with the hub last; sources of
    # non-increasing degree keep both orders near a cycle's time.
    graph = _hub_graph(8000, hub_first)
    assert graph.degree(0 if hub_first else graph.n - 1) == 8000
    cycle = _cycle(graph.n)
    for below in (5, math.inf):
        limit = 10 * _seconds(lambda: girth(cycle, below=below)) + 0.5
        assert _seconds(lambda: girth(graph, below=below)) < limit
    assert girth(graph) == 5 and girth(graph, below=5) == math.inf


def test_gate_on_face_fixtures():
    for name, kwargs in FIXTURE_CASES:
        _assert_gate_matches_oracles(_fixture_graph(name, kwargs))


def test_gate_on_corpus_slice(corpus):
    for graph in corpus[::50]:
        _assert_gate_matches_oracles(graph)


@st.composite
def graphs_with_short_cycles(draw):
    """Random spanning tree plus random extra edges and one planted cycle
    of length 3..6, so girths 3 and 4 come up often."""
    n = draw(st.integers(6, 16))
    edges = {tuple(sorted((v, draw(st.integers(0, v - 1))))) for v in range(1, n)}
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n // 3)))
    cycle = draw(st.permutations(range(n)))[:draw(st.integers(3, 6))]
    edges |= {tuple(sorted((cycle[i - 1], cycle[i]))) for i in range(len(cycle))}
    nx_graph = nx.Graph(sorted(edges))
    return _embedded(nx_graph), len(cycle)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(graphs_with_short_cycles())
def test_gate_on_random_graphs_with_short_cycles(case):
    graph, planted = case
    _assert_gate_matches_oracles(graph)
    assert girth(graph) <= planted


@pytest.fixture
def girth_calls(monkeypatch):
    """Record the ``below`` of every girth call, under each module name that
    binds girth (as the benchmark's span tracer rebinds it)."""
    calls = []
    real = girth

    def recording(graph, below=math.inf):
        calls.append(below)
        return real(graph, below)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "defcolor" and getattr(module, "girth", None) is real:
            monkeypatch.setattr(module, "girth", recording)
    return calls


def test_pipelines_call_only_the_bounded_gate(girth_calls, tmp_path):
    text = serialize_graph(fx.petersen_projective(), declare_girth5=True)
    graph = parse_graph(text)
    assert girth_calls == [5]
    color(graph)
    audit(graph)
    assert girth_calls == [5]  # cached per graph
    for run in (color, audit, apply_rules):
        girth_calls.clear()
        run(fx.dodecahedron())
        assert girth_calls == [5]

    gpath = tmp_path / "g.txt"
    gpath.write_text(text)
    cpath = tmp_path / "col.txt"
    girth_calls.clear()
    assert cli.main(["color", "--input", str(gpath), "--output", str(cpath)]) == 0
    assert cli.main(["check", "--input", str(gpath), "--coloring", str(cpath)]) == 0
    assert cli.main(["audit", "--input", str(gpath), "--output",
                     str(tmp_path / "a.txt")]) == 0
    assert girth_calls == [5, 5, 5]


def test_only_stats_asks_for_the_exact_girth(girth_calls, tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text(serialize_graph(fx.petersen_projective(), declare_girth5=True))
    assert cli.main(["stats", "--input", str(gpath)]) == 0
    assert girth_calls == [5, math.inf]
    assert "girth: 5" in capsys.readouterr().out


def test_short_cycle_errors_name_the_exact_girth():
    for n in (3, 4):
        text = serialize_graph(_cycle(n), declare_girth5=True)
        with pytest.raises(GirthTooSmallError,
                           match=f"^document declares girth5 but girth is {n}$"):
            parse_graph(text)
        with pytest.raises(GirthTooSmallError,
                           match=f"^coloring requires girth >= 5, got {n}$"):
            color(_cycle(n))
        with pytest.raises(GirthTooSmallError,
                           match=f"^audit requires girth >= 5, got {n}$"):
            audit(_cycle(n))
        with pytest.raises(GirthTooSmallError,
                           match=f"^apply_rules requires girth >= 5, got {n}$"):
            apply_rules(_cycle(n))
    apply_rules(_cycle(5))


def test_audit_tree_has_no_high_vertex_lemma():
    # a tree has no cycle, so "at least three high vertices" does not apply
    for tree in (fx.path_graph(6), fx.star(4), EmbeddedGraph([[]])):
        assert "vx-high-general" not in audit(tree, 10).violated_lemmas
    assert "vx-high-general" in audit(fx.c5(), 10).violated_lemmas
