"""Face tracing against the orbit-pairing reference tracer.

EmbeddedGraph walks each face once, from its least walk state, and fills
passages and edge sides in the same walk; oracles.reference_faces traces
both orbits of every face, pairs them and sorts.  Faces (darts and
order), passages, edge sides and genus must agree on every input.  The
walk runs on the first face read, so every input is checked on a fresh,
untraced copy whose first read is each face query in turn, and a
recording test pins which commands trace at all.
"""

import pytest
from hypothesis import given, settings, strategies as st

from defcolor import cli
from defcolor.embedding import EmbeddedGraph
from defcolor.generate import gen_planar_girth5

from oracles import reference_faces
from test_golden import FIXTURE_CASES, _fixture_graph

FIRST_READS = {
    "genus": lambda g: g.genus,
    "faces": lambda g: g.faces,
    "passages": lambda g: g.passages(0),
    # (0, 0) on the single vertex, which has no edge to ask about
    "edge_sides": lambda g: g.edge_sides(0, (g.rotation[0] or (0,))[-1]),
}


def _assert_traced_like_reference(graph, first_read):
    graph = EmbeddedGraph(graph.rotation, graph.twists)
    assert graph._faces is None
    FIRST_READS[first_read](graph)
    assert graph._faces is not None
    ref = reference_faces(graph)
    assert [f.darts for f in graph.faces] == ref
    assert [f.index for f in graph.faces] == list(range(len(ref)))
    passages = [[] for _ in range(graph.n)]
    sides = {}
    for index, darts in enumerate(ref):
        for pos, dart in enumerate(darts):
            passages[dart[0]].append((index, pos))
            sides.setdefault(dart, []).append((index, pos))
    for v in range(graph.n):
        assert graph.passages(v) == tuple(passages[v])
    for u, v in graph.edges:
        for a, b in ((u, v), (v, u)):
            want = tuple(sides.get((a, b), []) + sides.get((b, a), []))
            assert len(want) == 2
            assert graph.edge_sides(a, b) == want
    assert graph.genus == 2 - (graph.n - len(graph.edges) + len(ref))


@st.composite
def twisted_embeddings(draw):
    """Random connected simple graph: a random spanning tree plus extra
    edges, each rotation shuffled and a random subset of edges twisted."""
    n = draw(st.integers(1, 12))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    vertex = st.integers(0, n - 1)
    for a, b in draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    nbrs = [[] for _ in range(n)]
    for a, b in sorted(edges):
        nbrs[a].append(b)
        nbrs[b].append(a)
    rotation = [draw(st.permutations(r)) for r in nbrs]
    twists = [e for e in sorted(edges) if draw(st.booleans())]
    return EmbeddedGraph(rotation, twists)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(twisted_embeddings(), st.sampled_from(list(FIRST_READS)))
def test_random_twisted_embeddings_match_reference(graph, first_read):
    _assert_traced_like_reference(graph, first_read)


def test_fixtures_match_reference():
    for name, kwargs in FIXTURE_CASES:
        graph = _fixture_graph(name, kwargs)
        for first_read in FIRST_READS:
            _assert_traced_like_reference(graph, first_read)


def test_corpus_slice_matches_reference(corpus):
    for graph in corpus[::10]:
        for first_read in FIRST_READS:
            _assert_traced_like_reference(graph, first_read)


def test_single_vertex_has_one_empty_face():
    graph = EmbeddedGraph([[]])
    for first_read in FIRST_READS:
        _assert_traced_like_reference(graph, first_read)
    assert [f.darts for f in graph.faces] == [()]
    assert graph.passages(0) == ()
    assert graph.genus == 0


@pytest.fixture
def traced(monkeypatch):
    """Record the vertex count of every graph whose faces are traced."""
    calls = []
    real = EmbeddedGraph._trace_faces

    def recording(graph):
        calls.append(graph.n)
        return real(graph)

    monkeypatch.setattr(EmbeddedGraph, "_trace_faces", recording)
    return calls


def test_only_face_readers_trace(traced, tmp_path):
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    # seed 7 grows from C5; seed 9 from the dodecahedron, whose faces
    # (20 vertices) seed the builder
    assert cli.main(["gen", "--seed", "7", "--size", "200",
                     "--output", str(tmp_path / "d.txt")]) == 0
    assert traced == []
    assert cli.main(["gen", "--seed", "9", "--size", "200",
                     "--output", str(gpath)]) == 0
    assert traced == [20]
    n = int(gpath.read_text().split()[1])

    traced.clear()
    assert cli.main(["color", "--input", str(gpath), "--t", "10",
                     "--output", str(cpath)]) == 0
    assert cli.main(["check", "--input", str(gpath), "--coloring", str(cpath)]) == 0
    assert cli.main(["solve", "--input", str(gpath), "--defects", "1,10",
                     "--budget", "1000", "--output", str(cpath)]) in (0, 4)
    assert traced == []

    for argv in (["color", "--output", str(cpath)],
                 ["audit", "--output", str(tmp_path / "a.txt")],
                 ["stats", "--output", str(tmp_path / "s.txt")]):
        traced.clear()
        assert cli.main(argv + ["--input", str(gpath)]) == 0
        assert traced == [n], argv[0]


def test_generated_graph_is_not_traced(traced):
    graph = gen_planar_girth5(7, 2000)
    assert traced == [] and graph._faces is None
    assert graph.genus == 0
    assert traced == [graph.n]
