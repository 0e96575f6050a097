"""Face tracing against the orbit-pairing reference tracer.

EmbeddedGraph walks each face once, from its least walk state, and fills
passages and edge sides in the same walk; oracles.reference_faces traces
both orbits of every face, pairs them and sorts.  Faces (darts and
order), passages, edge sides and genus must agree on every input.
"""

from hypothesis import given, settings, strategies as st

from defcolor.embedding import EmbeddedGraph

from oracles import reference_faces
from test_golden import FIXTURE_CASES, _fixture_graph


def _assert_traced_like_reference(graph):
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
@given(twisted_embeddings())
def test_random_twisted_embeddings_match_reference(graph):
    _assert_traced_like_reference(graph)


def test_fixtures_match_reference():
    for name, kwargs in FIXTURE_CASES:
        _assert_traced_like_reference(_fixture_graph(name, kwargs))


def test_corpus_slice_matches_reference(corpus):
    for graph in corpus[::10]:
        _assert_traced_like_reference(graph)


def test_single_vertex_has_one_empty_face():
    graph = EmbeddedGraph([[]])
    _assert_traced_like_reference(graph)
    assert [f.darts for f in graph.faces] == [()]
    assert graph.passages(0) == ()
    assert graph.genus == 0
