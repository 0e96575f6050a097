"""Face tracing against the orbit-pairing reference tracer.

EmbeddedGraph walks each face once, from its least walk state; the genus
reads only that walk, and the first face read builds the faces and the
corner store from it.  oracles.reference_faces traces both orbits of
every face, pairs them and sorts.  Faces (darts and order), passages in
rotation-corner order, the sides found at the corners beside each edge
and genus must agree on every input.  Every input is checked on a fresh
copy whose first read is each face query in turn; a genus read must
build no face.  networkx's planarity test checks the genus on its own, a
recording test pins which commands walk and build, and a threaded test
races the first reads.
"""

import sys
import threading

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st

from defcolor import cli
from defcolor.embedding import EmbeddedGraph
from defcolor.fixtures import petersen_projective
from defcolor.generate import gen_planar_girth5

from oracles import reference_faces
from test_golden import FIXTURE_CASES, _fixture_graph

FIRST_READS = {
    "genus": lambda g: g.genus,
    "faces": lambda g: g.faces,
    "passages": lambda g: g.passages(0),
}


def _reference(graph):
    """Faces, passages, sides of each edge and genus of the reference.

    A walk entry (v, w, s) leaves v by dart (v, w) in sense s; it passes
    the corner (index of w in rotation[v] + s) mod deg(v), which must be
    passed by no other entry."""
    faces = reference_faces(graph)
    passages = [[None] * len(nbrs) for nbrs in graph.rotation]
    sides = {}
    for index, walk in enumerate(faces):
        for pos, (v, w, s) in enumerate(walk):
            rot = graph.rotation[v]
            corner = (rot.index(w) + s) % len(rot)
            assert passages[v][corner] is None
            passages[v][corner] = (index, pos)
            sides.setdefault(frozenset((v, w)), set()).add((index, pos))
    genus = 2 - (graph.n - len(graph.edges) + len(faces))
    darts = [tuple((v, w) for v, w, _ in walk) for walk in faces]
    return darts, passages, sides, genus


def _corner_sides(graph, a, b):
    """The (face, position) sides of edge {a, b} held by the two corners of
    a beside b: a passage there walks (a, b) from its position when its
    face goes on to b, and (b, a) from the position before when it came
    from b (at a 1-vertex, the one corner does both)."""
    ring, j = graph.passages(a), graph.rotation[a].index(b)
    found = set()
    for fi, pos in (ring[j], ring[(j + 1) % len(ring)]):
        verts = graph.faces[fi]
        if verts[(pos + 1) % len(verts)] == b:
            found.add((fi, pos))
        if verts[pos - 1] == b:
            found.add((fi, (pos - 1) % len(verts)))
    return found


def _assert_reads_match(graph, reference):
    faces, passages, sides, genus = reference
    assert graph.genus == genus
    assert [tuple(zip(f, f[1:] + f[:1])) for f in graph.faces] == faces
    assert all(type(f) is tuple for f in graph.faces)
    for v in range(graph.n):
        assert graph.passages(v) == tuple(passages[v])
    for u, v in graph.edges:
        want = sides[frozenset((u, v))]
        assert len(want) == 2
        assert _corner_sides(graph, u, v) == _corner_sides(graph, v, u) == want


def _assert_traced_like_reference(graph, first_read):
    graph = EmbeddedGraph(graph.rotation, graph.twists)
    assert graph._genus is None and graph._faces is None
    reference = _reference(graph)
    got = FIRST_READS[first_read](graph)
    if first_read == "genus":
        # the walk alone: no face or corner is built
        assert graph._faces is None and graph._corners is None
        assert got == reference[3]
    else:
        assert graph._faces is not None and graph._walked is None
    _assert_reads_match(graph, reference)


def _connected_edges(draw, min_extra, max_extra):
    """A random connected simple graph on 1 to 12 vertices: a random
    spanning tree plus ``min_extra`` to ``max_extra`` times n vertex pairs
    drawn as extra edges (loops and repeats dropped)."""
    n = draw(st.integers(1, 12))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    vertex = st.integers(0, n - 1)
    pairs = st.lists(st.tuples(vertex, vertex),
                     min_size=min_extra * n, max_size=max_extra * n)
    for a, b in draw(pairs):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return n, sorted(edges)


@st.composite
def twisted_embeddings(draw, min_extra=0, max_extra=2):
    """Random connected simple graph, each rotation shuffled and a random
    subset of edges twisted."""
    n, edges = _connected_edges(draw, min_extra, max_extra)
    nbrs = [[] for _ in range(n)]
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    rotation = [draw(st.permutations(r)) for r in nbrs]
    twists = [e for e in edges if draw(st.booleans())]
    return EmbeddedGraph(rotation, twists)


@st.composite
def connected_graphs(draw):
    """Random connected simple graph as a networkx.Graph, sparse enough
    that most are planar."""
    n, edges = _connected_edges(draw, 0, 1)
    graph = nx.Graph(edges)
    graph.add_nodes_from(range(n))
    return graph


@settings(derandomize=True, max_examples=300, deadline=None)
@given(twisted_embeddings(), st.sampled_from(list(FIRST_READS)))
def test_random_twisted_embeddings_match_reference(graph, first_read):
    _assert_traced_like_reference(graph, first_read)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(connected_graphs())
def test_planarity_embedding_has_genus_zero(graph):
    planar, embedding = nx.check_planarity(graph)
    assume(planar)
    rotation = [list(embedding.neighbors_cw_order(v)) for v in range(len(graph))]
    embedded = EmbeddedGraph(rotation)
    assert embedded.genus == 0
    assert embedded._faces is None


@settings(derandomize=True, max_examples=300, deadline=None)
@given(twisted_embeddings(2, 3))  # denser: about a quarter are not planar
def test_genus_zero_only_on_planar_graphs(graph):
    if graph.genus == 0:
        assert nx.is_planar(nx.Graph(graph.edges))


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
    assert graph.faces == ((),)
    assert graph.passages(0) == ()
    assert graph.genus == 0


def test_racing_first_reads_match_reference():
    """Four threads released together each make a different first read
    of one fresh graph, then read everything; all must see the reference."""
    readers = list(FIRST_READS.values())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, to interleave reads
    try:
        for source, rounds in ((gen_planar_girth5(7, 2000), 3),
                               (petersen_projective(), 300)):
            reference = _reference(source)
            for _ in range(rounds):
                graph = EmbeddedGraph(source.rotation, source.twists)
                barrier = threading.Barrier(len(readers))
                errors = []

                def read(first):
                    barrier.wait()
                    try:
                        first(graph)
                        _assert_reads_match(graph, reference)
                    except BaseException as exc:  # reported by the main thread
                        errors.append(exc)

                threads = [threading.Thread(target=read, args=(first,))
                           for first in readers]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert errors == []
    finally:
        sys.setswitchinterval(interval)


class Recorder:
    """Vertex counts of the graphs walked and of those whose faces are built."""

    def __init__(self):
        self.walks, self.builds = [], []

    def clear(self):
        self.walks.clear()
        self.builds.clear()


@pytest.fixture
def traced(monkeypatch):
    recorder = Recorder()
    real_walk, real_build = EmbeddedGraph._walk, EmbeddedGraph._build

    def walk(graph):
        recorder.walks.append(graph.n)
        return real_walk(graph)

    def build(graph):
        recorder.builds.append(graph.n)
        return real_build(graph)

    monkeypatch.setattr(EmbeddedGraph, "_walk", walk)
    monkeypatch.setattr(EmbeddedGraph, "_build", build)
    return recorder


def test_only_face_readers_trace(traced, tmp_path):
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    # seed 7 grows from C5; seed 9 from the dodecahedron, whose faces
    # (20 vertices) seed the builder
    assert cli.main(["gen", "--seed", "7", "--size", "200",
                     "--output", str(tmp_path / "d.txt")]) == 0
    assert traced.walks == traced.builds == []
    assert cli.main(["gen", "--seed", "9", "--size", "200",
                     "--output", str(gpath)]) == 0
    assert traced.walks == traced.builds == [20]
    n = int(gpath.read_text().split()[1])

    traced.clear()
    assert cli.main(["color", "--input", str(gpath), "--t", "10",
                     "--output", str(cpath)]) == 0
    assert cli.main(["check", "--input", str(gpath), "--coloring", str(cpath)]) == 0
    assert cli.main(["solve", "--input", str(gpath), "--defects", "1,10",
                     "--budget", "1000", "--output", str(cpath)]) in (0, 4)
    assert traced.walks == traced.builds == []

    traced.clear()
    assert cli.main(["color", "--input", str(gpath), "--output", str(cpath)]) == 0
    assert traced.walks == [n] and traced.builds == []

    for argv in (["audit", "--output", str(tmp_path / "a.txt")],
                 ["stats", "--output", str(tmp_path / "s.txt")]):
        traced.clear()
        assert cli.main(argv + ["--input", str(gpath)]) == 0
        assert traced.walks == traced.builds == [n], argv[0]


def test_generated_graph_is_not_traced(traced):
    graph = gen_planar_girth5(7, 2000)
    assert traced.walks == traced.builds == [] and graph._genus is None
    assert graph.genus == 0
    assert traced.walks == [graph.n] and traced.builds == []
    assert graph._faces is None
    graph.faces
    assert traced.walks == traced.builds == [graph.n]
    graph.passages(0), graph.genus
    assert traced.walks == traced.builds == [graph.n]
