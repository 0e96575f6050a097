import math
import random
import sys
import threading

import pytest

from defcolor import cli, fixtures as fx
from defcolor.embedding import (AsymmetricError, DisconnectedError,
                                EmbeddedGraph, GraphError, NonSimpleError,
                                girth, induced_embedding)
from defcolor.generate import gen_planar_girth5

from gadget_builders import gen_girth5_small
from oracles import girth_oracle, relabeled
from test_golden import FIXTURE_CASES, _fixture_graph


def test_c5_two_faces_genus_zero():
    g = EmbeddedGraph([[(i - 1) % 5, (i + 1) % 5] for i in range(5)])
    assert len(g.faces) == 2
    assert g.genus == 0
    assert all(len(f) == 5 for f in g.faces)


@pytest.mark.parametrize("v", [-1, 5])
def test_vertex_queries_reject_out_of_range_ids(v):
    g = fx.c5()
    with pytest.raises(IndexError):
        g.passages(v)
    with pytest.raises(IndexError):
        g.degree(v)


def test_loop_rejected():
    with pytest.raises(NonSimpleError):
        EmbeddedGraph([[1], [1, 0]])


def test_duplicate_neighbor_rejected():
    with pytest.raises(NonSimpleError):
        EmbeddedGraph([[1, 1], [0, 0]])


def test_asymmetric_rejected():
    with pytest.raises(AsymmetricError):
        EmbeddedGraph([[1], [0, 2], [1, 3], [2]][:3] + [[0]])


def test_disconnected_rejected():
    # two disjoint 5-cycles
    rot = [[(i - 1) % 5, (i + 1) % 5] for i in range(5)]
    rot += [[5 + (i - 1) % 5, 5 + (i + 1) % 5] for i in range(5)]
    with pytest.raises(DisconnectedError):
        EmbeddedGraph(rot)


def test_petersen_projective_embedding():
    g = fx.petersen_projective()
    assert len(g.faces) == 6
    assert g.genus == 1
    # Euler's formula with the traced face count
    assert g.n - len(g.edges) + len(g.faces) == 2 - 1
    assert all(len(f) == 5 for f in g.faces)


def test_dodecahedron():
    g = fx.dodecahedron()
    assert g.n - len(g.edges) + len(g.faces) == 2
    assert g.genus == 0
    assert girth(g) == 5


def test_single_vertex_and_tree_faces():
    single = EmbeddedGraph([[]])
    assert len(single.faces) == 1 and single.genus == 0
    tree = fx.path_graph(6)
    assert len(tree.faces) == 1
    assert len(tree.faces[0]) == 10  # every edge walked twice
    assert girth(tree) == math.inf


def test_twisted_cycle_is_projective():
    # one sign flip turns C5 into a non-contractible cycle: a single
    # face of degree 10 in the projective plane
    g = EmbeddedGraph([[(i - 1) % 5, (i + 1) % 5] for i in range(5)],
                    twists=[(0, 1)])
    assert len(g.faces) == 1
    assert len(g.faces[0]) == 10
    assert g.genus == 1


def test_repeated_twist_rejected():
    # two sign flips on one edge cancel; merging them would give genus 1
    c5 = [[(i - 1) % 5, (i + 1) % 5] for i in range(5)]
    with pytest.raises(GraphError, match="^twist 1-0 listed twice$"):
        EmbeddedGraph(c5, twists=[(0, 1), (1, 0)])


def test_girth_examples():
    assert girth(fx.c5()) == 5
    assert girth(fx.dodecahedron()) == girth_oracle(fx.dodecahedron()) == 5
    assert girth(fx.petersen_projective()) == 5


def test_girth_matches_oracle_on_small_graphs():
    for seed in range(40):
        g = gen_girth5_small(seed, 5 + seed % 26)
        assert girth(g) == girth_oracle(g)
    for seed in range(10):
        g = gen_planar_girth5(seed, 5 + 4 * seed)
        assert girth(g) == girth_oracle(g)
        assert g.short_cycle == girth(g, below=5) == math.inf


def test_face_vert_set_gives_external_neighbors():
    g = fx.c5()
    for i in range(len(g.faces)):
        verts = set(g.faces[i])
        assert verts == set(range(5))
        for v in range(5):
            assert [u for u in g.rotation[v] if u not in verts] == []
    fix = fx.special_face()
    verts = set(fix.graph.faces[fix.face_index])
    assert verts == set(fix.face_verts)
    ext = [u for u in fix.graph.rotation[4]  # the 3-vertex
           if u not in verts]
    assert len(ext) == 1
    assert fix.graph.degree(ext[0]) == 1


def test_face_degree_sum_and_dart_uniqueness():
    for seed in range(12):
        g = gen_planar_girth5(seed, 20 + 10 * seed)
        assert sum(map(len, g.faces)) == 2 * len(g.edges)
        seen = set()
        for f in g.faces:
            for d in zip(f, f[1:] + f[:1]):
                assert d not in seen  # untwisted: every dart on one face
                seen.add(d)
        assert len(seen) == 2 * len(g.edges)
        for v in range(g.n):
            assert len(g.passages(v)) == g.degree(v)


def test_passage_count_on_twisted_graph():
    g = fx.petersen_projective()
    assert sum(map(len, g.faces)) == 2 * len(g.edges)
    for v in range(g.n):
        assert len(g.passages(v)) == g.degree(v)


def test_genus_invariant_under_relabeling():
    rng = random.Random(5)
    for g in (fx.c5(), fx.dodecahedron(), fx.petersen_projective()):
        perm = list(range(g.n))
        for _ in range(3):
            rng.shuffle(perm)
            h = relabeled(EmbeddedGraph, g, perm)
            assert h.genus == g.genus
            assert len(h.faces) == len(g.faces)


def test_induced_embedding_preserves_rotation():
    g = fx.dodecahedron()
    keep = sorted(set(range(20)) - {0})
    sub, remap = induced_embedding(g, keep)
    assert sub.n == 19
    for old in keep:
        expect = [remap[u] for u in g.rotation[old] if u != 0]
        assert list(sub.rotation[remap[old]]) == expect


def _sorted_edges(graph):
    return tuple(sorted((u, v) for u, nbrs in enumerate(graph.rotation)
                        for v in nbrs if u < v))


def test_edges_are_built_on_first_read_and_sorted(corpus):
    graphs = [_fixture_graph(name, kw) for name, kw in FIXTURE_CASES]
    for source in graphs + corpus[::25]:
        graph = EmbeddedGraph(source.rotation, source.twists)
        assert graph._edges is None
        edges = graph.edges
        assert edges == _sorted_edges(graph)
        assert graph.edges is edges and graph.m == len(edges)


def test_color_and_check_sort_no_edges(tmp_path, monkeypatch):
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    assert cli.main(["gen", "--seed", "9", "--size", "400",
                     "--output", str(gpath)]) == 0
    parsed, reads = [], []
    real_parse, real_edges = cli.parse_graph, EmbeddedGraph.edges

    def parse(text):
        parsed.append(real_parse(text))
        return parsed[-1]

    def edges(graph):
        reads.append(graph.n)
        return real_edges.fget(graph)

    monkeypatch.setattr(cli, "parse_graph", parse)
    monkeypatch.setattr(EmbeddedGraph, "edges", property(edges))
    assert cli.main(["color", "--input", str(gpath), "--output", str(cpath)]) == 0
    assert cli.main(["check", "--input", str(gpath), "--coloring", str(cpath)]) == 0
    assert len(parsed) == 2 and reads == []
    assert all(graph._edges is None for graph in parsed)


def test_racing_first_edge_reads_publish_one_finished_tuple():
    source = gen_planar_girth5(7, 2000)
    want = _sorted_edges(source)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, to interleave reads
    try:
        for _ in range(5):
            graph = EmbeddedGraph(source.rotation, source.twists)
            barrier = threading.Barrier(4)
            got = []

            def read():
                barrier.wait()
                got.append(graph.edges)

            threads = [threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert len(got) == 4 and all(edges == want for edges in got)
            assert any(graph.edges is edges for edges in got)
    finally:
        sys.setswitchinterval(interval)
