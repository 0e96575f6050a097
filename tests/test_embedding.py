import math
import random
import sys
import threading
import time
import tracemalloc

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


HUB = 2 * 10 ** 5  # spokes of the hub graphs below


def _cycle(n):
    return [((v - 1) % n, (v + 1) % n) for v in range(n)]


def _star(spokes):
    """Leaves 0..spokes-1 around the hub, the last vertex."""
    return [(spokes,)] * spokes + [tuple(range(spokes))]


def _wheel(spokes):
    """A rim cycle 0..spokes-1 around the hub, the last vertex, embedded in
    the plane: each rim vertex turns from its predecessor to the hub."""
    rim = [((v - 1) % spokes, spokes, (v + 1) % spokes)
           for v in range(spokes)]
    return rim + [tuple(range(spokes - 1, -1, -1))]


def _seconds(make):
    start = time.perf_counter()
    try:
        make()
    except GraphError:
        pass
    return time.perf_counter() - start


def test_hubs_build_and_fail_in_linear_time():
    # Finding each neighbor's position by scanning the hub's rotation would
    # cost about 2 * 10^10 comparisons here (8 s for a 40,000-leaf star);
    # the hub's position map keeps every graph within a few cycle builds.
    bad_star = _star(HUB)
    bad_star[HUB - 1] = ()  # the last leaf does not list the hub back
    fault = f"^{HUB} lists {HUB - 1} but {HUB - 1} does not list {HUB}$"
    with pytest.raises(AsymmetricError, match=fault):
        EmbeddedGraph(bad_star)
    limit = 10 * _seconds(lambda: EmbeddedGraph(_cycle(HUB))) + 0.5
    for make in (lambda: EmbeddedGraph(_star(HUB)),
                 lambda: EmbeddedGraph(bad_star)):
        assert _seconds(make) < limit
    wheel = EmbeddedGraph(_wheel(HUB))
    assert _seconds(lambda: wheel.genus) < limit
    assert wheel.genus == 0 and len(wheel.faces) == HUB + 1
    # dart (0, 1) is the least, then (0, HUB - 1) starts the rim
    assert wheel.faces[:2] == ((0, 1, HUB), (0, *range(HUB - 1, 0, -1)))


def test_genus_keeps_only_the_walk():
    """The walk's tables die with it: what genus leaves alive is the walk
    (its lists and the ints they hold), nothing per dart beside it."""
    graph = EmbeddedGraph(_cycle(20_000))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert graph.genus == 0
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    walked, ends = graph._walked
    own = sum(map(sys.getsizeof, [walked, ends, *walked, *ends]))
    assert kept <= own + 4096, (kept, own)
    lists = {name for name, value in vars(graph).items()
             if isinstance(value, (list, bytearray))}
    assert lists == {"_offset", "_reverse", "_twisted"}
