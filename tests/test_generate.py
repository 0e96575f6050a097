import pytest

from defcolor.embedding import euler_genus, girth
from defcolor.generate import gen_planar_girth5
from defcolor.graphio import serialize_graph

from gadget_builders import gen_girth5_small


def test_target_five_is_exactly_c5():
    for seed in (0, 7, 123):
        g = gen_planar_girth5(seed, 5)
        assert g.n == 5
        assert g.rotation == tuple(((i - 1) % 5, (i + 1) % 5) for i in range(5))


def test_generated_graphs_are_valid_corpus_members():
    for seed, size in [(1, 12), (2, 30), (42, 50), (4, 90), (5, 130), (6, 150)]:
        g = gen_planar_girth5(seed, size)
        assert g.n >= size
        assert g.n <= size + 40
        assert euler_genus(g) == 0
        assert girth(g) >= 5


def test_determinism_per_seed():
    a = gen_planar_girth5(42, 80)
    b = gen_planar_girth5(42, 80)
    assert serialize_graph(a) == serialize_graph(b)
    c = gen_planar_girth5(43, 80)
    assert serialize_graph(a) != serialize_graph(c)


def test_medium_vertices_always_have_a_high_neighbor():
    for seed in range(24):
        g = gen_planar_girth5(9000 + seed, 40 + 5 * seed)
        for v in range(g.n):
            if 6 <= g.degree(v) <= 11:
                assert any(g.degree(u) >= 12 for u in g.neighbors(v))


def test_rejects_tiny_target():
    with pytest.raises(ValueError):
        gen_planar_girth5(1, 4)


def test_small_random_graphs():
    for seed in range(30):
        g = gen_girth5_small(seed, 5 + seed % 8)
        assert girth(g) >= 5
    a = gen_girth5_small(3, 12)
    b = gen_girth5_small(3, 12)
    assert a.rotation == b.rotation
