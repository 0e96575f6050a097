import hashlib
from random import Random

import pytest

from defcolor import fixtures as fx
from defcolor.builder import PlanarBuilder
from defcolor.embedding import euler_genus, girth
from defcolor.generate import _EdgePool, gen_planar_girth5
from defcolor.graphio import serialize_graph

from gadget_builders import gen_girth5_small
from oracles import reference_eligible_edges


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


# SHA-256 of gen_planar_girth5(7, size) as written by `defcolor gen`, from
# the generator that rebuilt its edge list on every pick.  That rebuild
# made the 8k build about 50 times slower than the pool does, so a return
# to quadratic time shows here as a slow test.
LARGE_DIGESTS = {
    2000: "7566782918d8d4ae935b9230d1e0b3e417756b5be1169e6afa53b386e9ac81ec",
    8000: "fcbc077578bdc1909aab09e72de9be389f8b54c145e0bf24e7d0c6b94445d35c",
}


@pytest.mark.parametrize("size", sorted(LARGE_DIGESTS))
def test_large_graphs_keep_their_bytes(size):
    text = serialize_graph(gen_planar_girth5(7, size), declare_girth5=True)
    assert hashlib.sha256(text.encode()).hexdigest() == LARGE_DIGESTS[size]


def _assert_pool_matches_reference(pool):
    b = pool.b
    assert ([pool[k] for k in range(len(pool))]
            == reference_eligible_edges(b, pool.protected))
    assert pool.open_faces == [f for f in sorted(b.faces) if f not in b.reserved]
    with pytest.raises(IndexError):
        pool[len(pool)]


@pytest.mark.parametrize("seed", range(12))
def test_edge_pool_matches_the_rebuilt_list(seed):
    """Random subdivisions, paths, ears, reservations and protections, on
    open and reserved faces alike; the pool is checked after each one."""
    rng = Random(seed)
    b = (PlanarBuilder.from_graph(fx.dodecahedron()) if seed % 2
         else PlanarBuilder.cycle(5))
    pool = _EdgePool(b)
    _assert_pool_matches_reference(pool)
    for _ in range(120):
        op = rng.random()
        fid = rng.choice(sorted(b.faces))
        walk = b.faces[fid]
        i, j = rng.sample(range(len(walk)), 2)
        if op < 0.3:
            if pool:
                pool.subdivide(*pool[rng.randrange(len(pool))])
        elif op < 0.5:
            if walk[i][0] != walk[j][0]:
                pool.insert_path(fid, i, j, rng.randint(2, 5))
        elif op < 0.65:
            pool.insert_ear(fid, i, rng.randint(3, 5))
        elif op < 0.85:
            pool.reserve(fid)
        else:
            pool.protect(*walk[i])
        _assert_pool_matches_reference(pool)
    assert b.reserved and pool.protected
