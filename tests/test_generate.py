import hashlib
from random import Random

import pytest

from defcolor import fixtures as fx
from defcolor.builder import PlanarBuilder
from defcolor.embedding import girth
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
        assert g.genus == 0
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
                assert any(g.degree(u) >= 12 for u in g.rotation[v])


def test_rejects_tiny_target():
    with pytest.raises(ValueError):
        gen_planar_girth5(1, 4)


@pytest.mark.parametrize("size", [50.5, "60"])
def test_rejects_a_target_that_is_no_integer(size):
    # refused before any growth, not after a whole graph is grown
    with pytest.raises(ValueError, match="target_size must be an integer"):
        gen_planar_girth5(1, size)


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


# SHA-256 of serialize_graph(gen_planar_girth5(seed, size)), concatenated
# over seeds 0-39 and these sizes in order.
SWEEP_SIZES = (5, 12, 30, 50, 90, 130, 200, 400, 800)
SWEEP_DIGEST = "a17d84482fec5854edd207e1cc99027796cccbd5995c85140ebd2c6684f6dad6"


def test_the_seed_sweep_keeps_its_bytes():
    h = hashlib.sha256()
    for seed in range(40):
        for size in SWEEP_SIZES:
            h.update(serialize_graph(gen_planar_girth5(seed, size)).encode())
    assert h.hexdigest() == SWEEP_DIGEST


def _assert_pool_matches_reference(pool):
    b = pool.b
    assert ([pool[k] for k in range(len(pool))]
            == reference_eligible_edges(b, pool.protected))
    assert b.open_faces == [f for f in sorted(b.faces) if f not in b.reserved]
    with pytest.raises(IndexError):
        pool[len(pool)]


@pytest.mark.parametrize("seed", range(12))
def test_edge_pool_matches_the_rebuilt_list(seed):
    """Random subdivisions, paths, ears, reservations and protections, on
    open and reserved faces alike, and calls the builder refuses; the pool
    and the open faces are checked after each one."""
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
                b.subdivide(*pool[rng.randrange(len(pool))])
        elif op < 0.5:
            if walk[i][0] != walk[j][0]:
                b.insert_path(fid, i, j, rng.randint(2, 5))
        elif op < 0.65:
            b.insert_ear(fid, i, rng.randint(3, 5))
        elif op < 0.8:
            b.reserve(fid)
        elif op < 0.85:  # equal occurrences, out of range, no such face
            call, error = rng.choice([
                (lambda: b.insert_path(fid, i, i, 4), ValueError),
                (lambda: b.insert_path(fid, i, len(walk), 4), IndexError),
                (lambda: b.reserve(max(b.faces) + 1), KeyError)])
            with pytest.raises(error):
                call()
        else:
            pool.protect(*walk[i])
        _assert_pool_matches_reference(pool)
    assert b.reserved and pool.protected
