"""The builder's incrementally maintained faces must agree with a fresh
face trace of the rotations it produced."""

import copy
import random

import pytest

from defcolor.builder import PlanarBuilder
from defcolor.embedding import EmbeddedGraph, girth
from defcolor.fixtures import path_graph
from defcolor.generate import _EdgePool

from oracles import reference_eligible_edges


def canonical_faces(walks):
    out = set()
    for walk in walks:
        k = walk.index(min(walk))
        out.add(tuple(walk[k:] + walk[:k]))
    return out


def assert_faces_match(b: PlanarBuilder):
    g = EmbeddedGraph([tuple(r) for r in b.rotations])
    traced = canonical_faces([list(zip(f, f[1:] + f[:1])) for f in g.faces])
    kept = canonical_faces([list(w) for w in b.faces.values()])
    assert traced == kept


def test_cycle_faces():
    b = PlanarBuilder.cycle(5)
    assert_faces_match(b)


def test_each_operation_keeps_faces_consistent():
    b = PlanarBuilder.cycle(5)
    b.subdivide(0, 1)
    assert_faces_match(b)
    f1, f2, interior = b.insert_path(1, 0, 2, 4)
    assert_faces_match(b)
    b.attach_leaf(f2, 0)
    assert_faces_match(b)
    cyc, old, _ = b.insert_ear(f1, 1, 5)
    assert_faces_match(b)
    g = b.graph()
    assert g.genus == 0 and girth(g) >= 5


def test_handle_edge_raises_genus_by_two():
    b = PlanarBuilder.cycle(8)
    # two occurrences at distance 4 on different faces after a split
    f1, f2, _ = b.insert_path(1, 0, 4, 4)
    i = b.occurrences(f1, b.face_verts(f1)[1])[0]
    j = b.occurrences(f2, b.face_verts(f2)[1])[0]
    u, w = b.face_verts(f1)[i], b.face_verts(f2)[j]
    if w in b.rotations[u]:
        # pick non-adjacent occurrences instead
        for i in range(len(b.faces[f1])):
            for j in range(len(b.faces[f2])):
                u, w = b.face_verts(f1)[i], b.face_verts(f2)[j]
                if u != w and w not in b.rotations[u]:
                    break
            else:
                continue
            break
    before = len(b.faces)
    b.add_handle_edge(f1, i, f2, j)
    assert len(b.faces) == before - 1
    assert_faces_match(b)
    assert b.graph().genus == 2


def test_random_operation_sequences_stay_consistent():
    rng = random.Random(99)
    for trial in range(8):
        b = PlanarBuilder.cycle(5)
        for _ in range(25):
            op = rng.random()
            fids = sorted(b.faces)
            fid = rng.choice(fids)
            verts = b.face_verts(fid)
            if op < 0.3:
                edges = sorted({(min(a, c), max(a, c))
                                for a in range(b.vertex_count)
                                for c in b.rotations[a]})
                b.subdivide(*rng.choice(edges))
            elif op < 0.55:
                b.attach_leaf(fid, rng.randrange(len(verts)))
            elif op < 0.8:
                i, j = rng.sample(range(len(verts)), 2)
                if verts[i] != verts[j]:
                    b.insert_path(fid, i, j, rng.randint(4, 6))
            else:
                b.insert_ear(fid, rng.randrange(len(verts)), 5)
        assert_faces_match(b)
        g = b.graph()
        assert g.genus == 0
        assert girth(g) >= 5


def _cycle5():
    return PlanarBuilder.cycle(5)


def _path3():
    return PlanarBuilder.from_graph(path_graph(3))  # one face: 0, 1, 2, 1


@pytest.mark.parametrize("make, name, args, error", [
    (_cycle5, "subdivide", (0, 2), ValueError),  # not an edge
    (_cycle5, "insert_path", (0, 1, 1, 4), ValueError),  # equal occurrences
    (_cycle5, "insert_path", (0, 1, 9, 4), IndexError),
    (_cycle5, "insert_path", (0, 0, 2, 0), ValueError),
    (_path3, "insert_path", (0, 1, 3, 1), ValueError),  # loop at 1
    (_cycle5, "insert_path", (0, 0, 1, 1), ValueError),  # 0-1 again
    (_path3, "insert_path", (0, 1, 3, 2), ValueError),  # 1-x-1
    (_cycle5, "insert_ear", (0, 9, 5), IndexError),
    (_cycle5, "attach_leaf", (0, 9), IndexError),
    (_cycle5, "add_handle_edge", (0, 0, 1, 4), ValueError),  # 0-1
    (_cycle5, "add_handle_edge", (0, 0, 1, 0), ValueError),  # 0-0
    (_cycle5, "reserve", (9,), KeyError),
], ids=["subdivide", "path-equal", "path-range", "path-length-0",
        "chord-loop", "chord-twice", "path-2-loop", "ear", "leaf", "handle",
        "handle-loop", "reserve-missing"])
def test_a_refused_call_leaves_the_builder_as_it_was(make, name, args, error):
    b = make()
    b.reserve(0)
    b.touched.clear()  # so that a stray mark shows
    state = ("rotations", "faces", "dart_face", "reserved", "open_faces",
             "touched")
    before = copy.deepcopy([getattr(b, a) for a in state])
    with pytest.raises(error):
        getattr(b, name)(*args)
    assert [getattr(b, a) for a in state] == before


def test_a_refused_path_leaves_open_faces_and_pool_in_step():
    b = PlanarBuilder.cycle(5)
    pool = _EdgePool(b)
    with pytest.raises(ValueError):
        b.insert_path(0, 1, 1, 4)
    assert b.open_faces == [0, 1]
    assert list(pool) == reference_eligible_edges(b, pool.protected)
