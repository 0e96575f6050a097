"""The builder's incrementally maintained faces must agree with a fresh
face trace of the rotations it produced."""

import copy
import random

import pytest

from defcolor.builder import PlanarBuilder
from defcolor.embedding import EmbeddedGraph, girth


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


@pytest.mark.parametrize("name, args, error", [
    ("subdivide", (0, 2), ValueError),  # not an edge
    ("insert_path", (0, 1, 1, 4), ValueError),  # equal occurrences
    ("insert_path", (0, 1, 9, 4), IndexError),
    ("insert_ear", (0, 9, 5), IndexError),
    ("attach_leaf", (0, 9), IndexError),
    ("add_handle_edge", (0, 0, 1, 4), ValueError),  # joins 0 and 1 again
], ids=["subdivide", "path-equal", "path-range", "ear", "leaf", "handle"])
def test_a_refused_call_leaves_the_builder_as_it_was(name, args, error):
    b = PlanarBuilder.cycle(5)
    b.reserved.update((0, 1))
    before = copy.deepcopy((b.rotations, b.faces, b.dart_face, b.reserved))
    with pytest.raises(error):
        getattr(b, name)(*args)
    assert (b.rotations, b.faces, b.dart_face, b.reserved) == before
