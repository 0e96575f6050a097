"""Seeded generation of girth-5 test graphs.

gen_planar_girth5 grows a planar girth-5 graph from C5 (or the
dodecahedron) by girth-preserving operations: edge subdivision, paths of
length >= 4 between co-facial vertices (length 3 when the endpoints are
non-adjacent), pentagon ears, and a couple of installed motifs so the
charge rules beyond R1/R5 actually fire on corpus graphs:

  * designated hubs grown to degree >= 12 (R4, face classes),
  * medium hubs (degree 6..11) always created adjacent to a high hub,
    which keeps every nonzero R3 transfer at >= 3/2,
  * a reserved pentagon with degrees (2, high, 2, 5, 3) (R2's special
    branch),
  * sponsor bridges: two high hubs joined by a length-3 path whose
    interior pair is grown to one of (2,3), (3,3), (2,4), (3,4), (4,4)
    (R6, R7, R8).

Output is deterministic per (seed, target_size); |V| lands at or a
little above target_size (ripening the hubs can overshoot, never by
more than a few dozen vertices).
"""

from __future__ import annotations

from random import Random

from .builder import PlanarBuilder
from .embedding import EmbeddedGraph
from .fixtures import DODECAHEDRON_ROTATION


def _c5_graph() -> EmbeddedGraph:
    return EmbeddedGraph([[(i - 1) % 5, (i + 1) % 5] for i in range(5)])


# Largest accepted target_size: generation is still quadratic in it.
MAX_TARGET_SIZE = 10 ** 5


def gen_planar_girth5(seed: int, target_size: int) -> EmbeddedGraph:
    """Connected planar graph with girth >= 5 and |V| >= target_size."""
    if target_size < 5:
        raise ValueError("target_size must be at least 5")
    if target_size > MAX_TARGET_SIZE:
        raise ValueError(f"target_size must be at most {MAX_TARGET_SIZE}")
    rng = Random(f"planar:{seed}:{target_size}")
    if target_size == 5:
        return _c5_graph()

    if target_size >= 40 and rng.random() < 0.25:
        b = PlanarBuilder.from_graph(EmbeddedGraph(DODECAHEDRON_ROTATION))
    else:
        b = PlanarBuilder.cycle(5)

    hub_target: dict[int, int] = {}
    protected: set[frozenset[int]] = set()
    special_motifs = 0

    def eligible(v: int) -> bool:
        return b.degree(v) < hub_target.get(v, 5)

    def adjacency(v: int, w: int) -> bool:
        return w in b.rotations[v]

    def grow_at(v: int) -> bool:
        faces = [f for f in dict.fromkeys(b.faces_at(v)) if f not in b.reserved]
        rng.shuffle(faces)
        for fid in faces:
            verts = b.face_verts(fid)
            occs = [i for i, x in enumerate(verts) if x == v]
            others = [i for i, x in enumerate(verts)
                      if x != v and eligible(x)]
            if not occs or not others:
                continue
            i = rng.choice(occs)
            j = rng.choice(others)
            length = 4 if adjacency(v, verts[j]) else 3
            b.insert_path(fid, i, j, length)
            return True
        for fid in faces:
            occs = b.occurrences(fid, v)
            if occs:
                b.insert_ear(fid, rng.choice(occs), 5)
                return True
        return False

    def subdivide_random() -> None:
        edges = []
        for a in range(b.vertex_count):
            for w in b.rotations[a]:
                if a < w and frozenset((a, w)) not in protected:
                    if (b.dart_face[(a, w)] not in b.reserved
                            and b.dart_face[(w, a)] not in b.reserved):
                        edges.append((a, w))
        if edges:
            b.subdivide(*rng.choice(edges))

    def generic_path() -> None:
        ids = [f for f in sorted(b.faces) if f not in b.reserved]
        for _ in range(4):
            fid = rng.choice(ids)
            verts = b.face_verts(fid)
            idxs = [i for i, x in enumerate(verts) if eligible(x)]
            rng.shuffle(idxs)
            pair = next(((i, j) for k, i in enumerate(idxs)
                         for j in idxs[k + 1:] if verts[i] != verts[j]), None)
            if pair:
                b.insert_path(fid, pair[0], pair[1], rng.randint(4, 7))
                return

    def sponsor_bridge() -> None:
        ids = [f for f in sorted(b.faces) if f not in b.reserved]
        for _ in range(6):
            fid = rng.choice(ids)
            verts = b.face_verts(fid)
            idxs = [i for i, x in enumerate(verts)
                    if x not in hub_target and b.degree(x) <= 4]
            rng.shuffle(idxs)
            pair = next(((i, j) for k, i in enumerate(idxs) for j in idxs[k + 1:]
                         if verts[i] != verts[j]
                         and not adjacency(verts[i], verts[j])), None)
            if pair is None:
                continue
            u, w = verts[pair[0]], verts[pair[1]]
            f1, f2, (s1, s2) = b.insert_path(fid, pair[0], pair[1], 3)
            b.reserved.add(f1 if len(b.faces[f1]) <= len(b.faces[f2]) else f2)
            hub_target[u] = rng.randint(12, 14)
            hub_target[w] = rng.randint(12, 14)
            d2, d3 = rng.choice([(2, 3), (3, 3), (2, 4), (3, 4), (4, 4)])
            hub_target[s1] = d2
            hub_target[s2] = d3
            return

    def single_hub(with_partner: bool) -> None:
        cands = [v for v in range(b.vertex_count)
                 if v not in hub_target and b.degree(v) <= 4]
        if not cands:
            return
        v = rng.choice(cands)
        hub_target[v] = 12 if target_size < 90 else rng.randint(12, 14)
        if with_partner and rng.random() < 0.7:
            partners = [m for m in b.rotations[v]
                        if m not in hub_target and b.degree(m) <= 4]
            if partners:
                m = rng.choice(partners)
                hub_target[m] = rng.randint(6, 11)
                protected.add(frozenset((v, m)))

    def special_motif() -> None:
        nonlocal special_motifs
        highs = sorted(v for v, tgt in hub_target.items()
                       if tgt >= 12 and b.degree(v) >= 3)
        if not highs:
            return
        h = rng.choice(highs)
        faces = [f for f in dict.fromkeys(b.faces_at(h)) if f not in b.reserved]
        if not faces:
            return
        fid = rng.choice(faces)
        occ = rng.choice(b.occurrences(fid, h))
        cyc, _, interior = b.insert_ear(fid, occ, 5)
        b.reserved.add(cyc)
        hub_target[interior[1]] = 5
        hub_target[interior[2]] = 3
        special_motifs += 1

    designated = target_size < 50
    while b.vertex_count < target_size:
        if not designated:
            designated = True
            if target_size >= 120 and rng.random() < 0.55:
                sponsor_bridge()
            else:
                single_hub(with_partner=target_size >= 70)
            if target_size >= 150 and rng.random() < 0.5:
                single_hub(with_partner=False)
        unfinished = sorted(v for v, tgt in hub_target.items()
                            if b.degree(v) < tgt)
        r = rng.random()
        if unfinished and r < 0.6:
            grow_at(rng.choice(unfinished))
        elif r < 0.72:
            subdivide_random()
        elif (r < 0.8 and special_motifs < 2
              and target_size - b.vertex_count > 20):
            special_motif()
        else:
            generic_path()

    for _ in range(10 * target_size + 100):
        unfinished = sorted(v for v, tgt in hub_target.items()
                            if b.degree(v) < tgt)
        if not unfinished:
            break
        if not grow_at(unfinished[0]):
            raise AssertionError("hub ripening stalled")
    else:
        raise AssertionError("hub ripening did not terminate")

    graph = b.graph()
    for v in range(graph.n):
        if 6 <= graph.degree(v) <= 11:
            if not any(graph.degree(u) >= 12 for u in graph.neighbors(v)):
                raise AssertionError(
                    f"medium vertex {v} lacks a high neighbor (generator bug)")
    return graph
