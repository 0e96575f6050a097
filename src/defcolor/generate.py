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

import operator
from collections.abc import Callable
from random import Random

from .builder import PlanarBuilder
from .discharging import HIGH_DEGREE
from .embedding import EmbeddedGraph
from .fixtures import c5, dodecahedron


# Largest accepted target_size.  Generation is near-linear in it; the cap
# keeps a mistyped size from running for minutes.
MAX_TARGET_SIZE = 10 ** 5


class _EdgePool:
    """The eligible edges of a PlanarBuilder, as a sequence kept current.

    An edge (a, w) is eligible if a < w, it is not protected, and neither
    dart lies on a reserved face.  The sequence orders the eligible edges
    by a and then by w in the rotation of a.  The order is part of the
    output: for a given seed ``rng.choice(pool)`` must pick the edge it
    always picked, or every generated graph changes.  ``count[a]`` holds
    the number of eligible edges at a, summed in a Fenwick tree ``tree``
    (1-based).  Before each lookup the pool recounts the vertices in the
    builder's ``touched`` set and clears it.
    """

    def __init__(self, b: PlanarBuilder) -> None:
        self.b = b
        self.protected: set[frozenset[int]] = set()
        self.count: list[int] = []
        self.tree = [0]
        self.total = 0

    def _edges_at(self, a: int) -> list[int]:
        """The w of the eligible edges (a, w), in the rotation of a."""
        dart_face, reserved = self.b.dart_face, self.b.reserved
        return [w for w in self.b.rotations[a]
                if a < w and frozenset((a, w)) not in self.protected
                and dart_face[(a, w)] not in reserved
                and dart_face[(w, a)] not in reserved]

    def _flush(self) -> None:
        count, tree = self.count, self.tree
        while len(count) < self.b.vertex_count:
            count.append(0)
            i = len(count)
            node, step = 0, 1
            while step < i & -i:
                node += tree[i - step]
                step <<= 1
            tree.append(node)
        for a in self.b.touched:
            delta = len(self._edges_at(a)) - count[a]
            if delta:
                count[a] += delta
                self.total += delta
                i = a + 1
                while i < len(tree):
                    tree[i] += delta
                    i += i & -i
        self.b.touched.clear()

    def __len__(self) -> int:
        self._flush()
        return self.total

    def __getitem__(self, k: int) -> tuple[int, int]:
        if not 0 <= k < len(self):
            raise IndexError(k)
        tree, a = self.tree, 0
        step = 1 << (len(tree) - 1).bit_length()
        while step:
            if a + step < len(tree) and tree[a + step] <= k:
                a += step
                k -= tree[a]
            step >>= 1
        return a, self._edges_at(a)[k]

    def protect(self, v: int, w: int) -> None:
        self.protected.add(frozenset((v, w)))
        self.b.touched.update((v, w))


def gen_planar_girth5(seed: int, target_size: int) -> EmbeddedGraph:
    """Connected planar graph with girth >= 5 and |V| >= target_size, an
    integer from 5 to MAX_TARGET_SIZE."""
    try:
        target_size = operator.index(target_size)
    except TypeError:
        raise ValueError(
            f"target_size must be an integer, got {target_size!r}") from None
    if target_size < 5:
        raise ValueError("target_size must be at least 5")
    if target_size > MAX_TARGET_SIZE:
        raise ValueError(f"target_size must be at most {MAX_TARGET_SIZE}")
    rng = Random(f"planar:{seed}:{target_size}")
    if target_size == 5:
        return c5()

    if target_size >= 40 and rng.random() < 0.25:
        b = PlanarBuilder.from_graph(dodecahedron())
    else:
        b = PlanarBuilder.cycle(5)
    pool = _EdgePool(b)
    hub_target: dict[int, int] = {}

    def eligible(v: int) -> bool:  # may still gain an edge
        return b.degree(v) < hub_target.get(v, 5)

    def free(v: int) -> bool:  # may become a hub
        return v not in hub_target and b.degree(v) <= 4

    def unfinished() -> list[int]:
        return sorted(v for v, tgt in hub_target.items() if b.degree(v) < tgt)

    def ear(fid: int, v: int) -> tuple[int, int, list[int]]:
        return b.insert_ear(fid, rng.choice(b.occurrences(fid, v)), 5)

    def face_pair(tries: int, ok: Callable[[int], bool],
                  far: bool) -> tuple[int, int, int] | None:
        """(fid, i, j): a random open face and the first pair, in a shuffle
        of the positions of its vertices that pass ok, of two distinct
        vertices, non-adjacent if far.  None if `tries` faces have none."""
        for _ in range(tries):
            fid = rng.choice(b.open_faces)
            verts = b.face_verts(fid)
            idxs = [i for i, x in enumerate(verts) if ok(x)]
            rng.shuffle(idxs)
            for k, i in enumerate(idxs):
                for j in idxs[k + 1:]:
                    if verts[i] != verts[j] and not (
                            far and verts[j] in b.rotations[verts[i]]):
                        return fid, i, j
        return None

    def grow_at(v: int) -> bool:
        """Add edges at v: a path from v to an eligible vertex on one of
        its open faces, or else an ear on the first of them.  False if v
        has no open face."""
        faces = b.faces_at(v)
        rng.shuffle(faces)
        for fid in faces:
            verts = b.face_verts(fid)
            others = [j for j, x in enumerate(verts) if x != v and eligible(x)]
            if others:
                i = rng.choice(b.occurrences(fid, v))
                j = rng.choice(others)
                length = 4 if verts[j] in b.rotations[v] else 3
                b.insert_path(fid, i, j, length)
                return True
        if faces:
            ear(faces[0], v)
        return bool(faces)

    def sponsor_bridge() -> None:
        found = face_pair(6, free, far=True)
        if found:
            fid, i, j = found
            u, w = b.faces[fid][i][0], b.faces[fid][j][0]
            f1, f2, (s1, s2) = b.insert_path(fid, i, j, 3)
            b.reserve(f1 if len(b.faces[f1]) <= len(b.faces[f2]) else f2)
            hub_target[u] = rng.randint(HIGH_DEGREE, HIGH_DEGREE + 2)
            hub_target[w] = rng.randint(HIGH_DEGREE, HIGH_DEGREE + 2)
            hub_target[s1], hub_target[s2] = rng.choice(
                [(2, 3), (3, 3), (2, 4), (3, 4), (4, 4)])

    def single_hub(with_partner: bool) -> None:
        # Runs only before growth, while at least three vertices are free,
        # and with_partner only while no target is set, when every
        # neighbor of v is free.
        v = rng.choice([v for v in range(b.vertex_count) if free(v)])
        hub_target[v] = (HIGH_DEGREE if target_size < 90
                         else rng.randint(HIGH_DEGREE, HIGH_DEGREE + 2))
        if with_partner and rng.random() < 0.7:
            m = rng.choice([m for m in b.rotations[v] if free(m)])
            hub_target[m] = rng.randint(6, HIGH_DEGREE - 1)
            pool.protect(v, m)

    def special_motif() -> bool:
        """Install R2's reserved pentagon (2, high, 2, 5, 3) as an ear at a
        random high hub; False if there is none to take it."""
        highs = sorted(v for v, tgt in hub_target.items()
                       if tgt >= HIGH_DEGREE and b.degree(v) >= 3)
        if not highs:
            return False
        h = rng.choice(highs)
        faces = b.faces_at(h)
        if not faces:
            return False
        cyc, _, interior = ear(rng.choice(faces), h)
        b.reserve(cyc)
        hub_target[interior[1]] = 5
        hub_target[interior[2]] = 3
        return True

    if target_size >= 50:
        if target_size >= 120 and rng.random() < 0.55:
            sponsor_bridge()
        else:
            single_hub(with_partner=target_size >= 70)
        if target_size >= 150 and rng.random() < 0.5:
            single_hub(with_partner=False)
    special_motifs = 0
    while b.vertex_count < target_size:
        hubs = unfinished()
        r = rng.random()
        if hubs and r < 0.6:
            grow_at(rng.choice(hubs))
        elif r < 0.72:
            if pool:
                b.subdivide(*rng.choice(pool))
        elif (r < 0.8 and special_motifs < 2
              and target_size - b.vertex_count > 20):
            special_motifs += special_motif()
        else:
            found = face_pair(4, eligible, far=False)
            if found:
                b.insert_path(*found, rng.randint(4, 7))

    # Each grow_at raises the degree of hubs[0] and lowers none, so the
    # hubs' total shortfall falls on every pass and ripening ends.
    while hubs := unfinished():
        if not grow_at(hubs[0]):
            raise AssertionError("hub ripening stalled")

    graph = b.graph()
    for v in range(graph.n):
        if 6 <= graph.degree(v) < HIGH_DEGREE and not any(
                graph.degree(u) >= HIGH_DEGREE for u in graph.rotation[v]):
            raise AssertionError(
                f"medium vertex {v} lacks a high neighbor (generator bug)")
    return graph
