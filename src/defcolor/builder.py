"""Incremental construction of rotation-system embeddings.

PlanarBuilder tracks rotations together with the current face walks so
that girth-5 planar graphs can be grown by local operations: edge
subdivision, path/chord insertion inside a face, pendant attachment,
closed ears, and handle edges (which raise the Euler genus by two).

reserve() closes a face to growth, and ``open_faces`` lists the other
face ids in ascending order.  ``touched`` collects, until a reader
clears it, each vertex that is new, was re-rotated, or lies on a face
that is reserved or dropped while reserved.  A call checks its
arguments before it changes anything and refuses a loop or a second
edge.  The builder is pure mechanism; callers are responsible for
girth-safety of the distances they pick.
"""

from __future__ import annotations

from bisect import bisect_left

from .embedding import Dart, EmbeddedGraph


class PlanarBuilder:
    def __init__(self, rotations: list[list[int]],
                 faces: dict[int, list[Dart]]) -> None:
        self.rotations = rotations
        self.faces = faces
        self.dart_face: dict[Dart, int] = {}
        for fid, walk in faces.items():
            for d in walk:
                self.dart_face[d] = fid
        self._next_face = max(faces) + 1 if faces else 0
        self.reserved: set[int] = set()
        self.open_faces = sorted(faces)
        self.touched = set(range(len(rotations)))

    # -- constructors ------------------------------------------------------

    @classmethod
    def cycle(cls, k: int) -> "PlanarBuilder":
        rot = [[(i - 1) % k, (i + 1) % k] for i in range(k)]
        inner = [(i, (i + 1) % k) for i in range(k)]
        outer = [((i + 1) % k, i) for i in reversed(range(k))]
        return cls(rot, {0: inner, 1: outer})

    @classmethod
    def from_graph(cls, graph: EmbeddedGraph) -> "PlanarBuilder":
        if graph.twists:
            raise ValueError("builder does not support twisted edges")
        rot = [list(nbrs) for nbrs in graph.rotation]
        faces = {fi: list(zip(walk, walk[1:] + walk[:1]))
                 for fi, walk in enumerate(graph.faces)}
        return cls(rot, faces)

    # -- queries -----------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.rotations)

    def degree(self, v: int) -> int:
        return len(self.rotations[v])

    def face_verts(self, fid: int) -> list[int]:
        return [d[0] for d in self.faces[fid]]

    def occurrences(self, fid: int, v: int) -> list[int]:
        return [i for i, d in enumerate(self.faces[fid]) if d[0] == v]

    def faces_at(self, v: int) -> list[int]:
        """The open faces at v, each once, in the order of v's rotation."""
        return [f for f in dict.fromkeys(self.dart_face[v, u]
                                         for u in self.rotations[v])
                if f not in self.reserved]

    def graph(self) -> EmbeddedGraph:
        return EmbeddedGraph(self.rotations)

    # -- mutation ----------------------------------------------------------

    def _new_vertex(self) -> int:
        self.rotations.append([])
        self.touched.add(len(self.rotations) - 1)
        return len(self.rotations) - 1

    def _insert_after(self, v: int, after: int, new: int) -> None:
        r = self.rotations[v]
        r.insert(r.index(after) + 1, new)
        self.touched.add(v)

    def _install(self, walk: list[Dart]) -> int:
        fid = self._next_face
        self._next_face += 1
        self.faces[fid] = walk
        self.open_faces.append(fid)
        for d in walk:
            self.dart_face[d] = fid
        return fid

    def _drop(self, fid: int) -> None:
        walk = self.faces.pop(fid)
        if fid in self.reserved:
            self.reserved.remove(fid)
            self.touched.update(d[0] for d in walk)
        else:
            del self.open_faces[bisect_left(self.open_faces, fid)]

    def reserve(self, fid: int) -> None:
        """Close face fid to growth (KeyError if there is no such face)."""
        if fid not in self.reserved:
            self.touched.update(self.face_verts(fid))
            del self.open_faces[bisect_left(self.open_faces, fid)]
            self.reserved.add(fid)

    def subdivide(self, a: int, b: int) -> int:
        """Replace edge {a, b} with a path a - m - b; returns m."""
        ra, rb = self.rotations[a], self.rotations[b]
        i, j = ra.index(b), rb.index(a)  # ValueError if {a, b} is no edge
        m = self._new_vertex()
        self.rotations[m] = [a, b]
        ra[i] = rb[j] = m
        self.touched.update((a, b))
        for x, y, mid in ((a, b, m), (b, a, m)):
            fid = self.dart_face.pop((x, y))
            walk = self.faces[fid]
            i = walk.index((x, y))
            walk[i:i + 1] = [(x, mid), (mid, y)]
            self.dart_face[(x, mid)] = fid
            self.dart_face[(mid, y)] = fid
        return m

    def insert_path(self, fid: int, i: int, j: int,
                    length: int) -> tuple[int, int, list[int]]:
        """Connect occurrences i and j on face fid by a new path.

        length >= 1 (length 1 inserts a chord).  Splits the face; returns
        (face id of the i..j side, face id of the other side, interior
        vertices).  The caller must ensure the new cycles are long enough.
        """
        walk = self.faces[fid]
        if i == j:
            raise ValueError("equal occurrences; use insert_ear")
        if i > j:
            i, j = j, i
        u, w = walk[i][0], walk[j][0]
        if length < 1 or u == w and length < 3 or (
                length == 1 and w in self.rotations[u]):
            raise ValueError("path needs length >= 1 and may make no loop "
                             "or second edge")
        self._drop(fid)
        interior = [self._new_vertex() for _ in range(length - 1)]
        chain = [u] + interior + [w]
        for k in range(1, len(chain) - 1):
            self.rotations[chain[k]] = [chain[k - 1], chain[k + 1]]
        self._insert_after(u, walk[i - 1][0], chain[1])
        self._insert_after(w, walk[j - 1][0], chain[-2])
        forward = [(chain[k], chain[k + 1]) for k in range(len(chain) - 1)]
        backward = [(b, a) for a, b in reversed(forward)]
        f1 = self._install(walk[i:j] + backward)
        f2 = self._install(walk[j:] + walk[:i] + forward)
        return f1, f2, interior

    def insert_ear(self, fid: int, i: int, length: int) -> tuple[int, int, list[int]]:
        """Attach a closed ear (cycle of the given length) at occurrence i.

        Returns (cycle face id, enlarged old face id, new vertices).
        """
        if length < 3:
            raise ValueError("ear needs length >= 3")
        walk = self.faces[fid]
        u = walk[i][0]
        self._drop(fid)
        interior = [self._new_vertex() for _ in range(length - 1)]
        chain = [u] + interior + [u]
        for k in range(1, len(chain) - 1):
            self.rotations[chain[k]] = [chain[k - 1], chain[k + 1]]
        # rotation at u: ..., prev, x_last, x_first, next, ...
        self._insert_after(u, walk[i - 1][0], chain[1])
        self._insert_after(u, walk[i - 1][0], chain[-2])
        forward = [(chain[k], chain[k + 1]) for k in range(len(chain) - 1)]
        backward = [(b, a) for a, b in reversed(forward)]
        cyc = self._install(forward)
        old = self._install(walk[:i] + backward + walk[i:])
        return cyc, old, interior

    def attach_leaf(self, fid: int, i: int) -> int:
        """Attach a pendant vertex at occurrence i of face fid."""
        walk = self.faces[fid]
        u = walk[i][0]
        self._drop(fid)
        x = self._new_vertex()
        self.rotations[x] = [u]
        self._insert_after(u, walk[i - 1][0], x)
        self._install(walk[:i] + [(u, x), (x, u)] + walk[i:])
        return x

    def attach_leaf_at(self, v: int) -> int:
        """Attach a pendant vertex at the first non-reserved face of v."""
        for u in self.rotations[v]:
            fid = self.dart_face[(v, u)]
            if fid not in self.reserved:
                return self.attach_leaf(fid, self.faces[fid].index((v, u)))
        raise ValueError(f"no non-reserved face at vertex {v}")

    def add_handle_edge(self, fid1: int, i: int, fid2: int, j: int) -> int:
        """Join occurrences on two distinct faces by an edge.

        Merges the faces into one, raising the Euler genus by two.
        """
        if fid1 == fid2:
            raise ValueError("handle edge needs two distinct faces")
        w1, w2 = self.faces[fid1], self.faces[fid2]
        u, w = w1[i][0], w2[j][0]
        if u == w or w in self.rotations[u]:
            raise ValueError("handle edge would make a loop or a second edge")
        self._drop(fid1)
        self._drop(fid2)
        self._insert_after(u, w1[i - 1][0], w)
        self._insert_after(w, w2[j - 1][0], u)
        return self._install([(u, w)] + w2[j:] + w2[:j] + [(w, u)]
                             + w1[i:] + w1[:i])
