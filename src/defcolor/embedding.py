"""Rotation-system embeddings of simple connected graphs.

A graph together with a cyclic order of neighbors at each vertex (and an
optional set of "twisted" edges) determines a cellular embedding in a
surface.  Faces are traced from the rotation data and the Euler genus
follows from ``|V| - |E| + |F| = 2 - genus``.

Faces are traced in one walk over states (u, v, s), the dart (u, v) in
sense s.  In sense 0, after dart ``(u, v)`` comes ``(v, w)`` where ``w``
follows ``u`` in the rotation of ``v``; in sense 1 ``w`` precedes it.
Crossing a twisted edge flips the sense, which traces embeddings in
non-orientable surfaces; with no twists every face is a sense-0 orbit of
the successor rule.  Each face is walked once, from its least state in
either direction, and the same walk records the face passages of every
vertex and the sides of every edge.

EmbeddedGraph instances are immutable after construction; all queries are
pure (the girth-5 gate ``short_cycle`` is computed on first use and cached),
so they are safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Sequence


class GraphError(ValueError):
    """Base class for invalid graph construction or queries."""


class NonSimpleError(GraphError):
    """A rotation contains a loop or a repeated neighbor."""


class AsymmetricError(GraphError):
    """u lists v as a neighbor but v does not list u."""


class DisconnectedError(GraphError):
    """The graph is not connected; embeddings require one component."""


class NotOnFaceError(GraphError):
    """The queried vertex does not lie on the given face."""


class GirthTooSmallError(GraphError):
    """The operation requires girth at least 5."""


Dart = tuple[int, int]


@dataclass(frozen=True)
class Face:
    """One face of an embedding, as a closed boundary walk of darts.

    ``darts[k] = (verts[k], verts[k+1])``; the walk may revisit vertices
    (a bridge contributes two darts).  ``degree`` is the walk length.
    """

    index: int
    darts: tuple[Dart, ...]
    # Set once at construction: filling them on first read would write
    # through the instance __dict__ and slow every later attribute read.
    verts: tuple[int, ...] = field(init=False, compare=False)
    vert_set: frozenset[int] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        verts = tuple(map(itemgetter(0), self.darts))
        object.__setattr__(self, "verts", verts)
        object.__setattr__(self, "vert_set", frozenset(verts))

    @property
    def degree(self) -> int:
        return len(self.darts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Face({self.index}, {'-'.join(map(str, self.verts))})"


class EmbeddedGraph:
    """Simple connected graph with a rotation system and traced faces.

    Parameters
    ----------
    rotation:
        One cyclic neighbor sequence per vertex, vertices named 0..n-1.
    twists:
        Optional edges carrying a sign flip (as (u, v) pairs).  An empty
        set gives an orientable embedding.
    """

    def __init__(self, rotation: Sequence[Sequence[int]],
                 twists: Iterable[tuple[int, int]] = ()) -> None:
        rot = tuple(tuple(nbrs) for nbrs in rotation)
        n = len(rot)
        if n == 0:
            raise GraphError("graph must have at least one vertex")
        for v, nbrs in enumerate(rot):
            for u in nbrs:
                if not isinstance(u, int) or not (0 <= u < n):
                    raise GraphError(f"vertex {v}: neighbor id {u!r} out of range")
                if u == v:
                    raise NonSimpleError(f"vertex {v} lists itself (loop)")
            if len(set(nbrs)) != len(nbrs):
                raise NonSimpleError(f"vertex {v} repeats a neighbor (multi-edge)")
        nbr_sets = tuple(frozenset(nbrs) for nbrs in rot)
        for v, nbrs in enumerate(rot):
            for u in nbrs:
                if v not in nbr_sets[u]:
                    raise AsymmetricError(f"{v} lists {u} but {u} does not list {v}")

        self.n = n
        self.rotation = rot
        self.edges: tuple[tuple[int, int], ...] = tuple(
            sorted((v, u) for v in range(n) for u in rot[v] if v < u))

        tw = set()
        for u, v in twists:
            e = (min(u, v), max(u, v))
            if e[0] == e[1] or e[1] >= n or e[0] < 0 or e[1] not in nbr_sets[e[0]]:
                raise GraphError(f"twist {u}-{v} is not an edge")
            tw.add(e)
        self.twists: frozenset[tuple[int, int]] = frozenset(tw)

        self._check_connected()
        self.faces, self._passages, self._sides = self._trace_faces()
        self.genus: int = 2 - (self.n - len(self.edges) + len(self.faces))
        self._short_cycle: float | None = None
        if self.genus < 0:
            raise AssertionError("face tracing produced negative genus")
        for v in range(n):
            if len(self._passages[v]) != len(rot[v]):
                raise AssertionError("face tracing lost a vertex passage")

    # -- basic queries ---------------------------------------------------

    def degree(self, v: int) -> int:
        return len(self.rotation[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in rotation order."""
        return self.rotation[v]

    @property
    def short_cycle(self) -> float:
        """The girth-5 gate: the girth when it is below 5, else math.inf.

        Computed once as ``girth(self, below=5)``.  Cached in an attribute
        set by __init__ rather than by cached_property, whose write through
        __dict__ slows every later attribute read.
        """
        if self._short_cycle is None:
            self._short_cycle = girth(self, below=5)
        return self._short_cycle

    def passages(self, v: int) -> tuple[tuple[int, int], ...]:
        """All (face index, position) boundary passages through v.

        A vertex has exactly degree(v) passages, counted with multiplicity.
        """
        return self._passages[v]

    def edge_sides(self, u: int, v: int) -> tuple[tuple[int, int], ...]:
        """The two (face, position) sides of edge {u, v}: those walking the
        dart (u, v) first, then those walking (v, u)."""
        return (tuple(self._sides.get((u, v), ()))
                + tuple(self._sides.get((v, u), ())))

    # -- construction internals ------------------------------------------

    def _check_connected(self) -> None:
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in self.rotation[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != self.n:
            raise DisconnectedError(
                f"graph has {self.n - len(seen)} unreachable vertices")

    def _trace_faces(self) -> tuple[tuple[Face, ...],
                                    tuple[tuple[tuple[int, int], ...], ...],
                                    dict[Dart, list[tuple[int, int]]]]:
        """Walk every face once; return the faces, passages and dart sides.

        A walk state (u, v, s) is the dart (u, v) traversed in sense s:
        sense 0 continues with the successor of u in the rotation of v,
        sense 1 with its predecessor, and a twisted edge flips the sense.
        Walking a face backwards visits the states (v, u, 1 ^ s ^ flip)
        of its forward states, so the walk marks both as seen.  States
        are tried in key order (s, u, v); the first unseen one is the
        least state of its face in either direction and starts it.  Faces
        therefore come out in index order, and each (face, position) is
        appended to the passages of its tail and the sides of its dart as
        the walk reaches it.  A walk that met its own reverse would stop
        at a seen state short of its start and fail the closing check.
        """
        n = self.n
        passages: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        sides: dict[Dart, list[tuple[int, int]]] = {}
        if not self.edges:
            # A single vertex embeds in the sphere with one face.
            return (Face(0, ()),), ((),), sides

        succ: list[dict[int, int]] = []
        pred: list[dict[int, int]] = []
        for nbrs in self.rotation:
            k = len(nbrs)
            succ.append({nbrs[i]: nbrs[(i + 1) % k] for i in range(k)})
            pred.append({nbrs[i]: nbrs[(i - 1) % k] for i in range(k)})
        twisted = {d for u, v in self.twists for d in ((u, v), (v, u))}

        seen: set[tuple[int, int, int]] = set()
        faces: list[Face] = []
        for s0 in (0, 1):
            for u0 in range(n):
                for v0 in sorted(self.rotation[u0]):
                    start = (u0, v0, s0)
                    if start in seen:
                        continue
                    index = len(faces)
                    darts: list[Dart] = []
                    state = start
                    while state not in seen:
                        u, v, s = state
                        flip = 1 if (u, v) in twisted else 0
                        seen.add(state)
                        seen.add((v, u, 1 ^ s ^ flip))
                        side = (index, len(darts))
                        passages[u].append(side)
                        sides.setdefault((u, v), []).append(side)
                        darts.append((u, v))
                        s ^= flip
                        state = (v, succ[v][u] if s == 0 else pred[v][u], s)
                    if state != start:
                        raise AssertionError("face walk did not close")
                    faces.append(Face(index, tuple(darts)))

        if sum(f.degree for f in faces) != 2 * len(self.edges):
            raise AssertionError("face degrees do not sum to 2|E|")
        return tuple(faces), tuple(map(tuple, passages)), sides

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EmbeddedGraph(n={self.n}, m={len(self.edges)}, "
                f"f={len(self.faces)}, genus={self.genus})")


def build_graph(rotation: Sequence[Sequence[int]],
                twists: Iterable[tuple[int, int]] = ()) -> EmbeddedGraph:
    """Validate a rotation spec and trace its faces and genus.

    Raises NonSimpleError, AsymmetricError or DisconnectedError on bad input.
    """
    return EmbeddedGraph(rotation, twists)


def euler_genus(graph: EmbeddedGraph) -> int:
    """Euler genus of the embedding: 2 - (|V| - |E| + |F|)."""
    return graph.genus


def girth(graph: EmbeddedGraph, below: float = math.inf) -> float:
    """Length of a shortest cycle shorter than ``below``; math.inf if none.

    With the default bound this is the exact girth (math.inf when the graph
    is acyclic).  A BFS runs from each vertex in turn, and each BFS stops at
    the first depth d with 2d + 1 >= best: a cycle first seen from depth d
    has length at least 2d + 1, since an edge back to depth d - 1 was
    already seen from there.  So ``below=5`` scans depths 0 and 1 only, in
    O(sum of deg^2).  After its BFS a source is deleted, and so is every
    vertex left with degree <= 1, which lies on no cycle.  This stays
    exact: the first source on a shortest cycle sees that cycle intact,
    and every cycle of what remains is a cycle of the graph.  A long cycle
    or a tree therefore costs O(n + m).  Recomputes on every call;
    graph.short_cycle caches the girth-5 gate.
    """
    best = below
    rotation = graph.rotation
    degree = [len(nbrs) for nbrs in rotation]
    gone = [False] * graph.n
    dist = [-1] * graph.n
    parent = [-1] * graph.n
    doomed = [v for v in range(graph.n) if degree[v] <= 1]
    for src in range(graph.n):
        while doomed:
            v = doomed.pop()
            if not gone[v]:
                gone[v] = True
                for u in rotation[v]:
                    degree[u] -= 1
                    if degree[u] == 1:
                        doomed.append(u)
        if gone[src]:
            continue
        dist[src], parent[src] = 0, -1
        queue = [src]
        for v in queue:
            dv = dist[v]
            if 2 * dv + 1 >= best:
                break
            for u in rotation[v]:
                if gone[u]:
                    continue
                if dist[u] < 0:
                    dist[u] = dv + 1
                    parent[u] = v
                    queue.append(u)
                elif u != parent[v] and dv + dist[u] + 1 < best:
                    best = dv + dist[u] + 1
        for v in queue:
            dist[v] = -1
        doomed.append(src)
    return best if best < below else math.inf


def f_external_neighbors(graph: EmbeddedGraph, v: int, face: Face) -> list[int]:
    """Neighbors of v that do not appear on the boundary walk of face."""
    if v not in face.vert_set:
        raise NotOnFaceError(f"vertex {v} is not on face {face.index}")
    return [u for u in graph.rotation[v] if u not in face.vert_set]


def induced_embedding(graph: EmbeddedGraph,
                      vertices: Iterable[int]) -> tuple[EmbeddedGraph, dict[int, int]]:
    """Embedded subgraph induced by a connected vertex set.

    Rotation order of surviving neighbors is preserved, so the result is
    the embedding obtained by deleting the other vertices.  Returns the
    new graph and the old-id -> new-id map.
    """
    keep = sorted(set(vertices))
    remap = {old: new for new, old in enumerate(keep)}
    rotation = []
    for old in keep:
        rotation.append([remap[u] for u in graph.rotation[old] if u in remap])
    twists = [(remap[u], remap[v]) for u, v in graph.twists
              if u in remap and v in remap]
    return EmbeddedGraph(rotation, twists), remap
