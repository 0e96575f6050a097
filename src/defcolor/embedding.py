"""Rotation-system embeddings of simple connected graphs.

A graph together with a cyclic order of neighbors at each vertex (and an
optional set of "twisted" edges) determines a cellular embedding in a
surface.  Faces are traced from the rotation data and the Euler genus
follows from ``|V| - |E| + |F| = 2 - genus``.

The constructor numbers the darts once: dart ``offset[u] + i`` is (u,
rotation[u][i]).  The reverse of dart (u, v) is ``offset[v]`` plus the
position of u in rotation[v], found by scanning a short rotation and
through a position map in a long one, so the work is O(|V| + |E|) on any
input; the rotation system is valid when that reverse is an involution
without fixed points.  The constructor keeps the offsets, each dart's
reverse and the twisted darts for the face walk, and walks no face;
``edges``, the sorted edge tuple, is built on first read.

The face walk (_walk) runs over darts alone unless an edge is twisted:
crossing a twisted edge flips the sense of the walk, which traces
embeddings in non-orientable surfaces.

A face is its closed boundary walk, a tuple of vertex ids that goes
from ``face[k]`` to ``face[k+1]``, wrapping at the end, and may revisit
a vertex (a bridge is walked twice); its index is its position in
``faces`` and its degree is ``len(face)``.  A graph is walked once at
most and its faces are built only when read, so ``color`` at its
default t builds no face.  Every query returns the same value whenever
it is asked, and each cache is published after what it is built from,
so instances are safe to share between threads.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate, chain, pairwise
from operator import contains, ne
from typing import Iterable, Sequence


class GraphError(ValueError):
    """Base class for invalid graph construction or queries."""


class NonSimpleError(GraphError):
    """A rotation contains a loop or a repeated neighbor."""


class AsymmetricError(GraphError):
    """u lists v as a neighbor but v does not list u."""


class DisconnectedError(GraphError):
    """The graph is not connected; embeddings require one component."""


class GirthTooSmallError(GraphError):
    """The operation requires girth at least 5."""


Dart = tuple[int, int]


class EmbeddedGraph:
    """Simple connected graph with a rotation system; faces walked on demand.

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
        rot = tuple(map(tuple, rotation))
        n = len(rot)
        if n == 0:
            raise GraphError("graph must have at least one vertex")
        heads = list(chain.from_iterable(rot))
        if heads and not ({*map(type, heads)} <= {int}
                          and min(heads) >= 0 and max(heads) < n):
            _name_fault(rot)
        darts = len(heads)
        offset = list(accumulate(map(len, rot), initial=0))
        # the reverse of dart (v, u) is (u, v), at v's position in rot[u]
        where = _positions(rot)
        try:
            reverse = [offset[u] + where[u].index(v)
                       for v, nbrs in enumerate(rot) for u in nbrs]
        except (KeyError, ValueError):  # from a position map, from a scan
            _name_fault(rot)  # a dart without reverse
        # a repeated dart shares its reverse with its twin, and a loop is
        # its own reverse
        if (any(map(ne, map(reverse.__getitem__, reverse), range(darts)))
                or any(map(contains, rot, range(n)))):
            _name_fault(rot)

        twisted = bytearray(darts)
        tw = []
        for u, v in twists:
            a, b = min(u, v), max(u, v)
            if a == b or b >= n or a < 0 or b not in where[a]:
                raise GraphError(f"twist {u}-{v} is not an edge")
            d = offset[a] + where[a].index(b)
            if twisted[d]:  # two sign flips would cancel, not merge
                raise GraphError(f"twist {u}-{v} listed twice")
            twisted[d] = twisted[reverse[d]] = 1
            tw.append((heads[reverse[d]], heads[d]))  # the rotation's ids

        seen = bytearray(n)
        seen[0] = 1
        reached = [0]
        for v in reached:  # reached grows while it is walked
            for u in rot[v]:
                if not seen[u]:
                    seen[u] = 1
                    reached.append(u)
        if len(reached) != n:
            raise DisconnectedError(
                f"graph has {n - len(reached)} unreachable vertices")

        self.n = n
        self.m = darts // 2
        self.rotation = rot
        self.twists: frozenset[tuple[int, int]] = frozenset(tw)
        self._offset, self._reverse, self._twisted = offset, reverse, twisted
        self._edges: tuple[tuple[int, int], ...] | None = None
        self._short_cycle: float | None = None
        # _walk sets _walked and then _genus on the first genus or face
        # read; _build sets _corners and then _faces, the "built" flag,
        # on the first face read, and then drops _walked.
        self._walked: tuple[list[int], list[int]] | None = None
        self._genus: int | None = None
        self._corners: tuple[list[int], list[int], list[int]] | None = None
        self._faces: tuple[tuple[int, ...], ...] | None = None

    # -- basic queries ---------------------------------------------------

    def degree(self, v: int) -> int:
        if v < 0:  # a negative index would read from the end
            raise IndexError(f"vertex {v} out of range")
        return len(self.rotation[v])

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges (u, v), u < v, in sorted order; built on first read."""
        edges = self._edges
        if edges is None:
            edges = self._edges = tuple(sorted(
                (u, v) for u, nbrs in enumerate(self.rotation)
                for v in nbrs if u < v))
        return edges

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

    @property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Each face's boundary walk, in index order; built on the first
        face read.  Position k of a walk passes the corner of face[k]
        between face[k-1] and face[k+1] (see passages)."""
        if self._faces is None:
            self._build()
        return self._faces

    @property
    def genus(self) -> int:
        """Euler genus, 2 - (|V| - |E| + |F|); walks the faces, builds none."""
        if self._genus is None:
            self._walk()
        return self._genus

    def passages(self, v: int) -> tuple[tuple[int, int], ...]:
        """The (face index, position) passages through v, one per corner:
        ``passages(v)[i]`` lies between ``rotation[v][i-1]`` and
        ``rotation[v][i]``, and its face comes in along one of those edges
        and leaves along the other."""
        if v < 0:  # a negative index would read from the end
            raise IndexError(f"vertex {v} out of range")
        if self._faces is None:
            self._build()
        offset, face_of, pos_of = self._corners
        a, b = offset[v], offset[v + 1]
        return tuple(zip(face_of[a:b], pos_of[a:b]))

    # -- construction internals ------------------------------------------

    def _walk(self) -> tuple[list[int], list[int]]:
        """Walk every face once; publish the walk and the genus, and return
        the walk: every walked state in face order, and where each face ends.

        Dart ``offset[u] + i`` is (u, rotation[u][i]), as numbered by the
        constructor, which also found each dart's reverse and marked the
        twisted ones.  State ``d + darts*s`` is dart d in sense s, so a
        sense-0 state is its dart.  ``nxt`` takes a state over its edge to
        the reverse dart (v, u), in the sense that follows (flipped on a
        twisted edge), and then to the next (sense 0) or previous (sense 1)
        dart in the rotation of v.  States are tried in key order (s, u,
        v); the first unseen one is the least state of its face in either
        direction and starts it, so faces come out in index order.  Without
        twists every dart lies on one sense-0 face and each sense-1 walk is
        a sense-0 face walked backwards, so only darts are walked.  With
        twists, the states that walk a face backwards (``back``) are marked
        seen once the face is walked, and must lie on no face walked yet.
        """
        walked: list[int] = []
        ends: list[int] = []
        if not self.m:
            ends.append(0)  # a single vertex: the sphere with one empty face
        else:
            rot, reverse, offset = self.rotation, self._reverse, self._offset
            darts = len(reverse)
            nxt = list(map(_successors(offset).__getitem__, reverse))
            back = None
            if self.twists:
                pred = list(range(-1, darts - 1))
                for a, b in pairwise(offset):
                    pred[a] = b - 1
                nxt += [pred[r] + darts for r in reverse]
                back = [r + darts for r in reverse] + reverse
                for d in (d for d, t in enumerate(self._twisted) if t):
                    for table in (nxt, back):  # the edge flips the sense
                        table[d], table[d + darts] = table[d + darts], table[d]
            seen = bytearray(len(nxt))
            for base in range(0, len(nxt), darts):  # sense 0, then sense 1
                x = seen.find(0, base, base + darts)
                while x >= 0:
                    # x is the least unseen state of its sense: the states
                    # before it leave lesser vertices or are seen, so try
                    # the rest of its vertex u's states by head, in key order
                    u = bisect_right(offset, x - base) - 1
                    end = base + offset[u + 1]
                    heads = rot[u][x - base - offset[u]:]
                    for _, start in sorted(zip(heads, range(x, end))):
                        if seen[start]:
                            continue
                        begin, state = len(walked), start
                        while not seen[state]:
                            seen[state] = 1
                            walked.append(state)
                            state = nxt[state]
                        if state != start:
                            raise AssertionError("face walk did not close")
                        if back is not None:
                            for y in map(back.__getitem__, walked[begin:]):
                                if seen[y]:
                                    raise AssertionError(
                                        "face walk met its own reverse")
                                seen[y] = 1
                        ends.append(len(walked))
                    x = seen.find(0, end, base + darts)
            if len(walked) != darts:
                raise AssertionError("face degrees do not sum to 2|E|")
        genus = 2 - (self.n - self.m + len(ends))
        if genus < 0:
            raise AssertionError("face tracing produced negative genus")
        self._walked = walked, ends
        self._genus = genus
        return walked, ends

    def _build(self) -> None:
        """Cut the face walks and the corner store from the walk, check that
        each corner is passed once, and publish them, faces last; then
        drop the walk.  A state leaving by dart d came in from the
        neighbor before d in sense 0 and after d in sense 1, so it passes
        corner d or the next corner: without twists every state is a dart
        and passes its own corner."""
        walk = self._walked
        if walk is None:
            if self._faces is not None:
                return  # a racing reader built the faces and dropped the walk
            walk = self._walk()
        corners, ends = walk
        darts = len(corners)
        offset = self._offset
        if self.twists:
            corner = [*range(darts), *_successors(offset)]
            corners = list(map(corner.__getitem__, corners))
        tails = [u for u, nbrs in enumerate(self.rotation) for _ in nbrs]
        verts = tuple(map(tails.__getitem__, corners))  # corner c is at tails[c]
        face_of, pos_of = [-1] * darts, [0] * darts
        faces = []
        for index, (begin, end) in enumerate(pairwise([0, *ends])):
            faces.append(verts[begin:end])
            for pos, c in enumerate(corners[begin:end]):
                face_of[c] = index
                pos_of[c] = pos
        if -1 in face_of:
            raise AssertionError("face tracing lost a vertex passage")
        self._corners = offset, face_of, pos_of
        self._faces = tuple(faces)
        self._walked = None


_SCAN = 32  # rotations up to this long are scanned; longer ones are mapped


class _Positions(dict):
    """A long rotation's position map, read like the rotation: ``u in p``,
    and ``p.index(u)`` (a KeyError, not a ValueError, when u is absent)."""

    index = dict.__getitem__


def _positions(rot: tuple[tuple[int, ...], ...]) -> Sequence:
    """rot, with each rotation longer than _SCAN read through a position
    map, so that finding every neighbor's position costs O(|V| + |E|)."""
    if max(map(len, rot)) <= _SCAN:
        return rot
    return tuple(_Positions(zip(nbrs, range(len(nbrs)))) if len(nbrs) > _SCAN
                 else nbrs for nbrs in rot)


def _successors(offset: list[int]) -> list[int]:
    """The dart after each dart in its tail's rotation, wrapping around;
    every vertex has a dart once the graph has an edge."""
    succ = list(range(1, offset[-1] + 1))
    for a, b in pairwise(offset):
        succ[b - 1] = a
    return succ


def _name_fault(rot: tuple[tuple[int, ...], ...]) -> None:
    """Raise the first fault of a rotation system, scanning vertex by
    vertex: a neighbor id that is not a plain int (no bool) in range, a
    loop or a repeated neighbor, and then a neighbor that does not list the
    vertex back.  Returns if there is none."""
    n = len(rot)
    for v, nbrs in enumerate(rot):
        for u in nbrs:
            if type(u) is not int or not (0 <= u < n):
                raise GraphError(f"vertex {v}: neighbor id {u!r} out of range")
            if u == v:
                raise NonSimpleError(f"vertex {v} lists itself (loop)")
        if len(set(nbrs)) != len(nbrs):
            raise NonSimpleError(f"vertex {v} repeats a neighbor (multi-edge)")
    where = _positions(rot)
    for v, nbrs in enumerate(rot):
        for u in nbrs:
            if v not in where[u]:
                raise AsymmetricError(f"{v} lists {u} but {u} does not list {v}")


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


def require_girth5(graph: EmbeddedGraph, what: str) -> None:
    """Raise GirthTooSmallError naming ``what`` unless graph has girth >= 5."""
    g = graph.short_cycle
    if g < 5:
        raise GirthTooSmallError(f"{what} requires girth >= 5, got {g}")


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
