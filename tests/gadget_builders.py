"""Small hand-built graphs exercising individual charge rules and the
colorer's re-offer triggers, small seeded random girth-5 graphs for the
solver and oracle tests, long-girth shapes (cycles, paths, trees,
chorded cycles of Euler genus 2 and 3) for the colorer at t > 10, a
projective-plane incidence graph that none of the colorer's reductions
can shrink, and the tripod lattice, whose torus form breaks no lemma at
t = 10 and whose planar patches need more than (1, 1) colors."""

from __future__ import annotations

from random import Random

from defcolor.builder import PlanarBuilder
from defcolor.embedding import EmbeddedGraph
from defcolor.fixtures import DODECAHEDRON_ROTATION, _pump, find_face


def r2_gadget():
    """Pentagon (a, h, b, p, q) with degrees (2, 12, 2, 5, 3) where the
    5-vertex p has a high neighbor h2 off the pentagon, plus a second
    pentagon at p that avoids both high vertices.

    p must send 3/2 to the special face, 1 to the h2-free pentagon, and
    nothing to the faces h2 sits on.  Returns (graph, special verts,
    eligible pentagon verts, p, h2).
    """
    b = PlanarBuilder.cycle(5)
    b.reserve(0)  # [a=0, h=1, b=2, p=3, q=4]
    h2 = b.attach_leaf_at(3)
    l1 = b.attach_leaf_at(3)
    l2 = b.attach_leaf_at(3)
    # separate pentagon p - l1 - x - y - l2 - p keeps h2 off it
    big = next(fid for fid in b.open_faces if l1 in b.face_verts(fid))
    i = b.occurrences(big, l1)[0]
    j = b.occurrences(big, l2)[0]
    pent, rest, (x, y) = b.insert_path(big, i, j, 3)
    small = pent if len(b.faces[pent]) == 5 else rest
    b.reserve(small)
    _pump(b, 1, 12)
    _pump(b, h2, 12)
    _pump(b, 4, 3)
    g = b.graph()
    return g, (0, 1, 2, 3, 4), tuple(v[0] for v in b.faces[small]), 3, h2


def r3_gadget(eligible_pentagon: bool = True):
    """Degree-6 vertex m adjacent to a high vertex h on a pentagon.

    With eligible_pentagon a second pentagon at m avoids h, so R3 fires
    there with the full initial charge 6; without it every face of m
    carries h and m sends nothing.  Returns (graph, m, h).
    """
    b = PlanarBuilder.cycle(5)  # [m=0, h=1, x=2, y=3, z=4]
    l1 = b.attach_leaf_at(0)
    l2 = b.attach_leaf_at(0)
    if eligible_pentagon:
        big = next(fid for fid in b.faces if l1 in b.face_verts(fid))
        i = b.occurrences(big, l1)[0]
        j = b.occurrences(big, l2)[0]
        b.insert_path(big, i, j, 3)
    else:
        b.attach_leaf_at(l1)
        b.attach_leaf_at(l2)
    _pump(b, 0, 6)
    _pump(b, 1, 12)
    return b.graph(), 0, 1


def triple_special_gadget():
    """A 5-vertex p on three Special faces (2, 12, 2, 5, 3) in a row:
    (p, n0, h0, a0, n1), (p, n1, a1, h1, n2) and (p, n2, h1, a2, n3).

    The 3-vertex n1 and the 2-vertex n2 each lie on two of them, and h1
    on the last two; p's fifth neighbor and n3's third are leaves.
    Returns (graph, p).
    """
    b = PlanarBuilder.cycle(5)  # [p=0, n0=1, h0=2, a0=3, n1=4]
    b.reserve(0)
    outer = 1
    five, outer, (_, h1, _) = b.insert_path(
        outer, b.occurrences(outer, 4)[0], b.occurrences(outer, 0)[0], 4)
    b.reserve(five)
    five, _, (n3, _) = b.insert_path(
        outer, b.occurrences(outer, h1)[0], b.occurrences(outer, 0)[0], 3)
    b.reserve(five)
    b.attach_leaf_at(n3)
    b.attach_leaf_at(0)
    _pump(b, 2, 12)
    _pump(b, h1, 12)
    return b.graph(), 0


def sponsor_gadget(d_s: int, d_t: int, w_deg: int):
    """Pentagon (h1, s, t, h2, w): h1, h2 high, so the pentagon is a
    (d_s, d_t)-sponsor of the face across the edge s-t.

    Returns (graph, sponsor face verts, s, t).
    """
    b = PlanarBuilder.cycle(5)
    b.reserve(0)  # [h1=0, s=1, t=2, h2=3, w=4]
    _pump(b, 1, d_s)
    _pump(b, 2, d_t)
    _pump(b, 4, w_deg)
    _pump(b, 0, 12)
    _pump(b, 3, 12)
    return b.graph(), (0, 1, 2, 3, 4), 1, 2


def twisted_sponsor_gadget():
    """sponsor_gadget(3, 3, 2) with its sponsor edge s-t twisted, so that
    both faces on it walk it from t to s.

    The embedding is the same sphere, switched at s: the rotation of s is
    reversed and every edge at s twisted.  A leaf of h2 is renamed 0, so
    the walk starts the outer face there, outside the switch, and the
    pentagon at s, inside it.  Returns (graph, s, t).
    """
    g, _, s, t = sponsor_gadget(3, 3, 2)
    leaf = next(u for u in g.rotation[3] if g.degree(u) == 1)
    perm = list(range(g.n))
    perm[0], perm[leaf] = leaf, 0
    rot = [None] * g.n
    for v, nbrs in enumerate(g.rotation):
        rot[perm[v]] = [perm[u] for u in nbrs]
    rot[s].reverse()
    return EmbeddedGraph(rot, [(s, u) for u in rot[s]]), s, t


def sponsor_face_pair(graph, verts):
    """(sponsor face, sponsored face) indices for a sponsor_gadget graph."""
    f1 = find_face(graph, verts)
    other = next(fi for fi in range(len(graph.faces)) if fi != f1)
    return f1, other


def gen_girth5_small(seed: int, n: int) -> EmbeddedGraph:
    """Small random connected girth->=5 graph (arbitrary rotation order).

    Used as solver/oracle test input; the embedding carries no meaning.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = Random(f"small:{seed}:{n}")
    nbrs: list[list[int]] = [[] for _ in range(n)]

    def dist_at_least(a: int, c: int, k: int) -> bool:
        # BFS from a, stopping at depth k - 1
        dist = {a: 0}
        frontier = [a]
        while frontier:
            nxt = []
            for v in frontier:
                if dist[v] >= k - 1:
                    continue
                for u in nbrs[v]:
                    if u not in dist:
                        if u == c:
                            return False
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        return True

    for i in range(1, n):
        p = rng.randrange(i)
        nbrs[i].append(p)
        nbrs[p].append(i)
    for _ in range(2 * n):
        a = rng.randrange(n)
        c = rng.randrange(n)
        if a == c or c in nbrs[a]:
            continue
        if dist_at_least(a, c, 4):
            nbrs[a].append(c)
            nbrs[c].append(a)
    return EmbeddedGraph(nbrs)


# -- gate-heavy shapes: long girth, t = capacity(genus) up to 15 --------------


def long_cycle(n: int) -> EmbeddedGraph:
    return EmbeddedGraph([[(i - 1) % n, (i + 1) % n] for i in range(n)])


def random_tree(seed: int, n: int) -> EmbeddedGraph:
    """Random recursive tree: vertex i hangs from a uniform earlier one."""
    rng = Random(f"tree:{seed}:{n}")
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        p = rng.randrange(i)
        nbrs[i].append(p)
        nbrs[p].append(i)
    return EmbeddedGraph(nbrs)


def chorded_cycle(seed: int, n: int, chords: int,
                  twisted: bool = False) -> EmbeddedGraph:
    """C_n plus mutually crossing chords a -> a + n/2, each inserted on the
    same side of the cycle at both ends, endpoints jittered by the seed.

    Two chords give Euler genus 2; three with the first chord twisted give
    non-orientable genus 3.  The girth is about n / chords.
    """
    rng = Random(f"chords:{seed}:{n}:{chords}")
    rot = [[(i - 1) % n, (i + 1) % n] for i in range(n)]
    step = n // (2 * chords)
    ends = []
    for j in range(chords):
        a = j * step + rng.randrange(max(1, step // 8))
        rot[a].insert(1, a + n // 2)
        rot[a + n // 2].insert(1, a)
        ends.append((a, a + n // 2))
    return EmbeddedGraph(rot, ends[:1] if twisted else [])


def projective_plane_incidence(q: int, pendants: tuple[int, ...] = ()
                               ) -> EmbeddedGraph:
    """Point-line incidence graph of PG(2, q), q prime, plus pendant paths.

    Points are 0 .. q^2 + q and lines the next q^2 + q + 1 ids, each point
    a normalized triple, incident when their dot product is 0 mod q.  The
    graph is (q + 1)-regular with girth 6, and each rotation lists
    neighbors in id order.  pendants[i] hangs a path of that many new
    vertices on point i.
    """
    pts = ([(1, a, b) for a in range(q) for b in range(q)]
           + [(0, 1, a) for a in range(q)] + [(0, 0, 1)])
    n = len(pts)
    rot: list[list[int]] = [[] for _ in range(2 * n)]
    for li, line in enumerate(pts):
        for pi, pt in enumerate(pts):
            if sum(x * y for x, y in zip(line, pt)) % q == 0:
                rot[pi].append(n + li)
                rot[n + li].append(pi)
    for i, length in enumerate(pendants):
        prev = i
        for _ in range(length):
            rot.append([prev])
            rot[prev].append(len(rot) - 1)
            prev = len(rot) - 1
    return EmbeddedGraph(rot)


# -- one graph per re-offer trigger of the colorer's worklist ----------------


def two_trigger_gadget() -> EmbeddedGraph:
    """Dodecahedron with one edge a-b subdivided twice, a - u - w - b, and a
    leaf on u; w = 20 < u = 21.

    The leaf goes first (kind 1).  That drops u to degree 2, which makes
    w, a vertex away from the leaf, the smallest kind-2 witness: the next
    step deletes (w, u) only if w was offered when u's degree became 2.
    """
    rot = [list(nbrs) for nbrs in DODECAHEDRON_ROTATION]
    a = 0
    b = rot[a][0]
    w, u, leaf = 20, 21, 22
    rot[a][0] = u
    rot[b][rot[b].index(a)] = w
    rot += [[u, b], [a, w, leaf], [u]]
    return EmbeddedGraph(rot)


def low_trigger_gadget() -> EmbeddedGraph:
    """Subdivided wheel: hub h = 22 with spokes h - x_i - y_i (x_i = i,
    y_i = 11 + i, i < 11), rim y_0 ... y_10, and a leaf 23 on h.

    At t = 10 (low = 11) h has degree 12, so no x_i is all-low.  The leaf
    goes first (kind 1) and drops h to 11, which makes every x_i, two
    vertices away from the leaf, a kind-3 witness: the next step deletes
    x_0 = 0 only if the x_i were offered when h's degree became low.
    """
    k = 11
    hub, leaf = 2 * k, 2 * k + 1
    rot = [[hub, k + i] for i in range(k)]
    rot += [[i, k + (i - 1) % k, k + (i + 1) % k] for i in range(k)]
    rot.append(list(range(k)) + [leaf])
    rot.append([hub])
    return EmbeddedGraph(rot)


# -- reducibility configurations ----------------------------------------------


def all_low_gadget(t: int):
    """Pentagon (v, a, x, y, b) with a third neighbor c of v carrying one
    leaf: a has t - 1 leaves, so it is low (degree t + 1) and can be
    saturated in the big class without v; b has t - 2 and can never be.
    v is low with all neighbors low: a kind-3 witness at threshold t.

    Returns (graph, v).
    """
    b = PlanarBuilder.cycle(5)
    c = b.attach_leaf_at(0)
    b.attach_leaf_at(c)
    _pump(b, 1, t + 1)
    _pump(b, 4, t)
    return b.graph(), 0


# -- the tripod lattice: every lemma holds at t = 10 ---------------------------

# the triangular lattice's directions, counter-clockwise
_LATTICE_DIRS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


def _tripod_graph(hubs, wrap) -> EmbeddedGraph:
    """The triangular lattice on ``hubs`` with each lattice edge subdivided
    once and a tripod in each triangle, keeping only the edges and
    triangles whose ends ``wrap`` maps into ``hubs``.

    A tripod is a 3-vertex y joined directly to the first corner of the
    triangle's counter-clockwise triple and through a new 2-vertex to the
    other two; y lists the three in that order.  A hub's rotation takes
    the directions counter-clockwise, each direction's edge 2-vertex
    followed by the hub's tripod neighbour in the triangle before the
    next direction, skipping absent items.
    """
    index = {h: k for k, h in enumerate(hubs)}
    rot: list[list[int]] = [[] for _ in hubs]

    def hub(i, j):
        return index.get(wrap(i, j))

    def new(*nbrs):
        rot.append(list(nbrs))
        return len(rot) - 1

    edge = {}
    for i, j in hubs:
        u = hub(i, j)
        for di, dj in _LATTICE_DIRS[:3]:
            w = hub(i + di, j + dj)
            if w is not None:
                edge[u, w] = edge[w, u] = new(u, w)
    leg = {}  # (hub, corner set) -> the hub's neighbour in that tripod
    for i, j in hubs:
        for tri in (((i, j), (i + 1, j), (i, j + 1)),
                    ((i + 1, j), (i + 1, j + 1), (i, j + 1))):
            c = [hub(*p) for p in tri]
            if None in c:
                continue
            y = new()
            rot[y] = [c[0], new(y, c[1]), new(y, c[2])]
            for corner, x in zip(c, (y, *rot[y][1:])):
                leg[corner, frozenset(c)] = x
    for i, j in hubs:
        v = hub(i, j)
        nbrs = [hub(i + di, j + dj) for di, dj in _LATTICE_DIRS]
        for a, b in zip(nbrs, nbrs[1:] + nbrs[:1]):
            if a is not None:
                rot[v].append(edge[v, a])
                if b is not None:
                    rot[v].append(leg[v, frozenset((v, a, b))])
    return EmbeddedGraph(rot)


def tripod_lattice(a: int, b: int) -> EmbeddedGraph:
    """The tripod lattice on the a x b torus: 10 vertices per hub, hubs of
    degree 12, Euler genus 2 and girth 5 (for a, b >= 3)."""
    return _tripod_graph([(i, j) for i in range(a) for j in range(b)],
                         lambda i, j: (i % a, j % b))


def tripod_patch(a: int) -> EmbeddedGraph:
    """The planar a x a parallelogram patch of the tripod lattice: hubs at
    (i, j) in [0, a)^2 and only the edges and triangles inside it."""
    return _tripod_graph([(i, j) for i in range(a) for j in range(a)],
                         lambda i, j: (i, j))
