"""Small hand-built graphs exercising individual charge rules, and small
seeded random girth-5 graphs for the solver and oracle tests."""

from __future__ import annotations

from random import Random

from defcolor.builder import PlanarBuilder
from defcolor.embedding import EmbeddedGraph
from defcolor.fixtures import find_face


def _pump(b, v, target):
    while b.degree(v) < target:
        b.attach_leaf_at(v)


def r2_gadget():
    """Pentagon (a, h, b, p, q) with degrees (2, 12, 2, 5, 3) where the
    5-vertex p has a high neighbor h2 off the pentagon, plus a second
    pentagon at p that avoids both high vertices.

    p must send 3/2 to the special face, 1 to the h2-free pentagon, and
    nothing to the faces h2 sits on.  Returns (graph, special verts,
    eligible pentagon verts, p, h2).
    """
    b = PlanarBuilder.cycle(5)
    b.reserved.add(0)  # [a=0, h=1, b=2, p=3, q=4]
    h2 = b.attach_leaf_at(3)
    l1 = b.attach_leaf_at(3)
    l2 = b.attach_leaf_at(3)
    # separate pentagon p - l1 - x - y - l2 - p keeps h2 off it
    big = next(fid for fid in b.faces
               if fid not in b.reserved and l1 in b.face_verts(fid))
    i = b.occurrences(big, l1)[0]
    j = b.occurrences(big, l2)[0]
    pent, rest, (x, y) = b.insert_path(big, i, j, 3)
    small = pent if len(b.faces[pent]) == 5 else rest
    b.reserved.add(small)
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


def sponsor_gadget(d_s: int, d_t: int, w_deg: int):
    """Pentagon (h1, s, t, h2, w): h1, h2 high, so the pentagon is a
    (d_s, d_t)-sponsor of the face across the edge s-t.

    Returns (graph, sponsor face verts, s, t).
    """
    b = PlanarBuilder.cycle(5)
    b.reserved.add(0)  # [h1=0, s=1, t=2, h2=3, w=4]
    _pump(b, 1, d_s)
    _pump(b, 2, d_t)
    _pump(b, 4, w_deg)
    _pump(b, 0, 12)
    _pump(b, 3, 12)
    return b.graph(), (0, 1, 2, 3, 4), 1, 2


def sponsor_face_pair(graph, verts):
    """(sponsor face, sponsored face) for a sponsor_gadget graph."""
    f1 = find_face(graph, verts)
    other = next(f for f in graph.faces if f.index != f1.index)
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
