"""Independent oracles the tests check the library against.

Deliberately different algorithms from the implementations under test:
girth via per-edge deletion distances, defective 2-colorability via full
enumeration of all 2^n class assignments (vectorized with numpy), the
colorer's reduction order via a full rescan of the residual graph before
every deletion (quadratic, for comparison with its worklist), face
tracing via both orbits of every face, paired and then sorted (for
comparison with the single walk in EmbeddedGraph), the exact solver as
three recursive closures (for comparison with solve_exact's loop), and
the generator's subdividable edges rebuilt from the whole builder (for
comparison with its incrementally counted pool).
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import Sequence

import numpy as np

from defcolor.colorer import (ReductionKind, ReductionStep,
                              _find_terrible_reduction)
from defcolor.coloring import (Coloring, ColoringError, SolveResult,
                               SolveStatus, validate_defects)
from defcolor.discharging import structural_thresholds
from defcolor.embedding import EmbeddedGraph


def girth_oracle(graph) -> float:
    """Shortest cycle through each edge: remove it, measure the distance."""
    best = math.inf
    for a, b in graph.edges:
        dist = {a: 0}
        queue = [a]
        head = 0
        found = None
        while head < len(queue) and found is None:
            v = queue[head]
            head += 1
            for u in graph.rotation[v]:
                if v == a and u == b:
                    continue  # the removed edge
                if u not in dist:
                    dist[u] = dist[v] + 1
                    if u == b:
                        found = dist[u]
                        break
                    queue.append(u)
        if found is not None:
            best = min(best, found + 1)
    return best


def enumerate_two_class(graph, defects) -> bool:
    """Feasibility of a (d0, d1)-coloring by checking all 2^n assignments.

    Bit set in the mask means class 0.  Only for small n.
    """
    d0, d1 = defects
    n = graph.n
    if n > 16:
        raise ValueError("enumeration oracle is for small graphs")
    adj = np.zeros(n, dtype=np.int64)
    deg = np.zeros(n, dtype=np.int64)
    for v in range(n):
        for u in graph.rotation[v]:
            adj[v] |= 1 << u
        deg[v] = graph.degree(v)
    masks = np.arange(1 << n, dtype=np.int64)
    pop = np.zeros(1 << n, dtype=np.int64)
    for bit in range(n):
        pop += (masks >> bit) & 1
    ok = np.ones(1 << n, dtype=bool)
    for v in range(n):
        in_class0 = ((masks >> v) & 1).astype(bool)
        same = pop[masks & adj[v]]
        ok &= np.where(in_class0, same <= d0, (deg[v] - same) <= d1)
    return bool(ok.any())


def enumerate_two_class_slow(graph, defects) -> bool:
    """Pure-python cross-check of the numpy oracle (tiny graphs only)."""
    n = graph.n
    for assign in itertools.product((0, 1), repeat=n):
        good = True
        for v in range(n):
            same = sum(1 for u in graph.rotation[v] if assign[u] == assign[v])
            if same > defects[assign[v]]:
                good = False
                break
        if good:
            return True
    return False


def relabeled(graph_cls, graph, perm):
    """Same embedding with vertices renamed by perm[old] = new."""
    rot: list[list[int] | None] = [None] * graph.n
    for v in range(graph.n):
        rot[perm[v]] = [perm[u] for u in graph.rotation[v]]
    twists = [(perm[u], perm[v]) for u, v in graph.twists]
    return graph_cls(rot, twists)


def reference_scan(graph, present, deg, t):
    """First reducible configuration of the residual graph (present, deg):
    scan every vertex from 0 for kind 1, then kind 2, then kind 3, then
    fall through to the colorer's kind-4 search."""
    low, _ = structural_thresholds(t)
    for v in range(graph.n):
        if v in present and deg[v] <= 1:
            return ReductionStep(ReductionKind.DEGREE_AT_MOST_ONE, (v,), {}, t)
    for u in range(graph.n):
        if u in present and deg[u] == 2:
            two = [w for w in graph.rotation[u]
                   if w in present and deg[w] == 2]
            if two:
                return ReductionStep(ReductionKind.ADJACENT_TWO_VERTICES,
                                     (u, min(two)), {}, t)
    for v in range(graph.n):
        if v in present and deg[v] <= low:
            if all(deg[u] <= low for u in graph.rotation[v] if u in present):
                return ReductionStep(ReductionKind.ALL_LOW_DEGREE_NEIGHBORS,
                                     (v,), {}, t)
    return _find_terrible_reduction(graph, present, deg, t)


def reference_steps(graph, t):
    """Steps of the reduction phase, rescanning the shrinking residual
    graph before every deletion, until it is empty or irreducible."""
    present = set(range(graph.n))
    deg = [graph.degree(v) for v in range(graph.n)]
    steps = []
    while present:
        step = reference_scan(graph, present, deg, t)
        if step is None:
            break
        steps.append(step)
        for v in step.deleted:
            present.discard(v)
            for u in graph.rotation[v]:
                if u in present:
                    deg[u] -= 1
    return steps


def reference_eligible_edges(b, protected) -> list[tuple[int, int]]:
    """The generator's subdividable edges, rebuilt from scratch: (a, w) with
    a < w, not protected and neither dart on a reserved face, in order of a
    and then of w in the rotation of a."""
    edges = []
    for a in range(b.vertex_count):
        for w in b.rotations[a]:
            if a < w and frozenset((a, w)) not in protected:
                if (b.dart_face[(a, w)] not in b.reserved
                        and b.dart_face[(w, a)] not in b.reserved):
                    edges.append((a, w))
    return edges


def reference_faces(graph) -> list[tuple[tuple[int, int], ...]]:
    """Boundary walks of the faces, as dart tuples in face-index order.

    Traces every orbit of (dart, sense) states, pairs each orbit with its
    reverse, starts each face at the least (s, u, v) state of the pair and
    sorts the faces by that state.
    """
    if not graph.edges:
        return [()]
    succ, pred = [], []
    for nbrs in graph.rotation:
        k = len(nbrs)
        succ.append({nbrs[i]: nbrs[(i + 1) % k] for i in range(k)})
        pred.append({nbrs[i]: nbrs[(i - 1) % k] for i in range(k)})

    def flip(u, v):
        return 1 if (min(u, v), max(u, v)) in graph.twists else 0

    def step(state):
        u, v, s = state
        s2 = s ^ flip(u, v)
        return (v, succ[v][u] if s2 == 0 else pred[v][u], s2)

    def key(state):
        return (state[2], state[0], state[1])

    orbit_of, orbits = {}, []
    for u, v in graph.edges:
        for a, b in ((u, v), (v, u)):
            for s in (0, 1):
                start = cur = (a, b, s)
                if start in orbit_of:
                    continue
                seq = []
                while cur not in orbit_of:
                    orbit_of[cur] = len(orbits)
                    seq.append(cur)
                    cur = step(cur)
                assert cur == start, "face walk did not close"
                orbits.append(seq)

    faces, done = [], set()
    for idx, seq in enumerate(orbits):
        if idx in done:
            continue
        u, v, s = seq[0]
        partner = orbit_of[(v, u, 1 ^ s ^ flip(u, v))]
        assert partner != idx, "orbit paired with itself"
        done.update((idx, partner))
        best = min(seq + orbits[partner], key=key)
        if best not in seq:
            seq = orbits[partner]
        k = seq.index(best)
        faces.append((key(best), seq[k:] + seq[:k]))
    faces.sort()
    return [tuple((u, v) for u, v, _ in seq) for _, seq in faces]


def reference_solve(graph: EmbeddedGraph, defects: Sequence[int],
                    budget: int = 10 ** 7) -> SolveResult:
    """The recursive exact solver that solve_exact's loop replaced.

    Depth-first over vertices in decreasing-degree order (ties by id),
    pruning as soon as some already-assigned vertex exceeds its class
    defect among assigned neighbors.  FOUND results always pass is_valid;
    INFEASIBLE means the whole search space was exhausted; UNKNOWN means
    the node budget ran out first.
    """
    if budget <= 0:
        raise ColoringError("budget must be positive")
    d = validate_defects(defects)
    r = len(d)
    n = graph.n
    order = sorted(range(n), key=lambda v: (-graph.degree(v), v))
    assign: list[int | None] = [None] * n
    same = [0] * n  # assigned same-class neighbor count
    nodes = 0

    def place(v: int, c: int) -> bool:
        cnt = 0
        for u in graph.rotation[v]:
            if assign[u] == c:
                cnt += 1
                if same[u] + 1 > d[c]:
                    return False
        if cnt > d[c]:
            return False
        assign[v] = c
        same[v] = cnt
        for u in graph.rotation[v]:
            if assign[u] == c:
                same[u] += 1
        return True

    def remove(v: int) -> None:
        c = assign[v]
        for u in graph.rotation[v]:
            if assign[u] == c:
                same[u] -= 1
        assign[v] = None
        same[v] = 0

    def dfs(i: int) -> str:
        nonlocal nodes
        if i == n:
            return "found"
        v = order[i]
        for c in range(r):
            nodes += 1
            if nodes > budget:
                return "out"
            if place(v, c):
                res = dfs(i + 1)
                if res != "none":
                    return res
                remove(v)
        return "none"

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, n + 100))
    try:
        res = dfs(0)
    finally:
        sys.setrecursionlimit(old)
    if res == "found":
        coloring = Coloring(tuple(assign), d)  # type: ignore[arg-type]
        return SolveResult(SolveStatus.FOUND, coloring, nodes)
    if res == "out":
        return SolveResult(SolveStatus.UNKNOWN, None, nodes)
    return SolveResult(SolveStatus.INFEASIBLE, None, nodes)
