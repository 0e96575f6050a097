"""Independent oracles the tests check the library against.

Deliberately different algorithms from the implementations under test:
girth via per-edge deletion distances, defective 2-colorability via full
enumeration of all 2^n class assignments (vectorized with numpy), and the
colorer's reduction order via a full rescan of the residual graph before
every deletion (quadratic, for comparison with its worklist).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from defcolor.colorer import (ReductionKind, ReductionStep,
                              _find_terrible_reduction)
from defcolor.discharging import structural_thresholds


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
