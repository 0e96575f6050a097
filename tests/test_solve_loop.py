"""The exact solver's loop against the recursive reference solver.

coloring.solve_exact walks the search depth in one loop and propagates
forced classes; oracles.reference_solve is the plain chronological search
as recursive closures.  Wherever the reference decides, they must agree
on status and coloring; solve_exact may decide where the reference runs
out, never the other way round, and never takes more nodes.  It decides
at a budget of exactly its node count and runs out one node short.
"""

import random
import sys

from defcolor import fixtures as fx
from defcolor.coloring import SolveStatus, is_valid, solve_exact
from defcolor.embedding import EmbeddedGraph

from oracles import reference_solve

DEFECTS = ((0,), (1,), (0, 0), (1, 1), (0, 1), (1, 10), (0, 0, 0), (1, 2, 0))
BUDGETS = (1, 2, 3, 5, 50, 10 ** 7)


def _random_connected_graph(rng: random.Random) -> EmbeddedGraph:
    """1-13 vertices: a random spanning tree plus random extra edges, each
    rotation shuffled."""
    n = rng.randint(1, 13)
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    nbrs = [[] for _ in range(n)]
    for a, b in sorted(edges):
        nbrs[a].append(b)
        nbrs[b].append(a)
    for r in nbrs:
        rng.shuffle(r)
    return EmbeddedGraph(nbrs)


def _assert_agrees(graph, defects, budget):
    """solve_exact against reference_solve at one budget: the same status
    and coloring wherever the reference decides (so UNKNOWN only where the
    reference is UNKNOWN too), and no more nodes."""
    got = solve_exact(graph, defects, budget)
    want = reference_solve(graph, defects, budget)
    if want.status is not SolveStatus.UNKNOWN:
        assert (got.status, got.coloring) == (want.status, want.coloring)
    assert got.nodes <= want.nodes
    return got


def _assert_decides_at(graph, defects, res):
    """A decided result is decided again at a budget of res.nodes and is
    UNKNOWN at res.nodes - 1; returns 1 when that lower budget exists."""
    assert _assert_agrees(graph, defects, res.nodes).status is res.status
    if res.nodes == 1:
        return 0
    assert _assert_agrees(graph, defects, res.nodes - 1).status \
        is SolveStatus.UNKNOWN
    return 1


def test_random_graphs_match_reference():
    rng = random.Random(20141)
    boundaries = 0
    for _ in range(250):
        graph = _random_connected_graph(rng)
        for defects in DEFECTS:
            full = _assert_agrees(graph, defects, BUDGETS[-1])
            assert full.status is not SolveStatus.UNKNOWN
            for budget in BUDGETS:
                res = _assert_agrees(graph, defects, budget)
                if res.status is not SolveStatus.UNKNOWN:
                    assert (res.status, res.coloring, res.nodes) == \
                        (full.status, full.coloring, full.nodes)
            boundaries += _assert_decides_at(graph, defects, full)
    assert boundaries > 1000


def test_deep_path_leaves_the_recursion_limit_alone(monkeypatch):
    def refuse(limit):
        raise AssertionError(f"solver set the recursion limit to {limit}")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    graph = fx.path_graph(5000)
    res = solve_exact(graph, (0, 0))
    assert res.status is SolveStatus.FOUND
    assert is_valid(graph, res.coloring)
