"""The exact solver's loop against the recursive reference solver.

coloring.solve_exact walks the search depth in one loop;
oracles.reference_solve is the same search as recursive closures.  On
every input they must agree on status, coloring and node count, also at
the budgets where the search only just finishes or only just runs out.
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


def _assert_same(graph, defects, budget):
    got = solve_exact(graph, defects, budget)
    want = reference_solve(graph, defects, budget)
    assert (got.status, got.coloring, got.nodes) == \
        (want.status, want.coloring, want.nodes)
    return got


def test_random_graphs_match_reference():
    rng = random.Random(20141)
    boundaries = 0
    for _ in range(250):
        graph = _random_connected_graph(rng)
        for defects in DEFECTS:
            finished = set()
            for budget in BUDGETS:
                res = _assert_same(graph, defects, budget)
                if res.status is not SolveStatus.UNKNOWN:
                    finished.add(res.nodes)
            for nodes in finished:
                assert _assert_same(graph, defects, nodes).status \
                    is not SolveStatus.UNKNOWN
                if nodes > 1:
                    short = _assert_same(graph, defects, nodes - 1)
                    assert short.status is SolveStatus.UNKNOWN
                    boundaries += 1
    assert boundaries > 1000


def test_deep_path_leaves_the_recursion_limit_alone(monkeypatch):
    def refuse(limit):
        raise AssertionError(f"solver set the recursion limit to {limit}")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    graph = fx.path_graph(5000)
    res = solve_exact(graph, (0, 0))
    assert res.status is SolveStatus.FOUND
    assert is_valid(graph, res.coloring)
