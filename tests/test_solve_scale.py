"""The exact solver against the recursive reference solver at the sizes
the benchmark runs and at long defect vectors.

tests/test_solve_loop.py compares the two on graphs of 1-13 vertices with
at most three classes.  Here they are compared on 40-70-vertex girth-5
graphs, where the degree order is far from the id order, on class counts
either side of the largest number of earlier neighbors, and on defect
vectors of 2,000 entries, where the classes the solver tries must stay
bounded by the graph.  On the bench-size (1, 1) instances that the
reference leaves undecided, tests/test_ilp_oracle.py supplies the answer.
"""

import random
import tracemalloc

from defcolor import fixtures as fx
from defcolor.cli import main
from defcolor.coloring import SolveStatus, is_valid, solve_exact
from defcolor.graphio import serialize_graph

from gadget_builders import gen_girth5_small
from oracles import reference_solve
from test_solve_loop import (_assert_agrees, _assert_decides_at,
                             _random_connected_graph)

LONG = 2000
# The seeds of bench_graph whose (1, 1) instance the chronological search
# leaves UNKNOWN at 20,000 nodes; all are (1, 1)-infeasible.
HARD_1_1 = (1, 2, 3, 4, 7, 8, 10, 11)


def bench_graph(seed):
    """One of the 12 girth-5 graphs of 40-70 vertices compared here."""
    return gen_girth5_small(seed, 40 + (7 * seed) % 31)


def _degree_order(graph):
    return sorted(range(graph.n), key=lambda v: (-graph.degree(v), v))


def test_bench_size_graphs_match_reference():
    statuses = set()
    reference_unknown = []
    for seed in range(12):
        graph = bench_graph(seed)
        assert _degree_order(graph) != list(range(graph.n))
        for defects in ((1, 1), (0, 1), (1, 10)):
            res = _assert_agrees(graph, defects, 20_000)
            assert res.status is not SolveStatus.UNKNOWN
            statuses.add(res.status)
            _assert_decides_at(graph, defects, res)
            statuses.add(_assert_agrees(graph, defects, 5).status)
            if reference_solve(graph, defects, 20_000).status \
                    is SolveStatus.UNKNOWN:
                reference_unknown.append((seed, defects))
    assert {SolveStatus.UNKNOWN, SolveStatus.INFEASIBLE} <= statuses
    assert reference_unknown == [(seed, (1, 1)) for seed in HARD_1_1]


def test_propagation_refutes_the_hard_instances_in_few_nodes():
    # The chronological search spends more than 20,000 nodes on each.
    for seed in HARD_1_1:
        res = solve_exact(bench_graph(seed), (1, 1))
        assert res.status is SolveStatus.INFEASIBLE
        assert res.nodes <= 500, (seed, res.nodes)


def test_class_counts_around_the_earlier_neighbor_bound_match_reference():
    # The solver's class table keeps fewer rows once r exceeds the largest
    # number of earlier neighbors; r runs from 1 to 8 across that bound.
    rng = random.Random(7)
    for _ in range(150):
        graph = _random_connected_graph(rng)
        for r in range(1, 9):
            defects = tuple(rng.randrange(3) for _ in range(r))
            _assert_agrees(graph, defects, 3)
            res = _assert_agrees(graph, defects, 10 ** 7)
            assert res.status is not SolveStatus.UNKNOWN
            _assert_decides_at(graph, defects, res)


def _long_defects(seed):
    rng = random.Random(seed)
    return tuple(rng.choice((0, 0, 1, 2)) for _ in range(LONG))


def test_long_defect_vectors_match_reference_in_bounded_memory():
    for graph, defects in ((fx.petersen_projective(), _long_defects(1)),
                           (fx.path_graph(300), _long_defects(2)),
                           (fx.petersen_projective(), (0,) * LONG)):
        tracemalloc.start()
        try:
            got = solve_exact(graph, defects)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = reference_solve(graph, defects)
        assert (got.status, got.coloring) == (want.status, want.coloring)
        assert got.nodes <= want.nodes
        assert got.status is SolveStatus.FOUND
        _assert_decides_at(graph, defects, got)
        assert is_valid(graph, got.coloring)
        assert peak < 5 * 2 ** 20, f"solve_exact peaked at {peak} bytes"


def test_cli_solves_with_a_long_defect_vector(tmp_path):
    gpath = tmp_path / "g.txt"
    gpath.write_text(serialize_graph(fx.petersen_projective()))
    cpath = tmp_path / "col.txt"
    spec = ",".join(map(str, _long_defects(3)))
    assert main(["solve", "--input", str(gpath), "--defects", spec,
                 "--output", str(cpath)]) == 0
    assert main(["check", "--input", str(gpath), "--coloring", str(cpath)]) == 0
