"""solve_exact against an independent 0/1-program oracle.

The bench-size (1, 1) instances of tests/test_solve_scale.py include
eight that the chronological reference search leaves undecided at 20,000
nodes; the ILP decides all of them, so every solve_exact answer there is
checked by a solver that shares no code with it.
"""

from defcolor import fixtures as fx
from defcolor.coloring import Coloring, SolveStatus, is_valid, solve_exact

from ilp_oracle import ilp_two_class
from test_solve_scale import HARD_1_1, bench_graph


def _assert_ilp_agrees(graph, defects):
    res = solve_exact(graph, defects)
    assert res.status is not SolveStatus.UNKNOWN
    found = ilp_two_class(graph, defects)
    assert (found is not None) == res.found
    if found is not None:
        assert is_valid(graph, Coloring(found, defects))
    return res


def test_ilp_matches_solve_exact_on_bench_size_graphs():
    infeasible = {seed for seed in range(12)
                  if not _assert_ilp_agrees(bench_graph(seed), (1, 1)).found}
    assert set(HARD_1_1) <= infeasible


def test_ilp_matches_solve_exact_on_fixtures():
    # the dodecahedron and the projective Petersen graph are
    # (0, 0)-infeasible and (0, 1)-feasible
    for graph in (fx.c5(), fx.dodecahedron(), fx.petersen_projective()):
        for defects in ((0, 0), (0, 1), (1, 1)):
            _assert_ilp_agrees(graph, defects)
    assert ilp_two_class(fx.dodecahedron(), (0, 0)) is None
    assert ilp_two_class(fx.petersen_projective(), (0, 1)) is not None
