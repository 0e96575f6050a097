"""The tripod lattice (gadget_builders.tripod_lattice, tripod_patch).

On the 6 x 6 torus every lemma holds at t = 10 and every final charge is
0, the equality case of R1-R8 on a surface of total charge 0; no
reduction applies, so the colorer hands the whole graph to its fallback.
The 4 x 4 planar patch is a girth-5 planar graph that is not
(1, 1)-colorable, so d_2(5; 1) >= 2 against the paper's bound of 10.
"""

from collections import Counter

from defcolor import (FaceClass, ReductionKind, audit, classify_faces,
                      color, girth, is_valid, solve_exact)
from defcolor.coloring import Coloring, SolveStatus

from gadget_builders import tripod_lattice, tripod_patch
from ilp_oracle import ilp_two_class


def test_torus_lattice_shape():
    g = tripod_lattice(6, 6)
    assert g.n == 360
    assert Counter(map(g.degree, range(g.n))) == {2: 252, 3: 72, 12: 36}
    assert g.genus == 2 and girth(g) == 5


def test_torus_lattice_is_the_equality_case_at_t10():
    g = tripod_lattice(6, 6)
    report = audit(g, 10)
    assert list(report.claim_violations) == []
    assert list(report.lemma_violations) == []
    assert set(report.ledger.net) == {0}
    assert Counter(zip(map(len, g.faces), classify_faces(g))) == {
        (5, FaceClass.X1): 144, (6, FaceClass.PLAIN): 72}


def test_torus_lattice_colors_by_fallback_at_t10():
    g = tripod_lattice(6, 6)
    res = color(g, 10)
    assert len(res.trace.steps) == 0
    # the fallback colored the one residual component, all 360 vertices
    assert res.trace.fallback and len(res.trace.base) == g.n
    assert not res.trace.anomaly
    assert res.solve_status is SolveStatus.FOUND
    assert is_valid(g, res.coloring, (1, 10))


def test_torus_lattice_reduces_at_capacity():
    # at t = capacity(2) = 11 the hubs are low: a kind-3 step opens, and
    # kinds 1 and 2 take most of what it leaves
    g = tripod_lattice(6, 6)
    res = color(g)
    assert res.trace.t == 11 and not res.trace.fallback
    kinds = [step.kind for step in res.trace.steps]
    assert kinds[0] is ReductionKind.ALL_LOW_DEGREE_NEIGHBORS
    assert Counter(kinds) == {ReductionKind.DEGREE_AT_MOST_ONE: 184,
                              ReductionKind.ADJACENT_TWO_VERTICES: 73,
                              ReductionKind.ALL_LOW_DEGREE_NEIGHBORS: 30}
    assert is_valid(g, res.coloring, (1, 11))


def test_3x3_patch_is_1_1_colorable():
    g = tripod_patch(3)
    assert (g.n, g.genus, girth(g)) == (49, 0, 5)
    res = solve_exact(g, (1, 1))
    assert res.status is SolveStatus.FOUND and res.nodes == 13
    assert is_valid(g, res.coloring)


def test_4x4_patch_is_not_1_1_colorable():
    g = tripod_patch(4)
    assert (g.n, g.genus, girth(g)) == (103, 0, 5)
    assert ilp_two_class(g, (1, 1)) is None
    found = ilp_two_class(g, (1, 2))
    assert found is not None and is_valid(g, Coloring(found, (1, 2)))
    res = color(g, 10)
    assert is_valid(g, res.coloring, (1, 10))
