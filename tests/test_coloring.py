import pytest

from defcolor import coloring, fixtures as fx
from defcolor.coloring import (Coloring, ColoringError, PartialColoringError,
                               SolveStatus, induced_max_degrees, is_valid,
                               solve_exact)
from defcolor.colorer import color
from defcolor.embedding import EmbeddedGraph
from defcolor.graphio import parse_coloring, serialize_coloring

from gadget_builders import gen_girth5_small, tripod_lattice
from oracles import enumerate_two_class, enumerate_two_class_slow


def test_induced_max_degrees_c5():
    g = fx.c5()
    mono = Coloring((0, 0, 0, 0, 0), (2,))
    assert induced_max_degrees(g, mono) == [2]
    split = Coloring((0, 0, 1, 0, 1), (1, 0))  # classes {0,1,3} and {2,4}
    assert induced_max_degrees(g, split) == [1, 0]


def test_induced_max_degrees_edgeless():
    g = EmbeddedGraph([[]])
    assert induced_max_degrees(g, Coloring((0,), (1, 10))) == [0, 0]


def test_is_valid_examples():
    g = fx.c5()
    assert is_valid(g, Coloring((0, 0, 1, 0, 1), (1, 0)))
    assert not is_valid(g, Coloring((0,) * 5, (1, 10)))
    assert is_valid(g, Coloring((1,) * 5, (1, 10)))


def test_is_valid_monotone_in_defects():
    g = fx.petersen_projective()
    res = solve_exact(g, (1, 3))
    assert res.found
    base = res.coloring
    for bump in ((1, 3), (2, 3), (1, 4), (5, 9)):
        assert is_valid(g, base, bump)


def test_is_valid_defect_length_mismatch():
    g = fx.c5()
    with pytest.raises(ColoringError):
        is_valid(g, Coloring((0,) * 5, (1, 10)), (1, 10, 3))


def test_partial_coloring_rejected():
    g = fx.c5()
    with pytest.raises(PartialColoringError):
        induced_max_degrees(g, Coloring((0, 1), (1, 10)))
    with pytest.raises(ColoringError):
        induced_max_degrees(g, {0: 0, 1: 1})


def test_coloring_rejects_classes_out_of_range():
    # the error names the first bad vertex
    for bad in (2, -1, None, 0.5, "1"):
        with pytest.raises(PartialColoringError,
                           match=r"^vertex 3 has no class in 0\.\.1$"):
            Coloring((0, 1, 1, bad, 2), (1, 10))


def test_non_integer_defects_are_rejected():
    for bad in ((1, 1.5), (1.7, "3"), ("3",)):
        with pytest.raises(ColoringError, match="must hold integers"):
            Coloring((0, 0, 0, 0, 0), bad)
        with pytest.raises(ColoringError, match="must hold integers"):
            solve_exact(fx.c5(), bad)


def test_is_valid_and_is_saturated_reject_the_same_inputs():
    g = fx.c5()
    phi = Coloring((0, 1, 0, 1, 1), (1, 1))
    with pytest.raises(ColoringError,
                       match="defect vector has 1 entries for 2 classes"):
        is_valid(g, phi, (1,))
    with pytest.raises(ColoringError, match="3 entries for 2 classes"):
        is_valid(g, phi, (1, 1, 1))
    # only a Coloring is accepted
    for psi in ({0: 0}, [0, 1, 0, 1, 1]):
        with pytest.raises(ColoringError, match="expected a Coloring"):
            is_valid(g, psi)
    with pytest.raises(PartialColoringError,
                       match="coloring must assign every vertex"):
        is_valid(g, Coloring((0, 1), (1, 1)))


def test_solve_exact_examples():
    g = fx.c5()
    assert solve_exact(g, (0, 0)).status is SolveStatus.INFEASIBLE
    found = solve_exact(g, (1, 0))
    assert found.status is SolveStatus.FOUND
    assert is_valid(g, found.coloring)
    pet = solve_exact(fx.petersen_projective(), (1, 10))
    assert pet.status is SolveStatus.FOUND
    assert is_valid(fx.petersen_projective(), pet.coloring)


def test_solve_exact_budget_and_determinism():
    g = fx.petersen_projective()
    tiny = solve_exact(g, (0, 0, 0), budget=5)
    assert tiny.status is SolveStatus.UNKNOWN
    # the attempt that would overrun the budget is neither made nor counted
    for budget in (1, 3, 5):
        assert solve_exact(g, (0, 0, 0), budget).nodes == budget
    a = solve_exact(g, (1, 10))
    b = solve_exact(g, (1, 10))
    assert a.coloring.assignment == b.coloring.assignment
    assert a.nodes == b.nodes
    with pytest.raises(ColoringError):
        solve_exact(g, (1, 10), budget=0)
    # nodes never equal 2.5, so such a budget would switch the count off
    with pytest.raises(ColoringError, match="budget must be an integer"):
        solve_exact(g, (0, 0, 0), 2.5)


def test_solve_exact_validates_the_defect_vector_before_searching(monkeypatch):
    g = fx.petersen_projective()
    for bad in ((), (1, -1), [0] * 50 + [-2]):
        for budget in (1, 10 ** 7):  # raises before any search
            with pytest.raises(ColoringError, match="non-empty and non-negative"):
                solve_exact(g, bad, budget)
    calls = []
    validate = coloring.validate_defects

    def counted(defects):
        calls.append(defects)
        return validate(defects)

    monkeypatch.setattr(coloring, "validate_defects", counted)
    long = [0] * 10 ** 4
    res = solve_exact(g, long)
    # the search's own check, then the result's, as every Coloring's
    assert res.found and len(calls) == 2
    assert res.coloring == Coloring(res.coloring.assignment, tuple(long))
    assert type(res.coloring.defects) is tuple and res.coloring.classes() == 10 ** 4
    assert is_valid(g, res.coloring)
    calls.clear()
    assert solve_exact(fx.c5(), (0, 0)).status is SolveStatus.INFEASIBLE
    assert len(calls) == 1


def test_every_coloring_handed_out_is_validated(monkeypatch):
    validated = []
    check = Coloring.__post_init__

    def counted(self):
        check(self)
        validated.append(self)

    monkeypatch.setattr(Coloring, "__post_init__", counted)
    found = solve_exact(fx.petersen_projective(), (1, 10))
    assert found.found and validated == [found.coloring]
    validated.clear()
    reduced = color(fx.dodecahedron(), 10)
    assert not reduced.trace.fallback and validated == [reduced.coloring]
    validated.clear()
    # the fallback's solve result, then the extended coloring
    lattice = color(tripod_lattice(6, 6), 10)
    assert lattice.trace.fallback and len(validated) == 2
    assert validated[-1] is lattice.coloring
    validated.clear()
    parsed = parse_coloring(serialize_coloring(found.coloring))
    assert parsed == found.coloring and validated == [parsed]


def test_numpy_oracle_agrees_with_pure_python():
    for seed in range(12):
        g = gen_girth5_small(seed, 7)
        for defects in ((1, 10), (1, 0), (0, 0), (0, 1)):
            assert (enumerate_two_class(g, defects)
                    == enumerate_two_class_slow(g, defects))


def test_solver_agrees_with_enumeration_small():
    for seed in range(120):
        g = gen_girth5_small(seed, 5 + seed % 8)
        for defects in ((1, 10), (1, 0), (0, 0)):
            got = solve_exact(g, defects)
            assert got.status is not SolveStatus.UNKNOWN
            assert got.found == enumerate_two_class(g, defects)
            if got.found:
                assert is_valid(g, got.coloring)
