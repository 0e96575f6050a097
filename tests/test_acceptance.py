"""Acceptance criteria, one test per criterion, each printing a
pass/fail line.  Tolerances are exact: every charge comparison uses
fractions, never floats."""

from fractions import Fraction

import pytest

from defcolor import fixtures as fx
from defcolor.colorer import capacity, color
from defcolor.coloring import SolveStatus, is_valid, solve_exact
from defcolor.discharging import FaceClass, audit, classify_faces
from defcolor.embedding import girth
from conftest import CORPUS_COUNT

from gadget_builders import gen_girth5_small
from oracles import enumerate_two_class

MINUS_TWELVE = Fraction(-12)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="session")
def corpus_audits(corpus):
    return [audit(g, 10) for g in corpus]


def test_criterion_1_charge_identity(corpus, corpus_audits):
    sizes_ok = all(5 <= g.n <= 200 for g in corpus)
    planar_ok = all(g.genus == 0 and girth(g) >= 5 for g in corpus)
    totals_ok = all(rep.ledger.total_initial == MINUS_TWELVE
                    and rep.ledger.total_final == MINUS_TWELVE
                    for rep in corpus_audits)
    ok = sizes_ok and planar_ok and totals_ok and len(corpus) == CORPUS_COUNT
    report(1, ok, f"{len(corpus)} planar girth-5 graphs, "
                  f"|V| in [{min(g.n for g in corpus)}, {max(g.n for g in corpus)}], "
                  f"all totals exactly -12")
    assert sizes_ok and planar_ok and totals_ok
    assert len(corpus) == CORPUS_COUNT


def test_criterion_2_fixture_classification():
    cases = []

    def check(fixture, expected):
        got = classify_faces(fixture.graph)[fixture.face_index]
        cases.append(got is expected)

    def check_not(fixture, avoided):
        got = classify_faces(fixture.graph)[fixture.face_index]
        cases.append(got is not avoided)

    check(fx.special_face(), FaceClass.SPECIAL)
    for pert in (fx.special_face(hub=11), fx.special_face(p_deg=6),
                 fx.special_face(q_deg=4)):
        check_not(pert, FaceClass.SPECIAL)

    check(fx.x1_face(), FaceClass.X1)
    for pert in (fx.x1_face(h1=11), fx.x1_face(s_deg=4),
                 fx.x1_face(external_high=True)):
        check_not(pert, FaceClass.X1)

    check(fx.x2_face(), FaceClass.X2)
    for pert in (fx.x2_face(h2=11), fx.x2_face(u_deg=5),
                 fx.x2_face(y_deg=1)):
        check_not(pert, FaceClass.X2)

    check(fx.y1_face(), FaceClass.Y1)
    for pert in (fx.y1_face(h_deg=11), fx.y1_face(w_extra=1),
                 fx.y1_face(u_extra=1)):
        check_not(pert, FaceClass.Y1)

    check(fx.y2_face(), FaceClass.Y2)
    for pert in (fx.y2_face(h_deg=11), fx.y2_face(s_extra=1),
                 fx.y2_face(r_extra=1)):
        check_not(pert, FaceClass.Y2)

    check(fx.terrible_face(), FaceClass.TERRIBLE)
    for pert in (fx.terrible_face(v_deg=11), fx.terrible_face(u4_extra=1),
                 fx.terrible_face(w4_children=0)):
        check_not(pert, FaceClass.TERRIBLE)

    ok = all(cases)
    report(2, ok, f"6 fixtures classified, {len(cases) - 6} perturbations "
                  f"rejected ({sum(cases)}/{len(cases)} checks)")
    assert ok


def test_criterion_3_theorem_instances(corpus, corpus_large):
    graphs = [fx.c5(), fx.dodecahedron(), fx.petersen_projective()]
    graphs += [g for g in corpus if g.n <= 500]
    graphs += [g for g in corpus_large if g.n <= 500]
    colored = 0
    fallbacks = 0
    valid = True
    for g in graphs:
        res = color(g, 10)
        if res.trace.fallback:
            fallbacks += 1
        if res.coloring is None or not is_valid(g, res.coloring):
            valid = False
        else:
            colored += 1
    ok = valid and fallbacks == 0 and colored == len(graphs)
    report(3, ok, f"{colored}/{len(graphs)} graphs (largest "
                  f"{max(g.n for g in graphs)} vertices) got valid "
                  f"(1,10)-colorings, {fallbacks} fallbacks")
    assert ok


def test_criterion_4_oracle_equivalence():
    total = 0
    agree = True
    vectors = ((1, 10), (1, 0), (0, 0))
    for i in range(10000):
        g = gen_girth5_small(i, 5 + i % 8)
        for defects in vectors:
            res = solve_exact(g, defects)
            if res.status is SolveStatus.UNKNOWN:
                agree = False
            elif res.found != enumerate_two_class(g, defects):
                agree = False
            total += 1
    ok = agree and total == 30000
    report(4, ok, f"{total} solver runs over 10000 graphs (|V| <= 12) "
                  f"match full enumeration for {vectors}")
    assert ok


def test_criterion_5_contrapositive_audit(corpus, corpus_audits):
    checked = 0
    holds = True
    for g, rep in zip(corpus, corpus_audits):
        negative = (any(f < 0 for f in rep.ledger.vertex_final)
                    or any(f < 0 for f in rep.ledger.face_final)
                    or any(len(face) >= 7 and fin <= 0
                           for face, fin in zip(g.faces, rep.ledger.face_final)))
        if negative:
            checked += 1
            if not rep.lemma_violations:
                holds = False
    ok = holds and checked > 0
    report(5, ok, f"{checked}/{len(corpus)} graphs had a deficient element; "
                  f"every one lists a violated lemma conclusion")
    assert ok


def test_criterion_6_surface_capacity():
    values = [capacity(g) for g in (0, 1, 2, 3, 5)]
    values_ok = values == [10, 10, 11, 15, 23]

    gadget = fx.genus2_bad_face_gadget()
    g, hub = gadget.graph, gadget.names["hub"]
    rep = audit(g, t=capacity(g.genus))
    flag_ok = (g.genus == 2
               and classify_faces(g)[gadget.face_index] is FaceClass.Y1
               and any(fl.vertex == hub and fl.final < Fraction(1, 2)
                       for fl in rep.high_vertex_flags))
    clean = audit(fx.dodecahedron(), 10)
    clean_ok = clean.high_vertex_flags == []
    ok = values_ok and flag_ok and clean_ok
    report(6, ok, f"capacity(0,1,2,3,5) = {values}; genus-2 gadget hub "
                  f"flagged below 2*genus - 3.5; no spurious flags")
    assert ok


def test_criterion_7_rule_amounts(corpus, corpus_audits):
    constants = {
        "R1": {Fraction(1, 2)},
        "R2": {Fraction(1), Fraction(3, 2)},
        "R4": {Fraction(3, 2), Fraction(2)},
        "R5": {Fraction(1)},
        "R6": {Fraction(1)},
        "R7": {Fraction(1, 2)},
        "R8A": {Fraction(1, 2)},
        "R8B": {Fraction(1)},
    }
    total = 0
    ok = True
    fired = set()
    for g, rep in zip(corpus, corpus_audits):
        r3_count: dict[int, int] = {}
        for tr in rep.transfers:
            if tr.rule == "R3":
                r3_count[tr.source[1]] = r3_count.get(tr.source[1], 0) + 1
        r8b_faces = set()
        r1_refunds = {}
        for tr in rep.transfers:
            total += 1
            fired.add(tr.rule)
            if tr.rule == "R3":
                v = tr.source[1]
                want = Fraction(2 * g.degree(v) - 6, r3_count[v])
                if tr.amount != want or tr.amount < Fraction(3, 2):
                    ok = False
            else:
                if tr.amount not in constants[tr.rule]:
                    ok = False
            if tr.rule == "R8B":
                r8b_faces.add(tr.source[1])
            if tr.rule == "R1":
                r1_refunds.setdefault(tr.target[1], Fraction(0))
                r1_refunds[tr.target[1]] += tr.amount
        for f in r8b_faces:
            if r1_refunds.get(f, Fraction(0)) < Fraction(1, 2):
                ok = False
    needed = {"R1", "R2", "R3", "R4", "R5"}
    coverage_ok = needed <= fired
    report(7, ok and coverage_ok,
           f"{total} transfers audited across the corpus; rules fired: "
           f"{sorted(fired)}; every nonzero R3 >= 3/2; every R8B face has "
           f"its R1 refund")
    assert ok and coverage_ok
