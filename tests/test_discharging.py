import math
import re
from collections.abc import Sequence
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from defcolor import cli, discharging, fixtures as fx
from defcolor.discharging import (_PATTERNS, _UNIT, HIGH_DEGREE,
                                  ChargeLedger, ClaimViolation, FaceClass,
                                  LemmaViolation, Transfer, _r3_share, _symbol,
                                  apply_rules, audit, classify_faces,
                                  format_fraction, ledger_csv, report_text,
                                  sponsor_instances, transfers_csv)
from defcolor.embedding import EmbeddedGraph, GirthTooSmallError
from defcolor.fixtures import find_face
from defcolor.generate import gen_planar_girth5
from defcolor.graphio import serialize_graph

from gadget_builders import (chorded_cycle, r2_gadget, r3_gadget,
                             sponsor_face_pair, sponsor_gadget,
                             triple_special_gadget, twisted_sponsor_gadget)
from oracles import (reference_audit, reference_ledger, reference_ledger_csv,
                     reference_report_text, reference_sponsors,
                     reference_transfers, reference_transfers_csv,
                     reference_units)
from test_golden import FIXTURE_CASES, _fixture_graph

HALF = Fraction(1, 2)
THREE_HALVES = Fraction(3, 2)


def transfers_from(transfers, rule, source=None):
    out = [t for t in transfers if t.rule == rule]
    if source is not None:
        out = [t for t in out if t.source == source]
    return out


# -- initial charges ---------------------------------------------------------


def test_initial_charges_values():
    fix = fx.special_face()
    led = apply_rules(fix.graph)[0]
    assert led.vertex_initial[0] == Fraction(-2)      # a 2-vertex
    assert led.face_initial[fix.face_index] == Fraction(-1)  # a 5-face
    assert led.total_initial == Fraction(-12)


def test_initial_charges_dodecahedron():
    led = apply_rules(fx.dodecahedron())[0]
    assert set(led.vertex_initial) == {Fraction(0)}
    assert set(led.face_initial) == {Fraction(-1)}
    assert led.total_initial == Fraction(-12)


def test_initial_charges_petersen_total():
    led = apply_rules(fx.petersen_projective())[0]
    assert led.total_initial == Fraction(6 * 1 - 12)


# -- rules on the simplest graphs -------------------------------------------


def test_apply_rules_c5():
    g = fx.c5()
    led, transfers = apply_rules(g)
    assert all(t.rule == "R5" and t.amount == 1 for t in transfers)
    assert len(transfers) == 10
    assert set(led.vertex_final) == {Fraction(0)}
    assert set(led.face_final) == {Fraction(-6)}
    assert led.total_final == Fraction(-12)
    assert all(t.independent for t in transfers)


def test_apply_rules_dodecahedron_nothing_fires():
    led, transfers = apply_rules(fx.dodecahedron())
    assert transfers == []
    assert led.vertex_final == led.vertex_initial
    assert led.face_final == led.face_initial


def test_apply_rules_raises_below_girth5():
    g = EmbeddedGraph([[1, 3], [0, 2], [1, 3], [2, 0]])  # C4
    with pytest.raises(GirthTooSmallError,
                       match="^apply_rules requires girth >= 5, got 4$"):
        apply_rules(g)


def test_conservation_on_fixture_zoo():
    graphs = [fx.c5(), fx.dodecahedron(), fx.petersen_projective(),
              fx.special_face().graph, fx.y2_face().graph,
              fx.terrible_face().graph]
    for g in graphs:
        led, _ = apply_rules(g)
        assert led.total_final == led.total_initial == Fraction(6 * g.genus - 12)


def test_transfer_log_is_canonically_sorted():
    g = fx.terrible_face().graph
    _, transfers = apply_rules(g)
    keys = [(t.rule, t.source, t.target, t.witness) for t in transfers]
    assert keys == sorted(keys)


# -- R1/R2/R3 ---------------------------------------------------------------


def test_r1_four_vertex_sends_half_per_incidence():
    fix = fx.terrible_face()
    g = fix.graph
    _, transfers = apply_rules(g)
    r1 = transfers_from(transfers, "R1", ("v", fix.names["u4"]))
    assert len(r1) == 4
    assert all(t.amount == HALF for t in r1)


def test_r2_special_and_blocked_faces():
    g, special_verts, pent_verts, p, h2 = r2_gadget()
    special = find_face(g, special_verts)
    pent = find_face(g, pent_verts)
    assert classify_faces(g)[special] is FaceClass.SPECIAL
    _, transfers = apply_rules(g)
    mine = transfers_from(transfers, "R2", ("v", p))
    by_face = {t.target[1]: t.amount for t in mine}
    assert by_face == {special: THREE_HALVES, pent: Fraction(1)}


def test_r3_uniform_split_and_zero_eligible():
    g, m, h = r3_gadget(eligible_pentagon=True)
    _, transfers = apply_rules(g)
    r3 = transfers_from(transfers, "R3", ("v", m))
    assert len(r3) == 1
    assert r3[0].amount == Fraction(2 * 6 - 6, 1)
    assert r3[0].amount >= THREE_HALVES

    g0, m0, _ = r3_gadget(eligible_pentagon=False)
    _, transfers0 = apply_rules(g0)
    assert transfers_from(transfers0, "R3", ("v", m0)) == []


# -- face classification -----------------------------------------------------


def test_classification_direction_invariance_and_c5_plain():
    g = fx.c5()
    assert classify_faces(g) == (FaceClass.PLAIN,) * len(g.faces)


# The paper's degree patterns: d exact, d+ at least d, d- at most d.
PAPER_FACE_PATTERNS = {
    FaceClass.SPECIAL: "2 12+ 2 5 3",
    FaceClass.X1: "2 12+ 2 12+ 3",
    FaceClass.X2: "2 12+ 2 12+ 4",
    FaceClass.Y1: "2 12+ 2 4 3",
    FaceClass.Y2: "2 12+ 2 3 3",
    FaceClass.TERRIBLE: "2 12+ 2 4 4",
}
PAPER_FOUR_VERTEX_PATTERNS = {
    FaceClass.X2: "11- 2 12+ 2+",
    FaceClass.Y1: "2 3 11- 12+",
    FaceClass.TERRIBLE: "2 4 11- 12+",
}


def _degree_tests(pattern):
    tests = []
    for tok in pattern.split():
        k = int(tok.rstrip("+-"))
        tests.append((lambda d, k=k: d >= k) if tok.endswith("+") else
                     (lambda d, k=k: d <= k) if tok.endswith("-") else
                     (lambda d, k=k: d == k))
    return tests


def _cyclic_match(degs, tests):
    """Whether some rotation of degs, or of its reversal, passes the tests."""
    n = len(degs)
    return any(all(test(seq[(s + i) % n]) for i, test in enumerate(tests))
               for seq in (degs, degs[::-1]) for s in range(n))


@pytest.mark.parametrize("patterns, length, degrees", [
    (PAPER_FACE_PATTERNS, 5, (1, 2, 3, 4, 5, 11, 12)),
    (PAPER_FOUR_VERTEX_PATTERNS, 4, (1, 2, 3, 4, 5, 6, 11, 12, 13)),
])
def test_pattern_table_agrees_with_paper_patterns(patterns, length, degrees):
    # every reading of the word, from any start in either direction, is
    # looked up as it is
    compiled = {cls: _degree_tests(pat) for cls, pat in patterns.items()}
    for degs in product(degrees, repeat=length):
        want = {cls for cls, tests in compiled.items()
                if _cyclic_match(degs, tests)}
        word = "".join(_symbol(d) for d in degs)
        for w in (word, word[::-1]):
            for i in range(length):
                assert _PATTERNS.get(w[i:] + w[:i], frozenset()) == want, degs


def test_bad_face_gets_two_from_high_vertex():
    fix = fx.y1_face()
    g = fix.graph
    face = fix.face_index
    assert classify_faces(g)[face] is FaceClass.Y1
    _, transfers = apply_rules(g)
    r4 = [t for t in transfers_from(transfers, "R4", ("v", 1))
          if t.target == ("f", face)]
    assert len(r4) == 1 and r4[0].amount == Fraction(2)


# -- sponsors ----------------------------------------------------------------


def test_five_five_sponsor_reported_but_silent():
    g, verts, s, t = sponsor_gadget(5, 5, 2)
    f1, f2 = sponsor_face_pair(g, verts)
    edges = [i.edge for i in sponsor_instances(g)
             if (i.f1, i.f2) == (f1, f2)]
    assert edges
    assert [g.degree(u) for u in edges[0]] == [5, 5]
    assert classify_faces(g)[f1] not in (FaceClass.X1, FaceClass.X2)
    _, transfers = apply_rules(g)
    assert all(t.rule not in ("R6", "R7", "R8A", "R8B") for t in transfers)


def test_non_sponsor_when_flank_not_high():
    # the sponsored side: its u1/u4 are low, so no sponsorship back
    g, verts, s, t = sponsor_gadget(3, 3, 2)
    f1, f2 = sponsor_face_pair(g, verts)
    assert all((i.f1, i.f2) != (f2, f1)
               for i in sponsor_instances(g))


def test_sponsors_match_reference(corpus):
    fixtures = [_fixture_graph(name, kwargs) for name, kwargs in FIXTURE_CASES]
    gadgets = [sponsor_gadget(d2, d3, w)[0]
               for d2, d3 in ((3, 3), (3, 4), (4, 4), (2, 3), (2, 4))
               for w in (2, 3)]
    twisted, s, t = twisted_sponsor_gadget()
    walks = [(fi, dart) for fi, f in enumerate(twisted.faces)
             for dart in zip(f, f[1:] + f[:1]) if set(dart) == {s, t}]
    assert [dart for _, dart in walks] == [(t, s), (t, s)]
    assert walks[0][0] != walks[1][0] and (s, t) in twisted.twists
    for graph in (*fixtures, *gadgets, twisted, *corpus[::10]):
        got = sponsor_instances(graph)
        assert len(set(got)) == len(got)
        assert set(got) == reference_sponsors(graph)
    assert all(sponsor_instances(graph) for graph in (*gadgets, twisted))


def test_sponsors_skip_leaf_edges_between_adjacent_hubs():
    # w is a hub too, so h1 and h2 each have a high neighbor: their leaf
    # edges are near-high on both ends, and a leaf's two corners are one
    g, _, _, _ = sponsor_gadget(3, 3, HIGH_DEGREE)
    h1, w = 0, 4
    assert g.degree(w) >= HIGH_DEGREE and w in g.rotation[h1]
    assert any(g.degree(u) == 1 for u in g.rotation[h1])
    got = sponsor_instances(g)
    assert got and set(got) == reference_sponsors(g)


def test_r6_sponsor_sends_one():
    g, verts, s, t = sponsor_gadget(3, 3, 2)
    f1, f2 = sponsor_face_pair(g, verts)
    _, transfers = apply_rules(g)
    r6 = transfers_from(transfers, "R6", ("f", f1))
    assert len(r6) == 1
    assert r6[0].amount == Fraction(1)
    assert r6[0].target == ("f", f2)


def test_r7_fires_unless_sponsor_is_x1():
    g, verts, s, t = sponsor_gadget(2, 3, 3)
    f1, f2 = sponsor_face_pair(g, verts)
    assert classify_faces(g)[f1] is not FaceClass.X1
    _, transfers = apply_rules(g)
    r7 = transfers_from(transfers, "R7", ("f", f1))
    assert len(r7) == 1 and r7[0].amount == HALF

    # with w a 2-vertex the pentagon is an X1-face: R7 must stay silent
    gx, vertsx, sx, tx = sponsor_gadget(2, 3, 2)
    fx1, _ = sponsor_face_pair(gx, vertsx)
    assert classify_faces(gx)[fx1] is FaceClass.X1
    _, transfersx = apply_rules(gx)
    assert transfers_from(transfersx, "R7", ("f", fx1)) == []


def test_r8b_with_r1_refund():
    g, verts, s, t = sponsor_gadget(2, 4, 3)
    f1, f2 = sponsor_face_pair(g, verts)
    assert classify_faces(g)[f1] is not FaceClass.X2
    _, transfers = apply_rules(g)
    r8b = transfers_from(transfers, "R8B", ("f", f1))
    assert len(r8b) == 1 and r8b[0].amount == Fraction(1)
    refund = [tr for tr in transfers_from(transfers, "R1", ("v", t))
              if tr.target == ("f", f1)]
    assert refund and refund[0].amount == HALF


def test_r8a_from_x2_face():
    fix = fx.x2_face()
    g = fix.graph
    face = fix.face_index
    assert classify_faces(g)[face] is FaceClass.X2
    _, transfers = apply_rules(g)
    r8a = transfers_from(transfers, "R8A", ("f", face))
    assert len(r8a) == 1 and r8a[0].amount == HALF


def test_r7_r8_couple_r5_instances():
    g, verts, s, t = sponsor_gadget(2, 4, 3)
    f1, f2 = sponsor_face_pair(g, verts)
    _, transfers = apply_rules(g)
    r5_to_s = [tr for tr in transfers_from(transfers, "R5")
               if tr.target == ("v", s)]
    assert len(r5_to_s) == 2  # both faces pay the shared 2-vertex
    assert all(tr.independent is False for tr in r5_to_s)


# -- terrible fixture: exact finals ------------------------------------------


def test_terrible_fixture_exact_finals():
    fix = fx.terrible_face()
    names = fix.names
    g = fix.graph
    led, transfers = apply_rules(g)
    assert led.face_final[fix.face_index] == HALF
    assert led.vertex_final[names["v"]] == Fraction(0)
    g4 = find_face(g, (names["v"], names["v4"], names["u4"],
                       names["h4"], names["c4"]))
    assert classify_faces(g)[g4] is FaceClass.X2
    assert led.face_final[g4] == Fraction(0)
    assert led.total_final == Fraction(-12)


# -- audit -------------------------------------------------------------------


def test_audit_c5():
    rep = audit(fx.c5(), 10)
    assert any(cv.claim == "face5-negative" for cv in rep.claim_violations)
    assert "vx-degree" in rep.violated_lemmas
    assert "vx-high-general" in rep.violated_lemmas
    vx = [lv for lv in rep.lemma_violations if lv.lemma == "vx-degree"]
    assert len(vx) == 5
    assert "no-22" in rep.violated_lemmas  # C5's 2-vertices are adjacent


def test_audit_dodecahedron():
    rep = audit(fx.dodecahedron(), 10)
    assert all(cv.claim == "face5-negative" for cv in rep.claim_violations)
    assert len(rep.claim_violations) == 12
    vx = [lv for lv in rep.lemma_violations if lv.lemma == "vx-degree"]
    assert len(vx) == 20


def test_audit_rejects_small_girth():
    g = EmbeddedGraph([[1, 3], [0, 2], [1, 3], [2, 0]])
    with pytest.raises(GirthTooSmallError):
        audit(g, 10)


def test_audit_rejects_a_non_integer_threshold():
    with pytest.raises(ValueError, match="threshold t must be an integer, got 10.5"):
        audit(gen_planar_girth5(1, 200), 10.5)


@pytest.mark.parametrize("genus, want", [
    (0, 10), (1, 10), (2, 11), (3, 15), (5, 23),
    (2.5, "genus must be an integer, got 2.5"),
    ("3", "genus must be an integer, got '3'"),
    (None, "genus must be an integer, got None")])
def test_capacity_reads_an_integer_genus(genus, want):
    if isinstance(want, int):
        assert discharging.capacity(genus) == want
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            discharging.capacity(genus)


def test_audit_min_degree_lemma_catches_pendant_vertices():
    # a pendant vertex has final charge -4; only 4.1(iii) explains it
    fix = fx.special_face()
    rep = audit(fix.graph, 10)
    assert any(cv.claim == "vertex-negative" for cv in rep.claim_violations)
    assert "min-degree" in rep.violated_lemmas


def test_audit_flags_high_vertex_below_general_floor():
    fix = fx.genus2_bad_face_gadget()
    g, hub = fix.graph, fix.names["hub"]
    assert g.genus == 2
    rep = audit(g, t=11)
    assert classify_faces(g)[fix.face_index] is FaceClass.Y1
    flagged = {fl.vertex for fl in rep.high_vertex_flags}
    assert hub in flagged
    fl = next(fl for fl in rep.high_vertex_flags if fl.vertex == hub)
    assert fl.final == Fraction(0)
    assert fl.bound == Fraction(1, 2)


def test_audit_does_not_flag_a_high_vertex_on_the_floor():
    # on Euler genus 2 the floor is 1/2; with no bad face a d-vertex ends
    # at 2d - 6 - 3d/2, which is 1/2 at d = 13 and 0 at d = 12
    rot = [list(nbrs) for nbrs in chorded_cycle(1, 310, 2).rotation]
    for v, leaves in ((100, 11), (200, 10)):
        rot[v][1:1] = range(len(rot), len(rot) + leaves)
        rot += [[v]] * leaves
    g = EmbeddedGraph(rot)
    assert g.genus == 2 and (g.degree(100), g.degree(200)) == (13, 12)
    for t, flagged in ((10, [200]), (11, [])):
        rep = audit(g, t)
        assert [fl.vertex for fl in rep.high_vertex_flags] == flagged
        assert rep.ledger.vertex_final[100] == Fraction(1, 2)
        assert rep.high_vertex_flags == reference_audit(g, t).high_vertex_flags


@pytest.mark.parametrize("hub_degree, fires_at", [(12, 10), (13, 11), (17, 15)])
def test_terrible_bound_reads_structural_high(hub_degree, fires_at):
    # The face pattern's high is fixed at 12, so the face stays Terrible at
    # every t; the hub's bound min(d // 3, d - t - 2) reads the structural
    # high t + 2 and drops to 0, below its one Terrible face, only at d = t + 2.
    fix = fx.terrible_face(v_deg=hub_degree)
    for t in (10, 11, 15):
        rep = audit(fix.graph, t)
        assert rep.face_classes[fix.face_index] is FaceClass.TERRIBLE
        assert ("terrible-faces-num" in rep.violated_lemmas) == (t == fires_at)


def test_audit_no_flags_on_clean_planar_inputs():
    rep = audit(fx.dodecahedron(), 10)
    assert rep.high_vertex_flags == []


# -- export ------------------------------------------------------------------


def test_fraction_format_and_csv():
    assert format_fraction(Fraction(-12)) == "-12/1"
    assert format_fraction(Fraction(3, 2)) == "3/2"
    g = fx.c5()
    led, transfers = apply_rules(g)
    csv = ledger_csv(led)
    lines = csv.strip().splitlines()
    assert lines[0] == "element_kind,element_id,initial,final"
    assert lines[1] == "v,0,-2/1,0/1"
    assert "f,0,-1/1,-6/1" in lines
    tcsv = transfers_csv(transfers)
    assert tcsv.splitlines()[0].startswith("rule,source_kind")
    assert "R5,f,0,v," in tcsv


def test_rule_amounts_on_random_graphs():
    allowed = {HALF, Fraction(1), THREE_HALVES, Fraction(2)}
    for seed in range(12):
        g = gen_planar_girth5(31337 + seed, 40 + 10 * seed)
        led, transfers = apply_rules(g)
        assert led.total_final == led.total_initial == Fraction(-12)
        for t in transfers:
            if t.rule == "R3":
                d = g.degree(t.source[1])
                k = len(transfers_from(transfers, "R3", t.source))
                assert t.amount == Fraction(2 * d - 6, k)
            else:
                assert t.amount in allowed


# -- integer charge units ----------------------------------------------------


def test_unit_covers_every_rule_amount():
    # derived from the threshold, so raising HIGH_DEGREE cannot truncate
    # an R3 share
    assert _UNIT == math.lcm(*range(1, HIGH_DEGREE))
    amounts = [HALF, THREE_HALVES, Fraction(2)]
    amounts += [Fraction(2 * d - 6, k)
                for d in range(6, HIGH_DEGREE) for k in range(1, d + 1)]
    assert all((x * _UNIT).denominator == 1 for x in amounts)
    fixed = (discharging._HALF, discharging._ONE, discharging._THREE_HALVES,
             discharging._TWO)
    assert all(type(units) is int for units in fixed)
    assert [Fraction(units, _UNIT) for units in fixed] == [
        HALF, 1, THREE_HALVES, 2]
    for d in range(6, HIGH_DEGREE):
        for k in range(1, d + 1):
            units = _r3_share(d, k)
            assert type(units) is int
            assert Fraction(units, _UNIT) == Fraction(2 * d - 6, k)


def _check_ledger(graph):
    """apply_rules' ledger equals the per-transfer Fraction sums, and every
    public charge is a Fraction."""
    ledger, transfers = apply_rules(graph)
    assert ledger == reference_ledger(graph, transfers)
    for charges in (ledger.vertex_initial, ledger.face_initial,
                    ledger.vertex_final, ledger.face_final):
        assert all(type(x) is Fraction for x in charges)
    assert all(type(tr.amount) is Fraction for tr in transfers)
    assert ledger.total_final == ledger.total_initial == 6 * graph.genus - 12
    return ledger, transfers


@pytest.mark.parametrize("name, kwargs", FIXTURE_CASES)
def test_ledger_matches_reference_on_fixtures(name, kwargs):
    _check_ledger(_fixture_graph(name, kwargs))


def test_ledger_matches_reference_on_corpus(corpus):
    for graph in corpus[::10]:
        _check_ledger(graph)


def flower(d, blocked):
    """A girth-5 planar flower: hub 0 of degree d, neighbors x_i = 1 + i,
    and a petal path x_i - p_i - q_i - x_(i+1), so the hub's d faces are
    the pentagons (hub, x_i, p_i, q_i, x_(i+1)).  x_1 .. x_(blocked-1)
    get leaves in the outer face up to degree HIGH_DEGREE, which puts a
    high neighbor of the hub on faces 0 .. blocked-1 (blocked >= 2)."""
    pumped = range(1, blocked)
    x = [1 + i for i in range(d)]
    p = [1 + d + 2 * i for i in range(d)]
    q = [2 + d + 2 * i for i in range(d)]
    rotation = [x] + [None] * (3 * d)
    for i in range(d):
        leaves = []
        if i in pumped:
            leaves = list(range(len(rotation), len(rotation) + HIGH_DEGREE - 3))
            rotation += [[x[i]]] * len(leaves)
        rotation[x[i]] = [0, q[i - 1], *leaves, p[i]]
        rotation[p[i]] = [x[i], q[i]]
        rotation[q[i]] = [p[i], x[(i + 1) % d]]
    return EmbeddedGraph(rotation)


# A high neighbor lies on the faces of both hub angles beside it, so it
# blocks at least two of the hub's passages: k = d - 1 cannot occur.
R3_CASES = [(d, k) for d in range(6, HIGH_DEGREE)
            for k in [*range(1, d - 1), d]]


@pytest.mark.parametrize("d, k", R3_CASES)
def test_every_r3_share_settles_exactly(d, k):
    graph = flower(d, d - k) if k < d else flower(d, 0)
    assert graph.genus == 0 and graph.degree(0) == d
    assert [len(f) for f in graph.faces].count(5) == d
    _, transfers = _check_ledger(graph)
    r3 = transfers_from(transfers, "R3", ("v", 0))
    assert len(r3) == k
    assert all(tr.amount == Fraction(2 * d - 6, k) for tr in r3)


# -- transfer log ------------------------------------------------------------


def _check_transfers(graph):
    """apply_rules' row log reads as reference_transfers, in order, and
    transfers_csv writes the reference writer's bytes."""
    want = reference_transfers(graph, classify_faces(graph))
    log = apply_rules(graph)[1]
    assert list(log) == want
    assert transfers_csv(log) == reference_transfers_csv(want)
    return want


@pytest.mark.parametrize("name, kwargs", FIXTURE_CASES)
def test_transfer_log_matches_reference_on_fixtures(name, kwargs):
    _check_transfers(_fixture_graph(name, kwargs))


def test_transfer_log_matches_reference_on_corpus_and_gadgets(corpus):
    gadgets = [sponsor_gadget(d2, d3, w)[0]
               for d2, d3 in ((3, 3), (3, 4), (4, 4), (2, 3), (2, 4))
               for w in (2, 3)]
    graphs = [*corpus[::10], *gadgets, twisted_sponsor_gadget()[0],
              r2_gadget()[0], r3_gadget()[0], chorded_cycle(1, 310, 2),
              chorded_cycle(1, 440, 3, twisted=True)]
    fired = {tr.rule for graph in graphs for tr in _check_transfers(graph)}
    assert fired == {"R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8B"}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(5, 300))
def test_transfer_log_matches_reference_on_random_planar(seed, size):
    _check_transfers(gen_planar_girth5(seed, size))


def _check_row_log(log, want, other):
    """log reads as the list want: length, int, negative and out-of-range
    indexing, slices (as lists), equality with want, a tuple of it and
    nothing else (not other), and no hash."""
    n = len(want)
    assert isinstance(log, Sequence) and len(log) == n > 4
    assert log[0] == want[0] and log[-1] == want[-1] and log[-n] == want[0]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            log[i]
    assert log[:4] == want[:4] and log[1:-1:3] == want[1:-1:3]
    assert log[::-1] == want[::-1]
    assert log[5:2] == [] and type(log[:4]) is list
    assert want[3] in log and log.index(want[3]) == 3
    assert log == want and want == log and log == tuple(want)
    assert log != want[:-1] and log != [] and log != 0
    assert log != [*want[1:], want[0]] and log != other
    with pytest.raises(TypeError):
        hash(log)


def test_transfer_log_is_a_sequence_of_transfers():
    g = fx.terrible_face().graph
    log = apply_rules(g)[1]
    want = reference_transfers(g, classify_faces(g))
    assert len(want) > 8
    _check_row_log(log, want, apply_rules(fx.c5())[1])
    assert all(type(tr) is Transfer and type(tr.amount) is Fraction
               for tr in log)
    assert log == apply_rules(g)[1]
    assert apply_rules(fx.dodecahedron())[1] == []


@pytest.mark.parametrize("log", ["claim_violations", "lemma_violations"])
def test_violation_log_is_a_sequence(log):
    g = fx.terrible_face().graph
    got = getattr(audit(g, 10), log)
    want = getattr(reference_audit(g, 10), log)
    _check_row_log(got, want, getattr(audit(fx.c5(), 10), log))
    assert got == getattr(audit(g, 10), log)
    assert getattr(audit(fx.dodecahedron(), 10), log) != []


def test_cli_audit_csv_builds_no_transfer(tmp_path, monkeypatch):
    # nor any claim or lemma violation, nor a Fraction per element: the
    # CSV and the text report are written from rows and units
    built = []
    for cls in (Transfer, ClaimViolation, LemmaViolation):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            built.append(self)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    views = []
    for name in ("vertex_initial", "face_initial", "vertex_final", "face_final"):
        view = vars(ChargeLedger)[name]

        def counted_view(ledger, _build=view.func, _name=name):
            views.append(_name)
            return _build(ledger)

        monkeypatch.setattr(view, "func", counted_view)
    g = fx.terrible_face().graph
    gpath, out = tmp_path / "g.txt", tmp_path / "audit.csv"
    gpath.write_text(serialize_graph(g))
    assert cli.main(["audit", "--input", str(gpath), "--format", "csv",
                     "--output", str(out)]) == 0
    assert built == views == [] and "\nR8A,f," in out.read_text()
    text = tmp_path / "audit.txt"
    assert cli.main(["audit", "--input", str(gpath), "--output",
                     str(text)]) == 0
    assert built == views == [] and "\nclaim violations: " in text.read_text()
    rep = audit(g)
    assert rep.lemma_violations.rows and rep.claim_violations.rows
    assert report_text(rep) == text.read_text() and rep.violated_lemmas
    assert built == views == []
    # a read builds one, and the count sees it
    rep.transfers[0], rep.claim_violations[-1], rep.lemma_violations[0]
    assert [type(x) for x in built] == [Transfer, ClaimViolation, LemmaViolation]
    # the first read of a Fraction view builds it, and later reads reuse it
    first = rep.ledger.vertex_final
    assert views == ["vertex_final"] and rep.ledger.vertex_final is first
    assert first[0] == Fraction(rep.ledger.net[0], _UNIT)
    assert views == ["vertex_final"]


# -- audit row logs -----------------------------------------------------------


def _check_audit(graph):
    """audit's row logs, flags and text equal reference_audit's lists at
    t = 10, 11 and 15, and ledger_csv writes the entry-by-entry writer's
    bytes, from apply_rules' units and from a ledger of Fractions alone."""
    for t in (10, 11, 15):
        rep, want = audit(graph, t), reference_audit(graph, t)
        assert rep.claim_violations == want.claim_violations
        assert rep.lemma_violations == want.lemma_violations
        assert rep.high_vertex_flags == want.high_vertex_flags
        assert rep.violated_lemmas == {lv.lemma for lv in want.lemma_violations}
        assert report_text(rep) == reference_report_text(want)
    assert rep.ledger == want.ledger
    assert (ledger_csv(rep.ledger) == ledger_csv(want.ledger)
            == reference_ledger_csv(want.ledger))
    return rep


def test_audit_flags_five_vertex_on_three_special_faces():
    g, p = triple_special_gadget()
    classes = classify_faces(g)
    assert [classes[fi] for fi, _ in g.passages(p)].count(FaceClass.SPECIAL) == 3
    rep = _check_audit(g)
    assert ("special-faces-num", (p, 3)) in rep.lemma_violations.rows


@pytest.mark.parametrize("name, kwargs", FIXTURE_CASES)
def test_audit_matches_reference_on_fixtures(name, kwargs):
    _check_audit(_fixture_graph(name, kwargs))


def test_audit_matches_reference_on_corpus_and_gadgets(corpus):
    gadgets = [sponsor_gadget(d2, d3, w)[0]
               for d2, d3 in ((3, 3), (3, 4), (4, 4), (2, 3), (2, 4))
               for w in (2, 3)]
    graphs = [*corpus[::10], *gadgets, twisted_sponsor_gadget()[0],
              r2_gadget()[0], r3_gadget()[0], chorded_cycle(1, 310, 2),
              chorded_cycle(1, 440, 3, twisted=True)]
    seen = set()
    for graph in graphs:
        rep = _check_audit(graph)
        seen |= {cv.claim for cv in rep.claim_violations} | rep.violated_lemmas
    assert {"vertex-negative", "face5-negative", "face7-nonpositive",
            "vx-degree", "no-22", "vx-high-general"} <= seen


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(5, 300))
def test_audit_matches_reference_on_random_planar(seed, size):
    _check_audit(gen_planar_girth5(seed, size))


def test_ledger_fraction_views_read_its_units():
    g = fx.terrible_face().graph
    led, transfers = apply_rules(g)
    assert led.n == g.n and len(led.initial) == len(led.net) == g.n + len(g.faces)
    assert all(type(u) is int for u in (*led.initial, *led.net))
    assert led.vertex_initial + led.face_initial == tuple(
        Fraction(u, _UNIT) for u in led.initial)
    assert led.vertex_final + led.face_final == tuple(
        Fraction(u, _UNIT) for u in led.net)
    # a ledger settled in Fractions reads the same once in units
    rebuilt = reference_ledger(g, transfers)
    assert rebuilt == led and ledger_csv(rebuilt) == ledger_csv(led)
    with pytest.raises(ValueError, match="not a whole number"):
        reference_units([Fraction(1, 13)])

