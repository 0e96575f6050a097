"""The colorer's worklist against a full rescan before every deletion.

color picks each reduction from per-kind candidate heaps that deletions
update locally; oracles.reference_steps rescans the whole residual graph
instead.  Both must yield the same steps in the same order, so the
traces (and everything derived from them) cannot tell the two apart.
The worklist's starting candidates must also be audit's lemma witnesses,
and its high-neighbor counts must stay those of the residual graph.
"""

import dataclasses
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from defcolor import colorer
from defcolor.colorer import (ReductionKind, ReductionStep, _Residual,
                              capacity, color)
from defcolor.discharging import _near_high, audit, structural_thresholds
from defcolor.embedding import EmbeddedGraph
from defcolor.fixtures import path_graph

from gadget_builders import (chorded_cycle, gen_girth5_small, long_cycle,
                             low_trigger_gadget, random_tree, tripod_lattice,
                             two_trigger_gadget)
from oracles import reference_steps
from test_golden import FIXTURE_CASES, _fixture_graph

THRESHOLDS = (10, 15)


def _assert_same_steps(graph, t, kinds):
    res = color(graph, t)
    steps = [dataclasses.replace(e, actions=()) for e in res.trace.steps]
    assert res.coloring is not None
    assert steps == reference_steps(graph, t)
    kinds.update(s.kind for s in steps)
    return steps


@pytest.mark.parametrize("t", THRESHOLDS)
def test_worklist_matches_rescan_on_small_random_graphs(t):
    # arbitrary rotations and many low-degree vertices: the all-low rule
    # fires here far more often than on the planar corpus
    kinds = Counter()
    for seed in range(100):
        for n in (20, 40, 80):
            _assert_same_steps(gen_girth5_small(seed, n), t, kinds)
    assert kinds[ReductionKind.ALL_LOW_DEGREE_NEIGHBORS] > 3000


@pytest.mark.parametrize("t", THRESHOLDS)
def test_worklist_matches_rescan_on_fixtures(t):
    kinds = Counter()
    for name, kwargs in FIXTURE_CASES:
        _assert_same_steps(_fixture_graph(name, kwargs), t, kinds)
    # kind 4 never fires inside color here: leaves and 2-vertices reduce
    # every fixture first
    assert set(kinds) == set(ReductionKind) - {
        ReductionKind.TERRIBLE_RICH_HIGH_VERTEX}


@pytest.mark.parametrize("t", THRESHOLDS)
def test_worklist_matches_rescan_on_corpus_slice(corpus, t):
    kinds = Counter()
    for graph in corpus[::10]:
        _assert_same_steps(graph, t, kinds)
    assert kinds[ReductionKind.ADJACENT_TWO_VERTICES] > 0


GATE_SHAPES = (
    [("cycle", long_cycle(n), 0) for n in (5, 6, 213, 217)]
    + [("path", path_graph(n), 0) for n in (1, 2, 243, 247)]
    + [("tree", random_tree(seed, 270), 0) for seed in range(4)]
    + [("chords-genus2", chorded_cycle(seed, 310, 2), 2) for seed in range(3)]
    + [("twisted-genus3", chorded_cycle(seed, 440, 3, twisted=True), 3)
       for seed in range(3)])


@pytest.mark.parametrize("name, graph, genus", GATE_SHAPES,
                         ids=[f"{name}-{g.n}" for name, g, _ in GATE_SHAPES])
def test_worklist_matches_rescan_on_gate_shapes(name, graph, genus):
    # long girth at the genus capacity: t = 11 on the genus-2 chords and
    # t = 15 on the twisted genus-3 ones
    assert graph.genus == genus
    _assert_same_steps(graph, capacity(genus), Counter())


def test_reoffer_when_a_neighbor_drops_to_degree_two():
    g = two_trigger_gadget()
    steps = _assert_same_steps(g, 10, Counter())
    assert steps[:2] == [
        ReductionStep(ReductionKind.DEGREE_AT_MOST_ONE, (22,), None),
        ReductionStep(ReductionKind.ADJACENT_TWO_VERTICES, (20, 21), None)]


def test_reoffer_when_a_hub_drops_to_low_degree():
    g = low_trigger_gadget()
    assert g.degree(22) == 12  # high at t = 10, low once its leaf is gone
    steps = _assert_same_steps(g, 10, Counter())
    assert steps[:2] == [
        ReductionStep(ReductionKind.DEGREE_AT_MOST_ONE, (23,), None),
        ReductionStep(ReductionKind.ALL_LOW_DEGREE_NEIGHBORS, (0,), None)]


def test_kind4_scan_runs_only_on_a_nonempty_residual(corpus, monkeypatch):
    # kinds 1-3 empty the corpus and the gate shapes, so steps() stops
    # before the scan, which embeds each residual component anew; the
    # torus lattice has no kind-1..3 witness, and is scanned
    scans = []
    scan = colorer._find_terrible_reduction

    def counted(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(colorer, "_find_terrible_reduction", counted)
    for t in THRESHOLDS:
        for graph in corpus[::10]:
            color(graph, t)
    for _, graph, genus in GATE_SHAPES:
        color(graph, capacity(genus))
    assert scans == []
    assert color(tripod_lattice(6, 6), 10).trace.fallback
    assert len(scans) >= 1


def _lemma_graphs(corpus):
    return (corpus[::10]
            + [_fixture_graph(name, kwargs) for name, kwargs in FIXTURE_CASES]
            + [graph for _, graph, _ in GATE_SHAPES])


@pytest.mark.parametrize("t", (10, 11, 15))
def test_starting_candidates_are_the_audit_witnesses(corpus, t):
    # kinds 1-3 are the min-degree, no-22 and vx-degree lemmas
    for graph in _lemma_graphs(corpus):
        found = {"min-degree": set(), "no-22": set(), "vx-degree": set()}
        for lemma, witness in audit(graph, t).lemma_violations.rows:
            if lemma in found:
                found[lemma].update(witness)
        queued = [{v for v, here in enumerate(q) if here}
                  for q in _Residual(graph, t).queued]
        assert queued == [found["min-degree"], found["no-22"],
                          found["vx-degree"]]


@pytest.mark.parametrize("t", (10, 11, 15))
def test_high_counts_follow_every_deletion(corpus, t):
    _, high = structural_thresholds(t)
    for graph in _lemma_graphs(corpus):
        residual = _Residual(graph, t)
        deg, highs = residual.deg, residual.highs
        # each row's vertices are deleted when steps() resumes: the counts
        # are checked at every row, after the deletion before it, and last
        # after the final deletion
        for _ in chain(residual.steps(), [None]):
            fresh = _near_high(graph.rotation, deg, high)
            assert all(highs[v] == fresh[v]
                       for v in range(graph.n) if deg[v] >= 0)


def _distance(nbrs, a, b):
    """Edges on a shortest a-b path (len(nbrs) when there is none)."""
    dist, order = {a: 0}, [a]
    for v in order:  # order grows while it is walked
        for u in nbrs[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                order.append(u)
    return dist.get(b, len(nbrs))


@st.composite
def _two_terminal_graphs(draw):
    """(graph, t, hubs): two to five paths between vertices 0 and 1, of
    length >= 2 and at most one of length 2, so every cycle has length
    >= 5; then a few more paths between any two vertices, each kept only
    when it closes no cycle shorter than 5 and leaves every degree <= 6;
    pendant vertices hung from vertices other than 0 and 1, up to degree
    10; and the first ``hubs`` of vertices 0 and 1 grown by leaves to
    degree >= t + 2."""
    t = draw(st.integers(10, 13))
    hubs = draw(st.integers(0, 2))
    lengths = sorted(draw(st.lists(st.integers(2, 6), min_size=2, max_size=5)))
    lengths[1:] = [max(3, k) for k in lengths[1:]]
    nbrs = [[], []]

    def hang(u):
        nbrs.append([u])
        nbrs[u].append(len(nbrs) - 1)
        return len(nbrs) - 1

    def join(a, b, k):
        for _ in range(k - 1):
            a = hang(a)
        nbrs[a].append(b)
        nbrs[b].append(a)

    for k in lengths:
        join(0, 1, k)
    picks = st.integers(0, 10 ** 6)
    for x, y, k in draw(st.lists(st.tuples(picks, picks, st.integers(2, 3)),
                                 max_size=10)):
        a, b = x % len(nbrs), y % len(nbrs)
        if (a != b and _distance(nbrs, a, b) + k >= 5
                and max(len(nbrs[a]), len(nbrs[b])) < 6):
            join(a, b, k)
    for x in draw(st.lists(picks, max_size=8)):
        u = 2 + x % (len(nbrs) - 2)
        if len(nbrs[u]) < 10:
            hang(u)
    for h in range(hubs):
        for _ in range(t + 2 + draw(st.integers(0, 3)) - len(nbrs[h])):
            hang(h)
    return EmbeddedGraph(nbrs), t, hubs


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_two_terminal_graphs())
def test_vx_high_general_needs_no_reduction(case):
    # the colorer's docstring argues that a graph with at most two (t+2)+
    # vertices always has a kind-1..3 witness; deletions keep it so, and
    # the residual graph empties without the kind-4 scan or the fallback
    graph, t, hubs = case
    _, high = structural_thresholds(t)
    assert sum(1 for v in range(graph.n) if graph.degree(v) >= high) == hubs
    assert "vx-high-general" in audit(graph, t).violated_lemmas
    left = graph.n
    for row in _Residual(graph, t).steps():
        assert row[0] is not ReductionKind.TERRIBLE_RICH_HIGH_VERTEX
        left -= len(row[1])
    assert left == 0  # steps() ran out of rows only on an empty graph
