"""The colorer's worklist against a full rescan before every deletion.

color picks each reduction from per-kind candidate heaps that deletions
update locally; oracles.reference_steps rescans the whole residual graph
instead.  Both must yield the same steps in the same order, so the
traces (and everything derived from them) cannot tell the two apart.
"""

from collections import Counter

import pytest

from defcolor.colorer import ReductionKind, color

from gadget_builders import gen_girth5_small
from oracles import reference_steps
from test_golden import FIXTURE_CASES, _fixture_graph

THRESHOLDS = (10, 15)


def _assert_same_steps(graph, t, kinds):
    res = color(graph, t)
    steps = [e.step for e in res.trace.steps]
    assert res.coloring is not None
    assert steps == reference_steps(graph, t)
    kinds.update(s.kind for s in steps)


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
