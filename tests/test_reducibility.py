"""Pinned extension states and branch tallies of the kind-3 and kind-4
reductions, from the exhaustive check in reducibility.py.

Each pin is (states run, (deleted kind-4 branches that fit, states
on which they were tried), leaf-count states by branch taken).  After an
intended change, print fresh pins with
``PYTHONPATH=src python tests/reducibility.py``.
"""

from functools import cache

import pytest

from defcolor.colorer import _Residual
from defcolor.embedding import require_girth5

import reducibility as red

PINS = {
    "terrible_face() t=10": (6874, (0, 180), {
        "v4:S": 289784,
        "v4:B": 68200,
        "u4:B v4:S": 3048,
        "v4:B vi:S": 184,
        "v4:B vi:S ui:B": 116,
    }),
    "terrible_face(w4_children=10) t=10": (8831, (0, 225), {
        "v4:S": 1033472,
        "v4:B": 196762,
        "u4:B v4:S": 8728,
        "w4:S u4:B v4:S": 710,
        "v4:B vi:S ui:B": 620,
        "v4:B vi:S": 238,
    }),
    "terrible_face(v_deg=17) t=15": (13595, (0, 318), {
        "v4:S": 558856,
        "v4:B": 114856,
        "u4:B v4:S": 4000,
    }),
    "all_low_gadget(10) t=10": (372, (0, 0), {
        "v:B": 1084,
        "v:S": 720,
        "n:S v:B": 48,
    }),
    "all_low_gadget(15) t=15": (372, (0, 0), {
        "v:B": 2224,
        "v:S": 1680,
        "n:S v:B": 68,
    }),
}

KIND4 = [name for name in red.CONFIGS if name.startswith("terrible_face")]
KIND3 = [name for name in red.CONFIGS if name.startswith("all_low_gadget")]


@cache
def _run(name):
    config = red.CONFIGS[name]()
    return config, red.enumerate_states(*config)


@pytest.mark.parametrize("name", list(red.CONFIGS))
def test_every_state_extends_as_pinned(name):
    # a state that no branch extends raises ExtensionFailedError
    _, (states, branches, deleted) = _run(name)
    assert (states, deleted, dict(branches)) == PINS[name]


def test_every_kept_kind4_branch_is_taken():
    kept, taken = set(), set()
    for name in KIND4:
        config, (_, branches, _) = _run(name)
        roles = config[3]
        kept |= {red.branch_key(roles, m)
                 for m in red.kind4_branches(*config)[0]}
        taken |= set(branches)
    assert taken == kept
    # the w4 chain needs w4 saturated in the big class by its children
    assert "w4:S u4:B v4:S" in _run(KIND4[1])[1][1]


def test_deleted_kind4_branches_never_fit():
    for name in KIND4:
        _, (_, _, (fits, tried)) = _run(name)
        assert tried and fits == 0


def test_kind3_takes_both_outcomes():
    for name in KIND3:
        (graph, row, t, _), (_, branches, _) = _run(name)
        require_girth5(graph, "reducibility")
        # the fresh worklist queues for kind 3 exactly the low vertices
        # with no high neighbor
        assert _Residual(graph, t).queued[2][row[1][0]]
        # no small neighbor; or saturated big neighbors to small, v big
        assert {"v:S", "n:S v:B"} <= set(branches)


def test_outcome_classes_stand_for_every_leaf_count():
    for name in KIND3:
        config, (states, branches, _) = _run(name)
        exact_states, exact, _ = red.enumerate_states(*config, exact=True)
        assert exact_states == sum(exact.values()) > states
        assert exact == branches
