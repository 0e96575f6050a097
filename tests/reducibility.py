"""Exhaustive extension check of the colorer's kind-3 and kind-4 branches.

A configuration is a fixture graph, one kind-3 or kind-4 step row of it
and the threshold t.  Its extension states are the valid
(1, t)-colorings of the graph minus the row's deleted vertices.  Every
state runs through the colorer's own _apply_extension, and the branch
it takes is tallied by the roles of the vertices it moves: v4, u4, w4,
a ring 2-vertex vi and its other neighbor ui for kind 4; the deleted
vertex v and its neighbors n for kind 3.

Leaves are degree-1 vertices that no branch moves.  A parent's leaves
are interchangeable, so a state fixes only how many of them are in the
small class: a leaf-count state.  Of those counts one per outcome class
is run.  A check on the parent p reads the number of its neighbors in
one class, and a branch moves at most D of p's neighbors, so every small
count of D + 2 or more reads alike, and so does every big count of
t - D or less.  The tallies count leaf-count states.

Kind 4's proof needs no {u4: small, v4: big} or {w4: small, v4: big}
branch (see colorer._moves).  On every state where {v4: small} and
{v4: big} both fail, the check applies each of those two branches
directly and counts the ones that fit, judged by the recounting
oracles._reference_within_defects rather than the colorer's own counts.

After an intended change, print fresh pins with
``PYTHONPATH=src python tests/reducibility.py``.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

from defcolor import fixtures as fx
from defcolor.colorer import (C_BIG, C_SMALL, ReductionKind,
                              _apply_extension, _find_terrible_reduction,
                              _moves, _same_counts)

from gadget_builders import all_low_gadget
from oracles import _reference_within_defects

_KIND3, _KIND4 = (ReductionKind.ALL_LOW_DEGREE_NEIGHBORS,
                  ReductionKind.TERRIBLE_RICH_HIGH_VERTEX)

# The two kind-4 branches the proof rules out (see colorer._moves), by role.
DELETED_BRANCHES = ((("u4", C_SMALL), ("v4", C_BIG)),
                    (("w4", C_SMALL), ("v4", C_BIG)))


def kind4_config(t, **knobs):
    """(graph, row, t, roles) of the kind-4 scan of terrible_face(**knobs)."""
    graph = fx.terrible_face(**knobs).graph
    row = _find_terrible_reduction(graph, [len(r) for r in graph.rotation], t)
    w = row[2]
    roles = {row[1][0]: "v4", w["u4"]: "u4", w["w4"]: "w4"}
    for vi, ui in w["ring_two"]:
        roles[vi], roles[ui] = "vi", "ui"
    return graph, row, t, roles


def kind3_config(t):
    """(graph, row, t, roles) of the kind-3 row at all_low_gadget(t)'s v."""
    graph, v = all_low_gadget(t)
    roles = dict.fromkeys(graph.rotation[v], "n")
    roles[v] = "v"
    return graph, (_KIND3, (v,), None), t, roles


CONFIGS = {
    "terrible_face() t=10": lambda: kind4_config(10),
    "terrible_face(w4_children=10) t=10":
        lambda: kind4_config(10, w4_children=10),
    "terrible_face(v_deg=17) t=15": lambda: kind4_config(15, v_deg=17),
    "all_low_gadget(10) t=10": lambda: kind3_config(10),
    "all_low_gadget(15) t=15": lambda: kind3_config(15),
}


def branch_key(roles, actions):
    """A branch's actions as words "role:S" or "role:B"."""
    return " ".join(f"{roles[x]}:{'SB'[c]}" for x, c in actions)


def kind4_branches(graph, row, t, roles):
    """The kept kind-4 branches, then the deleted ones, as actions."""
    where = {role: x for x, role in roles.items()}
    deleted = [tuple((where[r], c) for r, c in b) for b in DELETED_BRANCHES]
    # kind 4's branches depend on the witness only, not on the classes
    return _moves(graph.rotation, None, None, row, t), deleted


def _core_colorings(rotation, core, t):
    """Every class tuple over core whose vertices keep their defects
    among core neighbors, by backtracking in core order."""
    defects = (1, t)
    pos = {x: i for i, x in enumerate(core)}
    nbrs = [[pos[y] for y in rotation[x] if y in pos] for x in core]
    classes = [-1] * len(core)
    count = [[0, 0] for _ in core]  # colored core neighbors per class

    def place(i):
        if i == len(core):
            yield tuple(classes)
            return
        for c in (C_SMALL, C_BIG):
            if count[i][c] > defects[c] or any(
                    classes[j] == c and count[j][c] == defects[c]
                    for j in nbrs[i]):
                continue
            classes[i] = c
            for j in nbrs[i]:
                count[j][c] += 1
            yield from place(i + 1)
            for j in nbrs[i]:
                count[j][c] -= 1
        classes[i] = -1

    yield from place(0)


def _leaf_options(own, small, big, leaves, t, reach, moved):
    """(small-leaf count, leaf-count states) per outcome class of a
    parent in class own with small and big other neighbors, leaves
    leaves, at most reach of its neighbors moved by one branch, and
    itself moved by some branch when moved is true."""
    classes = {}
    for k in range(leaves + 1):
        s, b = small + k, big + leaves - k
        if s > 1 if own == C_SMALL else b > t:
            continue
        key = (min(s, reach + 2) if moved or own == C_SMALL else None,
               max(b, t - reach) if moved or own == C_BIG else None)
        rep, weight = classes.get(key, (k, 0))
        classes[key] = rep, weight + 1
    return list(classes.values())


def enumerate_states(graph, row, t, roles, exact=False):
    """Run every extension state of the configuration, one leaf-count
    state per outcome class, or every leaf-count state when exact.

    Returns (states, branches, deleted_fits): the number of states run,
    a Counter of leaf-count states by branch_key of the branch taken, and
    for kind 4 the pair (deleted branches that fit, states on which they
    were tried).  A state no branch extends raises ExtensionFailedError.
    """
    rotation = graph.rotation
    if row[0] is _KIND4:
        kept, deleted_moves = kind4_branches(graph, row, t, roles)
        move_sets = [{x for x, _ in m} for m in kept + deleted_moves]
        singles = kept[:2]
    else:
        move_sets, deleted_moves, singles = [set(roles)], [], []
    moved = set().union(*move_sets)
    parents = {}
    for x, nbrs in enumerate(rotation):
        if len(nbrs) == 1 and x not in moved and nbrs[0] not in row[1]:
            parents.setdefault(nbrs[0], []).append(x)
    leaves = {x for xs in parents.values() for x in xs}
    core = [x for x in range(graph.n) if x not in row[1] and x not in leaves]
    others = {p: [y for y in rotation[p] if y not in leaves] for p in parents}
    reach = {p: t if exact else max(len(s.intersection(rotation[p]))
                                    for s in move_sets)
             for p in parents}

    phi = [-1] * graph.n
    states = tried = fits = 0
    branches = Counter()
    for classes in _core_colorings(rotation, core, t):
        for x, c in zip(core, classes):
            phi[x] = c
        options = []
        for p, xs in parents.items():
            around = [phi[y] for y in others[p]]
            options.append(_leaf_options(
                phi[p], around.count(C_SMALL), around.count(C_BIG), len(xs),
                t, reach[p], p in moved))
        for choice in product(*options):
            weight = 1
            for xs, (k, w) in zip(parents.values(), choice):
                weight *= w
                for i, x in enumerate(xs):
                    phi[x] = C_SMALL if i < k else C_BIG
            saved = [(x, phi[x]) for x in moved]
            same = _same_counts(rotation, phi)
            actions = _apply_extension(graph, phi, same, row, t)
            for x, c in saved:
                phi[x] = c
            states += 1
            branches[branch_key(roles, actions)] += weight
            if deleted_moves and actions not in singles:
                tried += 1
                for move in deleted_moves:
                    for x, c in move:
                        phi[x] = c
                    fits += _reference_within_defects(rotation, phi, (1, t),
                                                      move)
                    for x, c in saved:
                        phi[x] = c
    return states, branches, (fits, tried)


if __name__ == "__main__":
    print("PINS = {")
    for name, build in CONFIGS.items():
        states, branches, deleted = enumerate_states(*build())
        print(f'    "{name}": ({states}, {deleted}, {{')
        for key, count in branches.most_common():
            print(f'        "{key}": {count},')
        print("    }),")
    print("}")
