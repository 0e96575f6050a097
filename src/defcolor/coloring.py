"""Defective colorings and an exact backtracking solver.

A coloring partitions the vertices into classes 0..r-1 with a defect
vector (d_0, ..., d_{r-1}); it is valid when class i induces a subgraph
of maximum degree at most d_i.  The paper-style color names "1" and "10"
are the classes whose defects are 1 and 10.

All functions are pure and safe to call from several threads at once.
solve_exact is one loop over the search depth: it never recurses and
leaves interpreter state (the recursion limit included) alone.  It is
deterministic for fixed inputs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .embedding import EmbeddedGraph


class ColoringError(ValueError):
    pass


class PartialColoringError(ColoringError):
    """An operation needing a total coloring was given a partial one."""


def validate_defects(defects: Sequence[int]) -> tuple[int, ...]:
    try:
        d = tuple(map(operator.index, defects))
    except TypeError as exc:
        raise ColoringError(f"defect vector must hold integers: {exc}") from None
    if not d or min(d) < 0:
        raise ColoringError(f"defect vector must be non-empty and non-negative: {d}")
    return d


def _budget(budget: int) -> int:
    """A node budget, checked: a positive integer."""
    try:
        budget = operator.index(budget)
    except TypeError:
        raise ColoringError(f"budget must be an integer, got {budget!r}") from None
    if budget <= 0:
        raise ColoringError("budget must be positive")
    return budget


@dataclass(frozen=True)
class Coloring:
    """Total class assignment (0-based) with its defect vector.

    Construction validates the defect vector and range-checks every
    class.
    """

    assignment: tuple[int, ...]
    defects: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "defects", validate_defects(self.defects))
        r = len(self.defects)
        for v, c in enumerate(self.assignment):
            if not isinstance(c, int) or not 0 <= c < r:
                raise PartialColoringError(f"vertex {v} has no class in 0..{r - 1}")

    def classes(self) -> int:
        return len(self.defects)


def induced_max_degrees(graph: EmbeddedGraph, phi: Coloring) -> list[int]:
    """Maximum degree of each color class's induced subgraph (0 if empty)."""
    if not isinstance(phi, Coloring):
        raise ColoringError(f"expected a Coloring, got {type(phi).__name__}")
    assign = phi.assignment
    if len(assign) != graph.n:
        raise PartialColoringError("coloring must assign every vertex")
    out = [0] * phi.classes()
    for c, nbrs in zip(assign, graph.rotation):
        same = [assign[u] for u in nbrs].count(c)
        if same > out[c]:
            out[c] = same
    return out


def is_valid(graph: EmbeddedGraph, phi: Coloring,
             defects: Sequence[int] | None = None) -> bool:
    """True iff every class's induced maximum degree is within its defect:
    defects when given, else phi's own, with one entry per class of phi."""
    degs = induced_max_degrees(graph, phi)
    d = validate_defects(defects) if defects is not None else phi.defects
    if len(d) != len(degs):
        raise ColoringError(
            f"defect vector has {len(d)} entries for {len(degs)} classes")
    return all(degs[i] <= d[i] for i in range(len(d)))


class SolveStatus(Enum):
    FOUND = "found"
    INFEASIBLE = "infeasible"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SolveResult:
    status: SolveStatus
    coloring: Coloring | None
    nodes: int

    @property
    def found(self) -> bool:
        return self.status is SolveStatus.FOUND


def solve_exact(graph: EmbeddedGraph, defects: Sequence[int],
                budget: int = 10 ** 7) -> SolveResult:
    """Exhaustive search for a valid defective coloring.

    Depth-first over vertices in decreasing-degree order (ties by id),
    each trying its classes in ascending order, as one loop over the
    decision depth i.  A node is one branching attempt (vertex, class),
    counted against the budget whether or not the class is admissible.
    FOUND results always pass is_valid; INFEASIBLE means the whole search
    space was exhausted; UNKNOWN means the node budget ran out first, and
    its nodes is the budget: the attempt that would overrun it is not made.

    Class x is closed at an unassigned vertex w when w has more than d_x
    neighbors in x, or one of them already has d_x; closure only grows as
    the assignment grows.  After each decision a work queue visits the
    unassigned vertices whose closures may have grown: one with no open
    class refutes the decision, and one with exactly one open class takes
    it on a trail, at no node.  Backtracking undoes the trail to the
    decision's mark, and the loop skips forced depths.  Forced vertices
    can sit deeper than i, so the admissibility test and the same-class
    counts read whole neighbor lists.

    The result is the one the plain chronological search returns: a
    forced class agrees with every completion of the current assignment
    and a refuted decision has none, so the first coloring found is the
    same, INFEASIBLE comes exactly when that search exhausts, and each
    node is one of that search's nodes.

    A vertex with b earlier neighbors has an admissible class among any
    b + 1 classes (one holds none of them), so with b_max the largest b
    the chronological search never needs a class past b_max: only classes
    below min(r, b_max + 1) are tried, a bound set by the graph, not by
    the length of the defect vector.
    """
    budget = _budget(budget)
    d = validate_defects(defects)
    n = graph.n
    rotation = graph.rotation
    order = sorted(range(n), key=lambda v: (-len(rotation[v]), v))
    depth = [0] * n
    for i, v in enumerate(order):
        depth[v] = i
    nbrs = [tuple(depth[u] for u in rotation[v]) for v in order]
    b_max = max((sum(1 for u in nb if u < i) for i, nb in enumerate(nbrs)),
                default=0)
    r = min(len(d), b_max + 1)  # classes tried
    dr = d[:r]
    every = (1 << r) - 1  # bit x stands for class x
    assign = [-1] * n  # class at each depth, -1 while unassigned
    same = [0] * n  # same-class neighbors at each assigned depth
    trail = []  # assigned depths in assignment order
    marks = []  # trail length before each standing decision
    nodes = 0
    i = c = 0  # decision depth and the class to try there
    while True:
        if c == r:
            # Depth i has no class left, or the decision just made was
            # refuted: undo the latest decision and try its next class.
            if not marks:
                return SolveResult(SolveStatus.INFEASIBLE, None, nodes)
            mark = marks.pop()
            i = trail[mark]
            c = assign[i] + 1
            while len(trail) > mark:
                w = trail.pop()
                x = assign[w]
                assign[w] = -1
                for u in nbrs[w]:
                    if assign[u] == x:
                        same[u] -= 1
            continue
        if nodes == budget:
            return SolveResult(SolveStatus.UNKNOWN, None, nodes)
        nodes += 1
        dc = dr[c]
        cnt = 0
        for u in nbrs[i]:
            if assign[u] == c:
                cnt += 1
                if cnt > dc or same[u] >= dc:
                    break
        else:
            marks.append(len(trail))
            queue = []  # depths whose closures may have grown
            k = 0
            w, x = i, c
            while True:
                # w takes x: its neighbors' closures grow, and so do the
                # closures of the neighbors of any neighbor that x fills.
                assign[w] = x
                trail.append(w)
                dx = dr[x]
                cnt = 0
                for u in nbrs[w]:
                    if assign[u] == x:
                        cnt += 1
                        same[u] += 1
                        if same[u] == dx:
                            queue += nbrs[u]
                same[w] = cnt
                queue += nbrs[w]
                w = -1
                while k < len(queue):
                    v = queue[k]
                    k += 1
                    if assign[v] >= 0:
                        continue
                    tally = [0] * r
                    shut = 0
                    for u in nbrs[v]:
                        a = assign[u]
                        if a >= 0:
                            tally[a] += 1
                            if tally[a] > dr[a] or same[u] >= dr[a]:
                                shut |= 1 << a
                    left = every & ~shut
                    if not left & (left - 1):  # one open class or none
                        w, x = v, left.bit_length() - 1
                        break
                if w < 0 or x < 0:
                    break
            if w >= 0:  # w has no open class
                c = r
                continue
            while i < n and assign[i] >= 0:
                i += 1
            if i == n:
                return SolveResult(SolveStatus.FOUND,
                                   Coloring(tuple(assign[j] for j in depth), d),
                                   nodes)
            c = 0
            continue
        c += 1
