"""Defective colorings and an exact backtracking solver.

A coloring partitions the vertices into classes 0..r-1 with a defect
vector (d_0, ..., d_{r-1}); it is valid when class i induces a subgraph
of maximum degree at most d_i.  The paper-style color names "1" and "10"
are the classes whose defects are 1 and 10.

All functions are pure and safe to call from several threads at once.
solve_exact is one loop over the search depth: it never recurses and
leaves interpreter state (the recursion limit included) alone.  It is
deterministic for fixed inputs.  It tries vertices in decreasing-degree
order (ties by id); at each depth only the earlier vertices are assigned,
so it reads only a vertex's earlier neighbors, and its table of classes
to try is bounded by the largest number of earlier neighbors, not by the
length of the defect vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .embedding import EmbeddedGraph


class ColoringError(ValueError):
    pass


class PartialColoringError(ColoringError):
    """An operation needing a total coloring was given a partial one."""


def validate_defects(defects: Sequence[int]) -> tuple[int, ...]:
    d = tuple(map(int, defects))
    if not d or min(d) < 0:
        raise ColoringError(f"defect vector must be non-empty and non-negative: {d}")
    return d


@dataclass(frozen=True)
class Coloring:
    """Total class assignment (0-based) with its defect vector.

    Construction validates the defect vector and range-checks every
    class.  solve_exact, which has validated its vector and assigns only
    classes in range, builds its result through _checked instead, so a
    vector is validated once on every path.
    """

    assignment: tuple[int, ...]
    defects: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "defects", validate_defects(self.defects))
        r = len(self.defects)
        for v, c in enumerate(self.assignment):
            if c is None or not (0 <= c < r):
                raise PartialColoringError(f"vertex {v} has no class in 0..{r - 1}")

    @classmethod
    def _checked(cls, assignment: tuple[int, ...],
                 defects: tuple[int, ...]) -> Coloring:
        """A Coloring of an assignment and a validated defect vector whose
        classes are all in range, built without checking them again."""
        self = object.__new__(cls)
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "defects", defects)
        return self

    def classes(self) -> int:
        return len(self.defects)


def _total_assignment(graph: EmbeddedGraph, phi: Coloring) -> tuple[int, ...]:
    """phi's classes, after checking phi is a Coloring of every vertex."""
    if not isinstance(phi, Coloring):
        raise ColoringError(f"expected a Coloring, got {type(phi).__name__}")
    if len(phi.assignment) != graph.n:
        raise PartialColoringError("coloring must assign every vertex")
    return phi.assignment


def _defects_for(phi: Coloring, defects: Sequence[int] | None) -> tuple[int, ...]:
    """The defect vector to check phi against: defects when given, else
    phi's own; one entry per class of phi."""
    d = validate_defects(defects) if defects is not None else phi.defects
    if len(d) != phi.classes():
        raise ColoringError(
            f"defect vector has {len(d)} entries for {phi.classes()} classes")
    return d


def induced_max_degrees(graph: EmbeddedGraph, phi: Coloring) -> list[int]:
    """Maximum degree of each color class's induced subgraph (0 if empty)."""
    assign = _total_assignment(graph, phi)
    out = [0] * phi.classes()
    for v in range(graph.n):
        c = assign[v]
        same = sum(1 for u in graph.rotation[v] if assign[u] == c)
        if same > out[c]:
            out[c] = same
    return out


def is_valid(graph: EmbeddedGraph, phi: Coloring,
             defects: Sequence[int] | None = None) -> bool:
    """True iff every class's induced maximum degree is within its defect."""
    degs = induced_max_degrees(graph, phi)
    d = _defects_for(phi, defects)
    return all(degs[i] <= d[i] for i in range(len(d)))


def is_saturated(graph: EmbeddedGraph, phi: Coloring, v: int,
                 defects: Sequence[int] | None = None) -> bool:
    """True iff v has exactly defect(class(v)) neighbors of its own class."""
    assign = _total_assignment(graph, phi)
    c = assign[v]
    d = _defects_for(phi, defects)
    same = sum(1 for u in graph.rotation[v] if assign[u] == c)
    return same == d[c]


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

    Depth-first over vertices in decreasing-degree order (ties by id), as
    one loop over the depth i.  The vertex v at depth i tries its classes
    in order, rejecting class c when v has more than d_c neighbors in c or
    one of them already has d_c; a placement moves i up one.  Running out
    of classes unassigns v and moves i down one, where that vertex takes
    its class off and tries the next.  Each (vertex, class) attempt is a
    node counted against the budget.  FOUND results always pass is_valid;
    INFEASIBLE means the whole search space was exhausted; UNKNOWN means
    the node budget ran out first.

    At depth i exactly the vertices at depths 0..i-1 are assigned, so the
    loop works on depths, not ids, and each step reads only back[i], the
    depths of v's earlier neighbors.  The classes to try after c come
    from a table of (class, defect) pairs.  A vertex with b earlier
    neighbors has an admissible class among any b + 1 classes (one holds
    none of them), so with b_max the largest b, the search never
    backtracks when r > b_max: the table keeps min(r, b_max + 1) + 1
    rows of at most b_max + 1 pairs, bounded by the graph, not by r.
    """
    if budget <= 0:
        raise ColoringError("budget must be positive")
    d = validate_defects(defects)
    r = len(d)
    n = graph.n
    rotation = graph.rotation
    order = sorted(range(n), key=lambda v: (-len(rotation[v]), v))
    depth = [0] * n
    for i, v in enumerate(order):
        depth[v] = i
    back = [tuple(depth[u] for u in rotation[v] if depth[u] < i)
            for i, v in enumerate(order)]
    span = max(map(len, back), default=0) + 1
    steps = [tuple((c, d[c]) for c in range(k, min(r, k + span)))
             for k in range(min(r, span) + 1)]  # steps[c + 1]: classes after c
    assign = [-1] * n  # class at each depth, -1 while unassigned
    same = [0] * n  # same-class neighbors at each assigned depth
    nodes = 0
    i = 0
    while 0 <= i < n:
        bk = back[i]
        c = assign[i]
        # Backtracked here: take c off.  Every later depth is unassigned,
        # so same[i] counts earlier neighbors only; at 0 there is none in c.
        if c >= 0 and same[i]:
            for u in bk:
                if assign[u] == c:
                    same[u] -= 1
        for c, dc in steps[c + 1]:
            nodes += 1
            if nodes > budget:
                return SolveResult(SolveStatus.UNKNOWN, None, nodes)
            cnt = 0
            for u in bk:
                if assign[u] == c:
                    cnt += 1
                    if cnt > dc or same[u] >= dc:
                        break
            else:
                assign[i] = c
                same[i] = cnt
                if cnt:
                    for u in bk:
                        if assign[u] == c:
                            same[u] += 1
                i += 1
                break
        else:
            assign[i] = -1
            i -= 1
    if i < 0:
        return SolveResult(SolveStatus.INFEASIBLE, None, nodes)
    return SolveResult(SolveStatus.FOUND,
                       Coloring._checked(tuple(assign[k] for k in depth), d),
                       nodes)
