"""Constructive (1, t)-coloring by reducible configurations.

The colorer repeatedly finds one of four local configurations, deletes
its witness vertices, colors the rest, and extends the coloring back.
Each breaks one of audit's structural lemmas:

  1. a vertex of degree at most one (min-degree),
  2. two adjacent 2-vertices (no-22),
  3. a low vertex all of whose neighbors are low (vx-degree),
  4. a high vertex with more incident Terrible faces than its bound
     allows, from which a 2-vertex is deleted (terrible-faces-num).

Low and high are discharging.structural_thresholds(t); the Terrible faces
are classified with the fixed high degree 12 of the face patterns.

If no configuration exists the colorer falls back to the exact solver;
at t = 10 on genus <= 1 this is flagged as an anomaly: a counterexample.

vx-high-general (fewer than three high vertices on a graph with a
cycle) needs no reduction of its own: a nonempty graph with at most two
high vertices, h1 and h2 (either may be missing), always has a kind 1-3
witness.  Suppose it has none.  Then every low vertex has a high
neighbor.  Take a low vertex v next to h1 but not h2.  A low neighbor w
of v has a high neighbor too, and it is h2, as h1 would close a
triangle; v has at most one such w, as two would close a 4-cycle
through h2.  So v has degree <= 2, and so has w, which is next to h2 but
not h1: v is a kind-1 witness, or v and w are adjacent 2-vertices (kind
2).  So every low vertex is next to both h1 and h2, and by girth 5 at
most one vertex is; but the graph is not empty, and a high vertex has
at least t + 2 neighbors, all low but one.  Deletions never add a high
vertex, so such a graph reduces to nothing by kinds 1-3.

The extension walks the steps in reverse: before each step the colored
vertices are exactly the residual graph the step was found in, minus its
deleted vertices.  It keeps same[v], v's colored neighbors in v's own
class, current through every move, so a step costs the degrees of the
vertices it moves.  tests/reducibility.py extends every coloring state of
the kind-3 and kind-4 fixtures through each branch of _moves and fails
none.

Class 0 is the defect-1 class, class 1 the defect-t class.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from typing import Iterator, Sequence

from .coloring import Coloring, SolveStatus, _budget, is_valid, solve_exact
from .discharging import (HIGH_DEGREE, MIN_T, FaceClass, RowLog, _near_high,
                          capacity, classify_faces, excess_terrible,
                          structural_thresholds)
from .embedding import EmbeddedGraph, induced_embedding, require_girth5
# bench/selftest.py checks that tracing also rebinds girth under this module
from .embedding import girth  # noqa: F401

C_SMALL = 0  # defect-1 class (paper color "1")
C_BIG = 1    # defect-t class (paper color "10")


class ExtensionFailedError(RuntimeError):
    """No recoloring branch extended the sub-coloring: an implementation
    bug or a counterexample to the step's reduction lemma."""

    def __init__(self, message: str, step: "ReductionStep", phi: list[int]):
        super().__init__(message)
        self.step = step
        # phi is the class list at the failure, -1 for uncolored
        self.phi = {v: c for v, c in enumerate(phi) if c >= 0}


class ReductionKind(Enum):
    DEGREE_AT_MOST_ONE = "degree-at-most-one"
    ADJACENT_TWO_VERTICES = "adjacent-two-vertices"
    ALL_LOW_DEGREE_NEIGHBORS = "all-low-degree-neighbors"
    TERRIBLE_RICH_HIGH_VERTEX = "terrible-rich-high-vertex"


# Kinds 1-4 for the hot loops: a member lookup on an Enum class is a
# metaclass call.
_KIND1, _KIND2, _KIND3, _KIND4 = ReductionKind


@dataclass(frozen=True)
class ReductionStep:
    """One step row: the witness is None for kinds 1-3, and actions are
    the (vertex, class) moves of its extension, in the order applied."""

    kind: ReductionKind
    deleted: tuple[int, ...]
    witness: dict | None
    actions: tuple[tuple[int, int], ...] = ()


@dataclass
class ColoringTrace:
    """Deletion-ordered step rows, read as ReductionStep objects, and the
    base coloring of the irreducible rest: replay_trace applies the actions
    in reverse over base and gets the final coloring."""

    steps: RowLog[ReductionStep]
    base: dict[int, int]
    fallback: bool
    anomaly: bool
    t: int


@dataclass
class ColorResult:
    coloring: Coloring | None
    trace: ColoringTrace
    solve_status: SolveStatus | None = None


# ---------------------------------------------------------------------------
# Reduction search
# ---------------------------------------------------------------------------


class _Residual:
    """The shrinking graph of a reduction run and its kind-1..3 worklist.

    deg[v] is the residual degree of v, or -1 once v is deleted, and
    highs[v] the number of v's present neighbors of degree >= high.
    heaps[k] holds every vertex that may be the kind-(k + 1) witness, each
    at most once (queued[k][v]), re-checked at the top and dropped when
    stale.  steps() runs the reduction; the search costs
    O(sum of deg(v)^2 + m log n) over the run.

    Every deleted vertex is low: kinds 1, 2 and 4 delete vertices of
    degree <= 2, kind 3 one of degree <= low.  So a deletion changes a
    high count only through a neighbor u whose degree falls to low.  By
    girth >= 5 it lowers the degree of each present neighbor u of a
    deleted vertex by exactly one (no vertex is adjacent to both of a
    kind-2 pair: that closes a triangle) and no other degree.  A vertex w
    further away keeps its degree and kind-1 status; its kind-2 status
    can turn on only through a neighbor u whose degree just became 2, its
    kind-3 status only through one whose degree just became low.  A
    deletion tests u and its neighbors on these two triggers only; each
    fires at most once per u.
    """

    def __init__(self, graph: EmbeddedGraph, t: int):
        self.graph = graph
        self.t = t
        low, high = structural_thresholds(t)
        self.low = low
        n = graph.n
        rotation = graph.rotation
        self.deg = deg = [len(nbrs) for nbrs in rotation]
        self.highs = highs = _near_high(rotation, deg, high)
        # the ascending candidate lists are already heaps
        self.heaps = ones, pairs, lows = [], [], []
        for v, d in enumerate(deg):
            if d <= low:
                if d <= 1:
                    ones.append(v)
                elif d == 2 and 2 in [deg[w] for w in rotation[v]]:
                    pairs.append(v)
                if not highs[v]:
                    lows.append(v)
        self.queued = tuple(bytearray(n) for _ in self.heaps)
        for heap, queued in zip(self.heaps, self.queued):
            for v in heap:
                queued[v] = 1

    def steps(self) -> Iterator[tuple]:
        """Yield the row (kind, deleted, witness) of the first reducible
        configuration of the residual graph, and delete its vertices when
        resumed, until the graph is empty or has none.  The row is of the
        lowest kind that occurs, with the smallest witness id; for kind 2
        the smaller 2-vertex u, paired with its smallest 2-neighbor.  The
        witness is None for kinds 1-3."""
        graph, t, low = self.graph, self.t, self.low
        rotation, deg, highs = graph.rotation, self.deg, self.highs
        ones, pairs, lows = self.heaps
        in_ones, in_pairs, in_lows = self.queued
        left = graph.n
        while left:
            # a kind-1 witness stays one until it is deleted
            while ones and deg[ones[0]] < 0:
                in_ones[heappop(ones)] = 0
            if ones:
                row = _KIND1, (ones[0],), None
            else:
                while pairs:
                    u = pairs[0]
                    if deg[u] == 2:
                        twos = [w for w in rotation[u] if deg[w] == 2]
                        if twos:
                            break
                    in_pairs[heappop(pairs)] = 0
                if pairs:
                    row = _KIND2, (u, min(twos)), None
                else:
                    while lows:
                        v = lows[0]
                        if 0 <= deg[v] <= low and not highs[v]:
                            break
                        in_lows[heappop(lows)] = 0
                    if lows:
                        row = _KIND3, (v,), None
                    else:
                        row = _find_terrible_reduction(graph, deg, t)
                        if row is None:
                            return
            yield row
            deleted = row[1]
            left -= len(deleted)
            for v in deleted:
                deg[v] = -1
                for u in rotation[v]:
                    if deg[u] >= 0:
                        deg[u] -= 1
            for v in deleted:
                for u in rotation[v]:
                    d = deg[u]
                    if d < 0:
                        continue
                    if d <= 1:
                        if not in_ones[u]:
                            in_ones[u] = 1
                            heappush(ones, u)
                    elif d == 2:  # first trigger: u pairs with its 2-neighbors
                        for w in rotation[u]:
                            if deg[w] == 2:
                                for x in (u, w):
                                    if not in_pairs[x]:
                                        in_pairs[x] = 1
                                        heappush(pairs, x)
                    elif d == low:  # second trigger: u is high no more
                        for w in rotation[u]:
                            highs[w] -= 1
                        for w in (u, *rotation[u]):
                            if (not in_lows[w] and 0 <= deg[w] <= low
                                    and not highs[w]):
                                in_lows[w] = 1
                                heappush(lows, w)


def _components(graph, deg):
    """Each component of the residual graph (deg >= 0), by least vertex,
    as (sorted vertices comp, induced embedding): its vertex i is comp[i]."""
    seen = set()
    for start in range(graph.n):
        if deg[start] >= 0 and start not in seen:
            seen.add(start)
            comp = [start]
            for v in comp:  # comp grows while it is walked
                for u in graph.rotation[v]:
                    if deg[u] >= 0 and u not in seen:
                        seen.add(u)
                        comp.append(u)
            comp.sort()
            yield comp, induced_embedding(graph, comp)[0]


def _find_terrible_reduction(graph: EmbeddedGraph, deg: Sequence[int],
                             t: int) -> tuple | None:
    """Kind-4 scan of the residual graph (deg >= 0): the first hub, by
    component and then by id, with too many Terrible faces, as a step row
    (kind, deleted, witness); the witness omits v4, which is deleted[0].

    v4 is picked so that the face three rotation steps earlier is not
    terrible, matching the reduction's case analysis.  u4 matches the
    pattern 24LH, so off the face it has one neighbor below HIGH_DEGREE:
    w4.  No component is too small to scan: kinds 1-3 have run dry, so
    every residual degree is >= 2, each component has a cycle, and by
    girth >= 5 at least 5 vertices.
    """
    _, high = structural_thresholds(t)
    for comp, sub in _components(graph, deg):
        classes = classify_faces(sub)
        for v in range(sub.n):
            terrible = excess_terrible(sub, classes, v, high)
            if not terrible:
                continue
            # corner i of v lies between rot[i-1] and rot[i]
            rot, ring = sub.rotation[v], sub.passages(v)
            pick = next((j for j in terrible
                         if classes[ring[j - 3][0]] is not FaceClass.TERRIBLE),
                        terrible[0])
            v4, face = rot[pick - 1], sub.faces[ring[pick][0]]
            u4 = next(u for u in sub.rotation[v4] if u != v)
            w4 = next(u for u in sub.rotation[u4]
                      if u not in face and sub.degree(u) < HIGH_DEGREE)
            ring_two = tuple(
                (comp[vi], comp[next(u for u in sub.rotation[vi] if u != v)])
                for vi in rot if sub.degree(vi) == 2 and vi != v4)
            return _KIND4, (comp[v4],), {
                "hub": comp[v], "u4": comp[u4], "w4": comp[w4],
                "face": tuple(comp[u] for u in face), "ring_two": ring_two}
    return None


# ---------------------------------------------------------------------------
# Extension
# ---------------------------------------------------------------------------


def _same_counts(rotation, phi):
    """same[v] for a class list phi: v's colored neighbors in v's own
    class, 0 while v is uncolored."""
    return [[phi[u] for u in nbrs].count(c) if c >= 0 else 0
            for c, nbrs in zip(phi, rotation)]


def _assign(rotation, phi, same, actions):
    """Apply (vertex, class) actions to phi in order, class -1 uncoloring
    the vertex, and keep same current."""
    for x, c in actions:
        old = phi[x]
        if old == c:
            continue
        nbrs = rotation[x]
        if old >= 0:
            for u in nbrs:
                if phi[u] == old:
                    same[u] -= 1
        phi[x] = c
        k = 0
        if c >= 0:
            for u in nbrs:
                if phi[u] == c:
                    same[u] += 1
                    k += 1
        same[x] = k


def _within_defects(rotation, phi, same, defects, move):
    """Whether every moved vertex and colored neighbor keeps its defect."""
    for x, _ in move:
        if same[x] > defects[phi[x]]:
            return False
        for y in rotation[x]:
            c = phi[y]
            if c >= 0 and same[y] > defects[c]:
                return False
    return True


def _moves(rotation, phi, same, row, t):
    """The recoloring branches of a kind-3 or kind-4 step row in proof
    order, each a tuple of (vertex, class) actions in application order.
    Kind 3 has one branch.

    Kind 4 needs no {u4: small, v4: big} or {w4: small, v4: big} after
    {v4: big} fails: only a hub saturated in the big class fails it (u4,
    v4's other colored neighbor, has residual degree 4 <= t), and u4 and
    w4 are not adjacent to the hub (a triangle or a 4-cycle).
    """
    kind, deleted, w = row[:3]
    if kind is _KIND3:
        (v,) = deleted
        around = [u for u in rotation[v] if phi[u] >= 0]
        if C_SMALL not in [phi[u] for u in around]:
            return [((v, C_SMALL),)]
        # saturated big-class neighbors move to the small class first
        return [tuple((u, C_SMALL) for u in around
                      if phi[u] == C_BIG and same[u] == t)
                + ((v, C_BIG),)]
    (v4,) = deleted
    u4, w4 = w["u4"], w["w4"]
    moves = [((v4, C_SMALL),), ((v4, C_BIG),), ((u4, C_BIG), (v4, C_SMALL)),
             ((w4, C_SMALL), (u4, C_BIG), (v4, C_SMALL))]
    for vi, ui in w["ring_two"]:
        moves.append(((v4, C_BIG), (vi, C_SMALL)))
        moves.append(((v4, C_BIG), (vi, C_SMALL), (ui, C_BIG)))
    return moves


def _apply_extension(graph: EmbeddedGraph, phi: list[int], same: list[int],
                     row: tuple, t: int) -> tuple[tuple[int, int], ...]:
    """Extend phi and same over the deleted vertices of a step row by the
    first branch that keeps every touched vertex within its defect, and
    return its (vertex, class) actions.  When none fits, phi and same are
    restored and ExtensionFailedError is raised."""
    rotation = graph.rotation
    kind, deleted = row[0], row[1]
    defects = (1, t)
    if kind is _KIND1 or kind is _KIND2:
        move = []
        for v in deleted:
            c = C_BIG
            for u in rotation[v]:
                if phi[u] >= 0:
                    c = 1 - phi[u]
                    break
            move.append((v, c))
        # each x is uncolored, so its class only raises counts; by girth 5
        # only a kind-2 partner raises a count read before, and reads it
        # again, so every count is checked after its last raise
        fits = True
        for x, c in move:
            phi[x] = c
            k = 0
            for y in rotation[x]:
                b = phi[y]
                if b == c:
                    same[y] += 1
                    k += 1
                if b >= 0 and same[y] > defects[b]:
                    fits = False
            same[x] = k
            fits = fits and k <= defects[c]
        if fits:
            return tuple(move)
        _assign(rotation, phi, same, [(x, -1) for x in deleted])
    else:
        for move in _moves(rotation, phi, same, row, t):
            saved = [(x, phi[x]) for x, _ in move]
            _assign(rotation, phi, same, move)
            if _within_defects(rotation, phi, same, defects, move):
                return move
            _assign(rotation, phi, same, saved)
    raise ExtensionFailedError(
        f"no recoloring branch extends past {list(deleted)}",
        ReductionStep(*row), phi)


# ---------------------------------------------------------------------------
# Full constructive coloring
# ---------------------------------------------------------------------------


def color(graph: EmbeddedGraph, t: int | None = None,
          budget: int = 10 ** 7) -> ColorResult:
    """Color the whole graph with defects (1, t); t defaults to the
    genus capacity.  Requires girth at least 5 (require_girth5); raises
    ValueError, before any reduction, when t is not an integer of at
    least 10 or budget is not a positive integer.

    The fallback solves each component of the irreducible residual graph
    on its own, each with the full ``budget`` of nodes.  The final
    coloring passes is_valid or an ExtensionFailedError is raised.
    """
    budget = _budget(budget)
    require_girth5(graph, "coloring")
    if t is None:
        t = capacity(graph.genus)

    residual = _Residual(graph, t)
    rows = list(residual.steps())  # (kind, deleted, witness) in deletion order
    fallback = max(residual.deg) >= 0  # some vertex is left
    anomaly = fallback and graph.genus <= 1 and t == MIN_T
    base: dict[int, int] = {}
    if fallback:
        for comp, sub in _components(graph, residual.deg):
            res = solve_exact(sub, (1, t), budget)
            if not res.found:
                trace = ColoringTrace(RowLog([], ReductionStep), base, True,
                                      anomaly, t)
                return ColorResult(None, trace, res.status)
            base.update(zip(comp, res.coloring.assignment))

    phi = [-1] * graph.n
    for v, c in base.items():
        phi[v] = c
    same = _same_counts(graph.rotation, phi)
    # each row gets its actions appended, last deletion first
    for i in range(len(rows) - 1, -1, -1):
        row = rows[i]
        rows[i] = (*row, _apply_extension(graph, phi, same, row, t))
    coloring = Coloring(tuple(phi), (1, t))
    if not is_valid(graph, coloring):
        raise ExtensionFailedError(
            "final coloring invalid",
            ReductionStep(*rows[-1]) if rows else None, phi)
    trace = ColoringTrace(RowLog(rows, ReductionStep), base, fallback, anomaly, t)
    return ColorResult(coloring, trace,
                       SolveStatus.FOUND if fallback else None)


def replay_trace(graph: EmbeddedGraph, trace: ColoringTrace) -> Coloring:
    """Reproduce the final coloring from the recorded trace."""
    phi = dict(trace.base)
    for *_, actions in reversed(trace.steps.rows):
        for v, c in actions:
            phi[v] = c
    return Coloring(tuple(phi[v] for v in range(graph.n)), (1, trace.t))
