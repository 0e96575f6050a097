"""Constructive (1, t)-coloring by reducible configurations.

The colorer repeatedly finds one of four local configurations, deletes
its witness vertices, colors the rest, and extends the coloring back:

  1. a vertex of degree at most one,
  2. two adjacent 2-vertices,
  3. a low vertex all of whose neighbors are low,
  4. a high vertex with more incident Terrible faces than
     terrible_bound(d, high), from which a 2-vertex is deleted.

Low and high are the structural degree thresholds for t that
discharging.structural_thresholds owns; the Terrible faces themselves
are classified with the fixed high degree 12 of the face patterns.

Each step takes the first configuration in a fixed search order: the
lowest kind that occurs, and within it the smallest witness id (for
kind 2 the smaller 2-vertex u, paired with its smallest 2-neighbor).
_Residual keeps the shrinking graph and, for kinds 1-3, one min-heap of
candidate ids.  Deleting a vertex re-offers only its present neighbors
and their neighbors, and a heap entry is re-checked when it reaches the
top, so the search costs O(sum of deg(v)^2 * log n) over the whole run
instead of a rescan of the residual graph per step.  Kind 4 is still a
whole-residual scan (induced_embedding and classify_faces per
component); it runs only when all three heaps are empty.

On girth-5 graphs each extension is guaranteed to succeed, so the
recursion yields a valid coloring with defects (1, t).  If no
configuration exists the colorer falls back to the exact solver; with
t = 10 on a genus <= 1 input that fallback is flagged as an anomaly,
since such a graph would be a counterexample to the coloring theorem
this machinery implements.

Each step extends back through its recoloring branches, listed by
_moves in proof order as move lists ({vertex: class} dicts whose
insertion order is the action order): one branch for kinds 1-3, the
reduction's case analysis for kind 4.  _apply_extension tries them in
turn, checks each locally (the changed vertices and their neighbors),
undoes a branch that fails and keeps the first that holds.

Class 0 is the defect-1 class, class 1 the defect-t class.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from typing import Mapping, Sequence

from .coloring import (Coloring, ColoringError, SolveStatus, is_valid,
                       solve_exact)
from .discharging import (MIN_T, FaceClass, classify_faces,
                          structural_thresholds, terrible_bound)
from .embedding import EmbeddedGraph, induced_embedding, require_girth5
# bench/selftest.py checks that tracing also rebinds girth under this module
from .embedding import girth  # noqa: F401

C_SMALL = 0  # defect-1 class (paper color "1")
C_BIG = 1    # defect-t class (paper color "10")


class ExtensionFailedError(RuntimeError):
    """No recoloring branch extended the sub-coloring; carries a witness.

    Never expected on valid inputs: it would mean either an implementation
    bug or a counterexample to the reduction lemma that produced the step.
    """

    def __init__(self, message: str, step: "ReductionStep", phi: dict):
        super().__init__(message)
        self.step = step
        self.phi = dict(phi)


class ReductionKind(Enum):
    DEGREE_AT_MOST_ONE = "degree-at-most-one"
    ADJACENT_TWO_VERTICES = "adjacent-two-vertices"
    ALL_LOW_DEGREE_NEIGHBORS = "all-low-degree-neighbors"
    TERRIBLE_RICH_HIGH_VERTEX = "terrible-rich-high-vertex"


@dataclass(frozen=True)
class ReductionStep:
    kind: ReductionKind
    deleted: tuple[int, ...]
    witness: dict
    t: int


@dataclass(frozen=True)
class TraceEntry:
    step: ReductionStep
    actions: tuple[tuple[int, int], ...]  # (vertex, class) in order applied


@dataclass
class ColoringTrace:
    """Deletion-ordered steps plus the base coloring of the irreducible rest.

    Replaying the entries in reverse order on top of the base assignments
    reproduces the final coloring exactly.
    """

    steps: list[TraceEntry]
    base: dict[int, int]
    fallback: bool
    anomaly: bool
    t: int


@dataclass
class ColorResult:
    coloring: Coloring | None
    trace: ColoringTrace
    solve_status: SolveStatus | None = None


def capacity(genus: int) -> int:
    """Defect threshold guaranteeing colorability at this Euler genus:
    max(10, 4*genus + 3)."""
    if genus < 0:
        raise ValueError("genus must be non-negative")
    return max(MIN_T, 4 * genus + 3)


# ---------------------------------------------------------------------------
# Reduction search
# ---------------------------------------------------------------------------


def _present_neighbors(graph, present, v):
    return [u for u in graph.rotation[v] if u in present]


class _Residual:
    """The shrinking graph of a reduction run and its kind-1..3 worklist.

    present and deg describe the residual graph.  heaps[k] holds the ids
    of vertices that may be the kind-(k + 1) witness, each id at most
    once (queued[k]); an entry is re-checked against the residual graph
    when it reaches the top and dropped when stale.  Every vertex that
    qualifies is queued: initially all qualifying vertices are, and a
    deletion can only change the status of the deleted vertices' present
    neighbors and their neighbors, which delete offers again.
    """

    def __init__(self, graph: EmbeddedGraph, t: int):
        self.graph = graph
        self.t = t
        self.low, _ = structural_thresholds(t)
        self.present = set(range(graph.n))
        self.deg = [graph.degree(v) for v in range(graph.n)]
        # ascending lists are already heaps
        self.heaps = tuple([v for v in range(graph.n) if ok(self, v)]
                           for ok in self._TESTS)
        self.queued = tuple(set(heap) for heap in self.heaps)

    def _degree_le1(self, v):
        return v in self.present and self.deg[v] <= 1

    def _two_neighbors(self, u):
        return [w for w in self.graph.rotation[u]
                if w in self.present and self.deg[w] == 2]

    def _adjacent_two(self, u):
        return (u in self.present and self.deg[u] == 2
                and bool(self._two_neighbors(u)))

    def _all_low(self, v):
        deg, low = self.deg, self.low
        return (v in self.present and deg[v] <= low
                and all(deg[u] <= low
                        for u in _present_neighbors(self.graph, self.present, v)))

    # Unbound, so that no instance refers to itself through its tests.
    _TESTS = (_degree_le1, _adjacent_two, _all_low)

    def _top(self, k):
        heap, queued, ok = self.heaps[k], self.queued[k], self._TESTS[k]
        while heap and not ok(self, heap[0]):
            queued.discard(heappop(heap))
        return heap[0] if heap else None

    def _offer(self, v):
        for heap, queued, ok in zip(self.heaps, self.queued, self._TESTS):
            if v not in queued and ok(self, v):
                queued.add(v)
                heappush(heap, v)

    def next_step(self) -> ReductionStep | None:
        """First reducible configuration of the residual graph in the fixed
        search order: kind 1 to 4, smallest witness id within a kind."""
        t = self.t
        v = self._top(0)
        if v is not None:
            return ReductionStep(ReductionKind.DEGREE_AT_MOST_ONE, (v,), {}, t)
        u = self._top(1)
        if u is not None:
            return ReductionStep(ReductionKind.ADJACENT_TWO_VERTICES,
                                 (u, min(self._two_neighbors(u))), {}, t)
        v = self._top(2)
        if v is not None:
            return ReductionStep(ReductionKind.ALL_LOW_DEGREE_NEIGHBORS,
                                 (v,), {}, t)
        return _find_terrible_reduction(self.graph, self.present, self.deg, t)

    def delete(self, vertices: Sequence[int]) -> None:
        """Remove vertices from the residual graph and re-offer every
        vertex whose kind-1..3 status the removal can change."""
        rotation, present, deg = self.graph.rotation, self.present, self.deg
        for v in vertices:
            present.discard(v)
            for u in rotation[v]:
                if u in present:
                    deg[u] -= 1
        for v in vertices:
            for u in _present_neighbors(self.graph, present, v):
                self._offer(u)
                for w in _present_neighbors(self.graph, present, u):
                    self._offer(w)


def _components(graph, present):
    seen = set()
    comps = []
    for start in range(graph.n):
        if start not in present or start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            v = stack.pop()
            for u in graph.rotation[v]:
                if u in present and u not in seen:
                    seen.add(u)
                    comp.append(u)
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def _find_terrible_reduction(graph: EmbeddedGraph, present: set[int],
                             deg: Sequence[int], t: int) -> ReductionStep | None:
    """Kind-(4) scan: a high vertex with too many incident Terrible faces.

    The deleted 2-vertex is picked so that the face three rotation steps
    earlier is not terrible, matching the reduction's case analysis.
    """
    low, high = structural_thresholds(t)
    for comp in _components(graph, present):
        if len(comp) < 5:
            continue
        sub, remap = induced_embedding(graph, comp)
        inv = {new: old for old, new in remap.items()}
        classes = classify_faces(sub)
        for v in range(sub.n):
            d = sub.degree(v)
            if d < high:
                continue
            rot = sub.rotation[v]
            # ring[i] = face of the passage between rotation neighbors
            # rot[i-1] and rot[i]
            by_pair = {}
            for fi, pos in sub.passages(v):
                face = sub.faces[fi]
                pair = frozenset((face.verts[pos - 1],
                                  face.verts[(pos + 1) % face.degree]))
                by_pair[pair] = fi
            ring = [by_pair[frozenset((rot[i - 1], rot[i]))] for i in range(d)]
            terrible = [i for i in range(d)
                        if classes[ring[i]] is FaceClass.TERRIBLE]
            if len(terrible) <= terrible_bound(d, high):
                continue
            pick = next((j for j in terrible
                         if classes[ring[(j - 3) % d]] is not FaceClass.TERRIBLE),
                        terrible[0])
            v4, v5 = rot[pick - 1], rot[pick % d]
            face = sub.faces[ring[pick]]
            u4 = next(u for u in sub.rotation[v4] if u != v)
            u5 = next(u for u in sub.rotation[v5] if u != v)
            w4 = next((u for u in sub.rotation[u4]
                       if u not in (v4, u5) and sub.degree(u) <= low), None)
            ring_two = []
            for i in range(d):
                vi = rot[i]
                if sub.degree(vi) == 2 and vi != v4:
                    ui = next(u for u in sub.rotation[vi] if u != v)
                    ring_two.append((inv[vi], inv[ui]))
            witness = {
                "hub": inv[v],
                "v4": inv[v4],
                "u4": inv[u4],
                "u5": inv[u5],
                "w4": inv[w4] if w4 is not None else None,
                "face": tuple(inv[u] for u in face.verts),
                "ring_two": tuple(ring_two),
            }
            return ReductionStep(ReductionKind.TERRIBLE_RICH_HIGH_VERTEX,
                                 (inv[v4],), witness, t)
    return None


def find_reduction(graph: EmbeddedGraph, t: int = 10) -> ReductionStep | None:
    """First reducible configuration in the fixed search order, or None.

    Raises ValueError when t is below 10."""
    return _Residual(graph, t).next_step()


# ---------------------------------------------------------------------------
# Extension
# ---------------------------------------------------------------------------


def _same_class_count(graph, present, phi, v):
    c = phi[v]
    return sum(1 for u in graph.rotation[v]
               if u in present and phi.get(u) == c)


def _first_invalid(graph, present, phi, t, changed):
    """A vertex among changed and their present neighbors whose class
    exceeds its defect in (1, t), or None when all are within bounds."""
    defects = (1, t)
    touched = set(changed)
    for x in changed:
        touched.update(u for u in graph.rotation[x] if u in present)
    return next((x for x in touched
                 if _same_class_count(graph, present, phi, x) > defects[phi[x]]),
                None)


def _moves(graph, present, phi, step) -> list[dict[int, int]]:
    """The step's recoloring branches in proof order, each a
    {vertex: class} move whose insertion order is the action order.
    Kinds 1-3 have one branch each."""
    def nbrs(v):
        return _present_neighbors(graph, present, v)

    kind = step.kind
    if kind is ReductionKind.DEGREE_AT_MOST_ONE:
        (v,) = step.deleted
        around = nbrs(v)
        return [{v: C_BIG if not around else 1 - phi[around[0]]}]
    if kind is ReductionKind.ADJACENT_TWO_VERTICES:
        # each 2-vertex takes the class opposite to its other neighbor
        u, v = step.deleted
        up = next(w for w in nbrs(u) if w != v)
        vp = next(w for w in nbrs(v) if w != u)
        return [{u: 1 - phi[up], v: 1 - phi[vp]}]
    if kind is ReductionKind.ALL_LOW_DEGREE_NEIGHBORS:
        (v,) = step.deleted
        around = nbrs(v)
        if not any(phi[u] == C_SMALL for u in around):
            return [{v: C_SMALL}]
        # saturated big-class neighbors move to the small class first
        move = {u: C_SMALL for u in around
                if phi[u] == C_BIG
                and _same_class_count(graph, present, phi, u) == step.t}
        move[v] = C_BIG
        return [move]
    (v4,) = step.deleted
    w = step.witness
    u4, w4 = w["u4"], w["w4"]
    moves = [
        {v4: C_SMALL},
        {v4: C_BIG},
        {u4: C_SMALL, v4: C_BIG},
        {u4: C_BIG, v4: C_SMALL},
    ]
    if w4 is not None:
        moves.append({w4: C_SMALL, u4: C_BIG, v4: C_SMALL})
        moves.append({w4: C_SMALL, v4: C_BIG})
    for vi, ui in w["ring_two"]:
        moves.append({v4: C_BIG, vi: C_SMALL})
        moves.append({v4: C_BIG, vi: C_SMALL, ui: C_BIG})
    return moves


def _apply_extension(graph: EmbeddedGraph, present: set[int],
                     phi: dict[int, int], step: ReductionStep
                     ) -> tuple[tuple[int, int], ...]:
    """Extend phi over step.deleted (already added back to present).

    Tries the step's branches in proof order; the first one that keeps
    every touched vertex within its defect is kept in phi and returned
    as its (vertex, class) actions in application order.  A failed
    branch is undone.  ExtensionFailedError is raised when no branch
    fits, which no valid input should reach.
    """
    for move in _moves(graph, present, phi, step):
        saved = {x: phi.get(x) for x in move}
        phi.update(move)
        if _first_invalid(graph, present, phi, step.t, move) is None:
            return tuple(move.items())
        for x, old in saved.items():
            if old is None:
                del phi[x]
            else:
                phi[x] = old
    raise ExtensionFailedError(
        f"no recoloring branch extends past {list(step.deleted)}", step, phi)


def extend_coloring(graph: EmbeddedGraph, phi_sub: Mapping[int, int],
                    step: ReductionStep) -> Coloring:
    """Extend a valid (1, t)-coloring of graph minus step.deleted to all
    of graph.  phi_sub maps the surviving vertex ids to classes 0/1."""
    present = set(range(graph.n))
    phi = dict(phi_sub)
    missing = present - set(phi) - set(step.deleted)
    if missing:
        raise ValueError(f"phi_sub misses vertices {sorted(missing)}")
    _apply_extension(graph, present, phi, step)
    coloring = Coloring(tuple(phi[v] for v in range(graph.n)), (1, step.t))
    if not is_valid(graph, coloring):
        raise ExtensionFailedError("extension produced an invalid coloring",
                                   step, phi)
    return coloring


# ---------------------------------------------------------------------------
# Full constructive coloring
# ---------------------------------------------------------------------------


def color(graph: EmbeddedGraph, t: int | None = None,
          budget: int = 10 ** 7) -> ColorResult:
    """Color the whole graph with defects (1, t); t defaults to the
    genus capacity.  Requires girth at least 5 (require_girth5); raises
    ValueError when t is below 10 or budget is not positive.

    The fallback exact solve only runs when no reducible configuration
    exists; on genus <= 1 inputs at t = 10 that is flagged as an anomaly.
    It solves each connected component of the residual graph on its own,
    and each of those solves gets the full ``budget`` of nodes.
    Every extension is validity-checked; the final coloring passes
    is_valid or an ExtensionFailedError is raised.

    Of the faces of ``graph`` only the genus is read, for the default t
    and the anomaly flag: that walks them once, inside this call, but
    builds no Face (the kind-4 scan reads the faces of the residual
    components, which are graphs of their own); the faces of ``graph``
    are built by whichever face reader comes first.
    """
    if budget <= 0:
        raise ColoringError("budget must be positive")
    require_girth5(graph, "coloring")
    if t is None:
        t = capacity(graph.genus)

    residual = _Residual(graph, t)
    present = residual.present
    steps: list[ReductionStep] = []
    fallback = False
    anomaly = False
    base: dict[int, int] = {}
    solve_status: SolveStatus | None = None

    while present:
        step = residual.next_step()
        if step is None:
            fallback = True
            anomaly = graph.genus <= 1 and t == MIN_T
            solve_status = SolveStatus.FOUND
            for comp in _components(graph, present):
                sub, remap = induced_embedding(graph, comp)
                res = solve_exact(sub, (1, t), budget)
                if not res.found:
                    solve_status = res.status
                    break
                for old, new in remap.items():
                    base[old] = res.coloring.assignment[new]
            break
        steps.append(step)
        residual.delete(step.deleted)

    entries: list[TraceEntry] = []
    coloring: Coloring | None = None
    if solve_status in (None, SolveStatus.FOUND):
        phi = dict(base)
        for step in reversed(steps):
            for v in step.deleted:
                present.add(v)
            actions = _apply_extension(graph, present, phi, step)
            entries.append(TraceEntry(step, actions))
        entries.reverse()
        coloring = Coloring(tuple(phi[v] for v in range(graph.n)), (1, t))
        if not is_valid(graph, coloring):
            raise ExtensionFailedError("final coloring invalid",
                                       steps[-1] if steps else None, phi)

    trace = ColoringTrace(entries, base, fallback, anomaly, t)
    return ColorResult(coloring, trace, solve_status)


def replay_trace(graph: EmbeddedGraph, trace: ColoringTrace) -> Coloring:
    """Reproduce the final coloring from the recorded trace."""
    phi = dict(trace.base)
    for entry in reversed(trace.steps):
        for v, c in entry.actions:
            phi[v] = c
    return Coloring(tuple(phi[v] for v in range(graph.n)), (1, trace.t))
