"""Independent oracles the tests check the library against.

Deliberately different algorithms from the implementations under test:
girth via per-edge deletion distances, defective 2-colorability via full
enumeration of all 2^n class assignments (vectorized with numpy), the
colorer's reduction order via a full rescan of the residual graph before
every deletion (quadratic, for comparison with its worklist), face
tracing via both orbits of every face, paired and then sorted (for
comparison with the single walk in EmbeddedGraph), sponsorships by
scanning every dart of those reference faces (for comparison with
sponsor_instances, which reads two rotation corners per edge), the
exact solver as three recursive closures (for comparison with
solve_exact's loop), and the generator's subdividable edges rebuilt
from the whole builder (for comparison with its incrementally counted
pool), the discharging ledger settled by adding every transfer's
Fraction amount one at a time and only then read in units (for
comparison with apply_rules' integer charge units), the transfer log
as one Transfer per firing sorted by an attrgetter key, and its CSV
written transfer by transfer (for comparison with apply_rules' row log
and transfers_csv), the audit's claim, lemma and flag checks as loops
that build one violation object each, over the reference ledger, and
the ledger CSV written entry by entry through format_fraction (for
comparison with audit's row logs and ledger_csv's unit texts), and graph
documents parsed by a line loop that sorts each line into comment, twist
or vertex line before reading it and checked vertex by vertex with sets
(for comparison with parse_graph and EmbeddedGraph's dart index), the
audit text report formatted from one violation object at a time (for
comparison with report_text, which reads the rows), and the colorer as
its object-per-step loop: one ReductionStep per step from the rescan
above, every extension through the generic branch loop, one
ReductionStep with its actions per step in a plain list, and the trace
document written by the stdlib's indenting JSON encoder (for
comparison with color's row log, its straight kind-1 and kind-2
extension, and cli._trace_json).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import sys
from fractions import Fraction
from operator import attrgetter
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

from defcolor.colorer import (C_BIG, C_SMALL, ColoringTrace, ColorResult,
                              ExtensionFailedError, ReductionKind,
                              ReductionStep, _components,
                              _find_terrible_reduction)
from defcolor.coloring import (Coloring, ColoringError, SolveResult,
                               SolveStatus, is_valid, solve_exact,
                               validate_defects)
from defcolor.discharging import (_UNIT, HIGH_DEGREE, MIN_T, AuditReport,
                                  ChargeLedger, ClaimViolation, FaceClass,
                                  HighVertexFlag, LemmaViolation,
                                  SponsorInstance, Transfer,
                                  capacity, classify_faces, format_fraction,
                                  structural_thresholds, terrible_bound)
from defcolor.embedding import (AsymmetricError, DisconnectedError,
                                EmbeddedGraph, GirthTooSmallError, GraphError,
                                NonSimpleError, require_girth5)
from defcolor.graphio import ParseError, _check_vertex_count


def girth_oracle(graph) -> float:
    """Shortest cycle through each edge: remove it, measure the distance."""
    best = math.inf
    for a, b in graph.edges:
        dist = {a: 0}
        queue = [a]
        head = 0
        found = None
        while head < len(queue) and found is None:
            v = queue[head]
            head += 1
            for u in graph.rotation[v]:
                if v == a and u == b:
                    continue  # the removed edge
                if u not in dist:
                    dist[u] = dist[v] + 1
                    if u == b:
                        found = dist[u]
                        break
                    queue.append(u)
        if found is not None:
            best = min(best, found + 1)
    return best


def enumerate_two_class(graph, defects) -> bool:
    """Feasibility of a (d0, d1)-coloring by checking all 2^n assignments.

    Bit set in the mask means class 0.  Only for small n.
    """
    d0, d1 = defects
    n = graph.n
    if n > 16:
        raise ValueError("enumeration oracle is for small graphs")
    adj = np.zeros(n, dtype=np.int64)
    deg = np.zeros(n, dtype=np.int64)
    for v in range(n):
        for u in graph.rotation[v]:
            adj[v] |= 1 << u
        deg[v] = graph.degree(v)
    masks = np.arange(1 << n, dtype=np.int64)
    pop = np.zeros(1 << n, dtype=np.int64)
    for bit in range(n):
        pop += (masks >> bit) & 1
    ok = np.ones(1 << n, dtype=bool)
    for v in range(n):
        in_class0 = ((masks >> v) & 1).astype(bool)
        same = pop[masks & adj[v]]
        ok &= np.where(in_class0, same <= d0, (deg[v] - same) <= d1)
    return bool(ok.any())


def enumerate_two_class_slow(graph, defects) -> bool:
    """Pure-python cross-check of the numpy oracle (tiny graphs only)."""
    n = graph.n
    for assign in itertools.product((0, 1), repeat=n):
        good = True
        for v in range(n):
            same = sum(1 for u in graph.rotation[v] if assign[u] == assign[v])
            if same > defects[assign[v]]:
                good = False
                break
        if good:
            return True
    return False


def relabeled(graph_cls, graph, perm):
    """Same embedding with vertices renamed by perm[old] = new."""
    rot: list[list[int] | None] = [None] * graph.n
    for v in range(graph.n):
        rot[perm[v]] = [perm[u] for u in graph.rotation[v]]
    twists = [(perm[u], perm[v]) for u, v in graph.twists]
    return graph_cls(rot, twists)


def reference_scan(graph, present, deg, t):
    """First reducible configuration of the residual graph (present, deg):
    scan every vertex from 0 for kind 1, then kind 2, then kind 3, then
    fall through to the colorer's kind-4 search."""
    low, _ = structural_thresholds(t)
    for v in range(graph.n):
        if v in present and deg[v] <= 1:
            return ReductionStep(ReductionKind.DEGREE_AT_MOST_ONE, (v,), None)
    for u in range(graph.n):
        if u in present and deg[u] == 2:
            two = [w for w in graph.rotation[u]
                   if w in present and deg[w] == 2]
            if two:
                return ReductionStep(ReductionKind.ADJACENT_TWO_VERTICES,
                                     (u, min(two)), None)
    for v in range(graph.n):
        if v in present and deg[v] <= low:
            if all(deg[u] <= low for u in graph.rotation[v] if u in present):
                return ReductionStep(ReductionKind.ALL_LOW_DEGREE_NEIGHBORS,
                                     (v,), None)
    row = _find_terrible_reduction(graph, _present_deg(present, deg), t)
    return None if row is None else ReductionStep(*row)


def _present_deg(present, deg):
    """deg as the colorer reads a residual graph: -1 for absent vertices."""
    return [d if v in present else -1 for v, d in enumerate(deg)]


def reference_steps(graph, t):
    """Steps of the reduction phase, rescanning the shrinking residual
    graph before every deletion, until it is empty or irreducible."""
    present = set(range(graph.n))
    deg = [graph.degree(v) for v in range(graph.n)]
    steps = []
    while present:
        step = reference_scan(graph, present, deg, t)
        if step is None:
            break
        steps.append(step)
        for v in step.deleted:
            present.discard(v)
            for u in graph.rotation[v]:
                if u in present:
                    deg[u] -= 1
    return steps


def _reference_within_defects(rotation, phi, defects, move):
    """Whether every moved vertex and colored neighbor keeps its defect."""
    for x, _ in move:
        for y in (x, *rotation[x]):
            c = phi[y]
            if c >= 0 and [phi[u] for u in rotation[y]].count(c) > defects[c]:
                return False
    return True


def _reference_moves(rotation, phi, step, t):
    """The recoloring branches of a kind-3 or kind-4 step in proof order,
    each a tuple of (vertex, class) actions in application order.  Kind 3
    has one branch."""
    if step.kind is ReductionKind.ALL_LOW_DEGREE_NEIGHBORS:
        (v,) = step.deleted
        around = [u for u in rotation[v] if phi[u] >= 0]
        if C_SMALL not in [phi[u] for u in around]:
            return [((v, C_SMALL),)]
        # saturated big-class neighbors move to the small class first
        return [tuple((u, C_SMALL) for u in around
                      if phi[u] == C_BIG
                      and [phi[x] for x in rotation[u]].count(C_BIG) == t)
                + ((v, C_BIG),)]
    (v4,) = step.deleted
    w = step.witness
    u4, w4 = w["u4"], w["w4"]
    moves = [((v4, C_SMALL),), ((v4, C_BIG),), ((u4, C_BIG), (v4, C_SMALL)),
             ((w4, C_SMALL), (u4, C_BIG), (v4, C_SMALL))]
    for vi, ui in w["ring_two"]:
        moves.append(((v4, C_BIG), (vi, C_SMALL)))
        moves.append(((v4, C_BIG), (vi, C_SMALL), (ui, C_BIG)))
    return moves


def _reference_apply_extension(graph: EmbeddedGraph, phi: list[int],
                               step: ReductionStep,
                               t: int) -> tuple[tuple[int, int], ...]:
    """Extend phi over step.deleted by the first branch in proof order that
    keeps every touched vertex within its defect, undoing failed ones."""
    rotation = graph.rotation
    kind = step.kind
    if kind is ReductionKind.DEGREE_AT_MOST_ONE:
        (v,) = step.deleted
        around = [c for u in rotation[v] if (c := phi[u]) >= 0]
        branches = [((v, 1 - around[0] if around else C_BIG),)]
    elif kind is ReductionKind.ADJACENT_TWO_VERTICES:
        # each 2-vertex takes the class opposite to its other neighbor
        u, v = step.deleted
        cu = next(c for w in rotation[u] if (c := phi[w]) >= 0)
        cv = next(c for w in rotation[v] if (c := phi[w]) >= 0)
        branches = [((u, 1 - cu), (v, 1 - cv))]
    else:
        branches = _reference_moves(rotation, phi, step, t)
    defects = (1, t)
    for move in branches:
        saved = [phi[x] for x, _ in move]
        for x, c in move:
            phi[x] = c
        if _reference_within_defects(rotation, phi, defects, move):
            return move
        for (x, _), old in zip(move, saved):
            phi[x] = old
    raise ExtensionFailedError(
        f"no recoloring branch extends past {list(step.deleted)}", step, phi)


def reference_color(graph: EmbeddedGraph, t: int | None = None,
                    budget: int = 10 ** 7) -> ColorResult:
    """color with one ReductionStep per step, from reference_scan, copied
    with its actions by each extension into a plain list."""
    require_girth5(graph, "coloring")
    if t is None:
        t = capacity(graph.genus)

    present = set(range(graph.n))
    deg = [graph.degree(v) for v in range(graph.n)]
    steps: list[ReductionStep] = []
    fallback = anomaly = False
    base: dict[int, int] = {}
    solve_status: SolveStatus | None = None

    while present:
        step = reference_scan(graph, present, deg, t)
        if step is None:
            fallback = True
            anomaly = graph.genus <= 1 and t == MIN_T
            solve_status = SolveStatus.FOUND
            for comp, sub in _components(graph, _present_deg(present, deg)):
                res = solve_exact(sub, (1, t), budget)
                if not res.found:
                    solve_status = res.status
                    break
                for new, old in enumerate(comp):
                    base[old] = res.coloring.assignment[new]
            break
        steps.append(step)
        for v in step.deleted:
            present.discard(v)
            for u in graph.rotation[v]:
                if u in present:
                    deg[u] -= 1

    entries: list[ReductionStep] = []
    coloring: Coloring | None = None
    if solve_status in (None, SolveStatus.FOUND):
        phi = [-1] * graph.n
        for v, c in base.items():
            phi[v] = c
        for step in reversed(steps):
            actions = _reference_apply_extension(graph, phi, step, t)
            entries.append(dataclasses.replace(step, actions=actions))
        entries.reverse()
        coloring = Coloring(tuple(phi), (1, t))
        if not is_valid(graph, coloring):
            raise ExtensionFailedError("final coloring invalid",
                                       steps[-1] if steps else None, phi)

    trace = ColoringTrace(entries, base, fallback, anomaly, t)
    return ColorResult(coloring, trace, solve_status)


def reference_trace_json(trace) -> str:
    """The trace document as the stdlib's indenting encoder writes it, read
    from the trace's ReductionStep objects."""
    payload = {
        "t": trace.t, "fallback": trace.fallback, "anomaly": trace.anomaly,
        "base": {str(v): c for v, c in sorted(trace.base.items())},
        "steps": [{"kind": e.kind.value, "deleted": list(e.deleted),
                   "actions": [[v, c] for v, c in e.actions]}
                  for e in trace.steps],
    }
    return json.dumps(payload, indent=2) + "\n"


def reference_eligible_edges(b, protected) -> list[tuple[int, int]]:
    """The generator's subdividable edges, rebuilt from scratch: (a, w) with
    a < w, not protected and neither dart on a reserved face, in order of a
    and then of w in the rotation of a."""
    edges = []
    for a in range(b.vertex_count):
        for w in b.rotations[a]:
            if a < w and frozenset((a, w)) not in protected:
                if (b.dart_face[(a, w)] not in b.reserved
                        and b.dart_face[(w, a)] not in b.reserved):
                    edges.append((a, w))
    return edges


def reference_faces(graph) -> list[tuple[tuple[int, int, int], ...]]:
    """Boundary walks of the faces in face-index order, each a tuple of
    (u, v, s) entries: dart (u, v) walked in sense s.

    Traces every orbit of (dart, sense) states, pairs each orbit with its
    reverse, starts each face at the least (s, u, v) state of the pair and
    sorts the faces by that state.
    """
    if not graph.edges:
        return [()]
    succ, pred = [], []
    for nbrs in graph.rotation:
        k = len(nbrs)
        succ.append({nbrs[i]: nbrs[(i + 1) % k] for i in range(k)})
        pred.append({nbrs[i]: nbrs[(i - 1) % k] for i in range(k)})

    def flip(u, v):
        return 1 if (min(u, v), max(u, v)) in graph.twists else 0

    def step(state):
        u, v, s = state
        s2 = s ^ flip(u, v)
        return (v, succ[v][u] if s2 == 0 else pred[v][u], s2)

    def key(state):
        return (state[2], state[0], state[1])

    orbit_of, orbits = {}, []
    for u, v in graph.edges:
        for a, b in ((u, v), (v, u)):
            for s in (0, 1):
                start = cur = (a, b, s)
                if start in orbit_of:
                    continue
                seq = []
                while cur not in orbit_of:
                    orbit_of[cur] = len(orbits)
                    seq.append(cur)
                    cur = step(cur)
                assert cur == start, "face walk did not close"
                orbits.append(seq)

    faces, done = [], set()
    for idx, seq in enumerate(orbits):
        if idx in done:
            continue
        u, v, s = seq[0]
        partner = orbit_of[(v, u, 1 ^ s ^ flip(u, v))]
        assert partner != idx, "orbit paired with itself"
        done.update((idx, partner))
        best = min(seq + orbits[partner], key=key)
        if best not in seq:
            seq = orbits[partner]
        k = seq.index(best)
        faces.append((key(best), seq[k:] + seq[:k]))
    faces.sort()
    return [tuple(seq) for _, seq in faces]


def reference_sponsors(graph) -> set[SponsorInstance]:
    """Every sponsorship, by scanning the darts of reference_faces: face f1
    walking (u2, u3) at position p sponsors the face f2 on the other side
    of that edge when f2 is another face and the vertices before u2 and
    after u3 on f1's walk are both high."""
    faces = [[(u, v) for u, v, _ in walk] for walk in reference_faces(graph)]
    sides: dict[frozenset[int], list[tuple[int, int]]] = {}
    for fi, darts in enumerate(faces):
        for p, dart in enumerate(darts):
            sides.setdefault(frozenset(dart), []).append((fi, p))
    found = set()
    for fi, darts in enumerate(faces):
        for p, (u2, u3) in enumerate(darts):
            (f2,) = [f for f, q in sides[frozenset((u2, u3))] if (f, q) != (fi, p)]
            u1, u4 = darts[p - 1][0], darts[(p + 1) % len(darts)][1]
            if (f2 != fi and graph.degree(u1) >= HIGH_DEGREE
                    and graph.degree(u4) >= HIGH_DEGREE):
                found.add(SponsorInstance(fi, f2, (u2, u3), p))
    return found


def reference_solve(graph: EmbeddedGraph, defects: Sequence[int],
                    budget: int = 10 ** 7) -> SolveResult:
    """The recursive exact solver that solve_exact's loop replaced.

    Depth-first over vertices in decreasing-degree order (ties by id),
    pruning as soon as some already-assigned vertex exceeds its class
    defect among assigned neighbors.  FOUND results always pass is_valid;
    INFEASIBLE means the whole search space was exhausted; UNKNOWN means
    the node budget ran out first.
    """
    if budget <= 0:
        raise ColoringError("budget must be positive")
    d = validate_defects(defects)
    r = len(d)
    n = graph.n
    order = sorted(range(n), key=lambda v: (-graph.degree(v), v))
    assign: list[int | None] = [None] * n
    same = [0] * n  # assigned same-class neighbor count
    nodes = 0

    def place(v: int, c: int) -> bool:
        cnt = 0
        for u in graph.rotation[v]:
            if assign[u] == c:
                cnt += 1
                if same[u] + 1 > d[c]:
                    return False
        if cnt > d[c]:
            return False
        assign[v] = c
        same[v] = cnt
        for u in graph.rotation[v]:
            if assign[u] == c:
                same[u] += 1
        return True

    def remove(v: int) -> None:
        c = assign[v]
        for u in graph.rotation[v]:
            if assign[u] == c:
                same[u] -= 1
        assign[v] = None
        same[v] = 0

    def dfs(i: int) -> str:
        nonlocal nodes
        if i == n:
            return "found"
        v = order[i]
        for c in range(r):
            nodes += 1
            if nodes > budget:
                return "out"
            if place(v, c):
                res = dfs(i + 1)
                if res != "none":
                    return res
                remove(v)
        return "none"

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, n + 100))
    try:
        res = dfs(0)
    finally:
        sys.setrecursionlimit(old)
    if res == "found":
        coloring = Coloring(tuple(assign), d)  # type: ignore[arg-type]
        return SolveResult(SolveStatus.FOUND, coloring, nodes)
    if res == "out":
        return SolveResult(SolveStatus.UNKNOWN, None, nodes)
    return SolveResult(SolveStatus.INFEASIBLE, None, nodes)


def reference_units(charges: Iterable[Fraction]) -> tuple[int, ...]:
    """Each charge as a whole number of units of 1/_UNIT."""
    out = []
    for x in charges:
        units = Fraction(x) * _UNIT
        if units.denominator != 1:
            raise ValueError(f"charge {x} is not a whole number of 1/{_UNIT}")
        out.append(units.numerator)
    return tuple(out)


def reference_ledger(graph: EmbeddedGraph, transfers) -> ChargeLedger:
    """The charges 2d(v) - 6 and d(f) - 6, settled by adding and taking
    each transfer's Fraction amount in turn, then read in units."""
    vertex = tuple(Fraction(2 * graph.degree(u) - 6) for u in range(graph.n))
    face = tuple(Fraction(len(f) - 6) for f in graph.faces)
    final = {"v": list(vertex), "f": list(face)}
    for tr in transfers:
        final[tr.source[0]][tr.source[1]] -= tr.amount
        final[tr.target[0]][tr.target[1]] += tr.amount
    return ChargeLedger(graph.n, reference_units(vertex + face),
                        reference_units(final["v"] + final["f"]))


def reference_transfers(graph: EmbeddedGraph,
                        classes: Sequence[FaceClass]) -> list[Transfer]:
    """R1-R8 with one Transfer per firing, each amount a Fraction, sorted
    by (rule, source, target, witness).  Sponsorships come from
    reference_sponsors."""
    faces, rotation = graph.faces, graph.rotation
    deg = [len(nbrs) for nbrs in rotation]
    half, one = Fraction(1, 2), Fraction(1)
    three_halves, two = Fraction(3, 2), Fraction(2)

    def carries(fi, high):
        return any(u in faces[fi] for u in high)

    out = []
    for v, d in enumerate(deg):
        high = [u for u in rotation[v] if deg[u] >= HIGH_DEGREE]
        ring = graph.passages(v)
        if d == 4:
            sends = [("R1", fi, pos, half) for fi, pos in ring]
        elif d >= HIGH_DEGREE:
            sends = [("R4", fi, pos, two if classes[fi].is_bad else three_halves)
                     for fi, pos in ring]
        elif d == 5:
            sends = [("R2", fi, pos, three_halves
                      if classes[fi] is FaceClass.SPECIAL else one)
                     for fi, pos in ring if classes[fi] is FaceClass.SPECIAL
                     or not carries(fi, high)]
        elif d >= 6:
            eligible = [(fi, pos) for fi, pos in ring if not carries(fi, high)]
            sends = [("R3", fi, pos, Fraction(2 * d - 6, len(eligible)))
                     for fi, pos in eligible]
        else:
            continue
        out += [Transfer(rule, ("v", v), ("f", fi), amount, (pos,))
                for rule, fi, pos, amount in sends]

    coupled = set()
    for inst in reference_sponsors(graph):
        u2, u3 = inst.edge
        d2, d3 = deg[u2], deg[u3]
        if d2 in (3, 4) and d3 in (3, 4):
            rule, amount = "R6", one
        elif {d2, d3} == {2, 3} and classes[inst.f1] is not FaceClass.X1:
            rule, amount = "R7", half
        elif {d2, d3} == {2, 4}:
            rule, amount = (("R8A", half) if classes[inst.f1] is FaceClass.X2
                            else ("R8B", one))
        else:
            continue
        out.append(Transfer(rule, ("f", inst.f1), ("f", inst.f2), amount,
                            (u2, u3, inst.position)))
        if rule != "R6":
            two_end = u2 if d2 == 2 else u3
            coupled |= {(inst.f1, two_end), (inst.f2, two_end)}

    for fi, face in enumerate(faces):
        out += [Transfer("R5", ("f", fi), ("v", u), one, (pos,),
                         independent=(fi, u) not in coupled)
                for pos, u in enumerate(face) if deg[u] == 2]
    out.sort(key=attrgetter("rule", "source", "target", "witness"))
    return out


def reference_transfers_csv(transfers: Iterable[Transfer]) -> str:
    """The transfer CSV written transfer by transfer."""
    lines = ["rule,source_kind,source_id,target_kind,target_id,amount,witness,independent"]
    for tr in transfers:
        ind = "" if tr.independent is None else str(tr.independent).lower()
        wit = ";".join(str(w) for w in tr.witness)
        lines.append(f"{tr.rule},{tr.source[0]},{tr.source[1]},{tr.target[0]},"
                     f"{tr.target[1]},{format_fraction(tr.amount)},{wit},{ind}")
    return "\n".join(lines) + "\n"


def terrible_corners(graph: EmbeddedGraph, classes: Sequence[FaceClass],
                     v: int) -> list[int]:
    """The corners i of v (passages(v)[i]) whose face is Terrible."""
    return [i for i, (fi, _) in enumerate(graph.passages(v))
            if classes[fi] is FaceClass.TERRIBLE]


def reference_audit(graph: EmbeddedGraph, t: int | None = None) -> AuditReport:
    """audit's claim, lemma and flag checks, one object per violation in
    plain lists, read from reference_ledger over reference_transfers."""
    if t is None:
        t = capacity(graph.genus)
    low, high = structural_thresholds(t)
    classes = classify_faces(graph)
    transfers = reference_transfers(graph, classes)
    ledger = reference_ledger(graph, transfers)

    # a Fraction's sign is its numerator's, and reading it skips the
    # generic comparison
    claims: list[ClaimViolation] = []
    for v, final in enumerate(ledger.vertex_final):
        if final.numerator < 0:
            claims.append(ClaimViolation("vertex-negative", ("v", v), final))
    for fi, (face, final) in enumerate(zip(graph.faces, ledger.face_final)):
        d, sign = len(face), final.numerator
        if d >= 7:
            if sign <= 0:
                claims.append(ClaimViolation("face7-nonpositive",
                                             ("f", fi), final))
        elif sign < 0:
            claim = {6: "face6-negative",
                     5: "face5-negative"}.get(d, "small-face-negative")
            claims.append(ClaimViolation(claim, ("f", fi), final))

    deg = [len(nbrs) for nbrs in graph.rotation]
    lemmas: list[LemmaViolation] = []
    for v, d in enumerate(deg):
        if d <= 1:
            lemmas.append(LemmaViolation("min-degree", (v,)))
        if d <= low and not any(deg[u] >= high for u in graph.rotation[v]):
            lemmas.append(LemmaViolation("vx-degree", (v,)))
    for u, v in graph.edges:
        if deg[u] == 2 and deg[v] == 2:
            lemmas.append(LemmaViolation("no-22", (u, v)))
    for v, d in enumerate(deg):
        if d == 5:
            count = sum(1 for fi, _ in graph.passages(v)
                        if classes[fi] is FaceClass.SPECIAL)
            if count > 2:
                lemmas.append(LemmaViolation("special-faces-num", (v, count)))
        elif d >= high:
            bound = terrible_bound(d, high)
            terr = len(terrible_corners(graph, classes, v))
            bad = sum(1 for fi, _ in graph.passages(v) if classes[fi].is_bad)
            if terr > bound:
                lemmas.append(LemmaViolation("terrible-faces-num", (v, terr)))
            if bad > bound:
                lemmas.append(LemmaViolation("bad-faces-num", (v, bad)))
    if graph.m >= graph.n:  # connected with |E| >= |V|: has a cycle
        high_count = sum(1 for d in deg if d >= high)
        if high_count < 3:
            lemmas.append(LemmaViolation("vx-high-general", (high_count,)))

    floor = Fraction(2 * graph.genus) - Fraction(7, 2)
    flags = [HighVertexFlag(v, ledger.vertex_final[v], floor)
             for v, d in enumerate(deg)
             if d >= high and ledger.vertex_final[v] < floor]

    return AuditReport(t, graph.genus, ledger, transfers, classes,
                       claims, lemmas, flags)


def reference_report_text(report: AuditReport) -> str:
    """The text report formatted from one violation object at a time."""
    lines = [
        f"genus: {report.genus}",
        f"threshold t: {report.t}",
        f"total initial charge: {format_fraction(report.ledger.total_initial)}",
        f"total final charge: {format_fraction(report.ledger.total_final)}",
        f"claim violations: {len(report.claim_violations)}",
    ]
    for cv in report.claim_violations:
        lines.append(f"  {cv.claim} at {cv.element[0]}{cv.element[1]} "
                     f"(final {format_fraction(cv.final)})")
    lines.append(f"lemma violations: {len(report.lemma_violations)}")
    for lv in report.lemma_violations:
        lines.append(f"  {lv.lemma} witness {lv.witness}")
    lines.append(f"high-vertex floor flags: {len(report.high_vertex_flags)}")
    for fl in report.high_vertex_flags:
        lines.append(f"  vertex {fl.vertex} final {format_fraction(fl.final)} "
                     f"< {format_fraction(fl.bound)}")
    return "\n".join(lines) + "\n"


def reference_ledger_csv(ledger: ChargeLedger) -> str:
    """The ledger CSV written entry by entry from the Fractions."""
    lines = ["element_kind,element_id,initial,final"]
    for v, (ini, fin) in enumerate(zip(ledger.vertex_initial, ledger.vertex_final)):
        lines.append(f"v,{v},{format_fraction(ini)},{format_fraction(fin)}")
    for f, (ini, fin) in enumerate(zip(ledger.face_initial, ledger.face_final)):
        lines.append(f"f,{f},{format_fraction(ini)},{format_fraction(fin)}")
    return "\n".join(lines) + "\n"


def reference_embedding(rotation: Sequence[Sequence[int]],
                        twists: Iterable[tuple[int, int]] = ()) -> SimpleNamespace:
    """EmbeddedGraph's input checks, vertex by vertex with sets: ids in
    range, then loops and multi-edges, then symmetry, then twists, then
    connectivity.  Returns n, rotation, twists, the sorted edges and the
    genus from reference_faces."""
    rot = tuple(tuple(nbrs) for nbrs in rotation)
    n = len(rot)
    if n == 0:
        raise GraphError("graph must have at least one vertex")
    for v, nbrs in enumerate(rot):
        for u in nbrs:
            if not isinstance(u, int) or not (0 <= u < n):
                raise GraphError(f"vertex {v}: neighbor id {u!r} out of range")
            if u == v:
                raise NonSimpleError(f"vertex {v} lists itself (loop)")
        if len(set(nbrs)) != len(nbrs):
            raise NonSimpleError(f"vertex {v} repeats a neighbor (multi-edge)")
    nbr_sets = tuple(frozenset(nbrs) for nbrs in rot)
    for v, nbrs in enumerate(rot):
        for u in nbrs:
            if v not in nbr_sets[u]:
                raise AsymmetricError(f"{v} lists {u} but {u} does not list {v}")
    edges = tuple(sorted((v, u) for v in range(n) for u in rot[v] if v < u))

    tw = set()
    for u, v in twists:
        e = (min(u, v), max(u, v))
        if e[0] == e[1] or e[1] >= n or e[0] < 0 or e[1] not in nbr_sets[e[0]]:
            raise GraphError(f"twist {u}-{v} is not an edge")
        if e in tw:
            raise GraphError(f"twist {u}-{v} listed twice")
        tw.add(e)

    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in rot[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != n:
        raise DisconnectedError(f"graph has {n - len(seen)} unreachable vertices")
    graph = SimpleNamespace(n=n, rotation=rot, twists=frozenset(tw), edges=edges)
    graph.genus = 2 - (n - len(edges) + len(reference_faces(graph)))
    return graph


def reference_parse_graph(text: str) -> SimpleNamespace:
    """A graph document read line by line: each stripped line is tested for
    a blank, a comment, a twist and a vertex line in turn, and only then
    read; the rotation goes to reference_embedding, and the header's edge
    count and the girth5 gate (by girth_oracle) are checked last."""
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "empty document")
    head = lines[0].split()
    if len(head) not in (3, 4) or head[0] != "graph":
        raise ParseError(1, "expected header 'graph <n> <m> [girth5]'")
    try:
        n, m = int(head[1]), int(head[2])
    except ValueError:
        raise ParseError(1, "vertex/edge counts must be integers") from None
    check_girth = len(head) == 4
    if check_girth and head[3] != "girth5":
        raise ParseError(1, f"unknown header flag {head[3]!r}")
    _check_vertex_count(n, lines)

    rotation: list[list[int] | None] = [None] * n
    twists: dict[tuple[int, int], tuple[int, int]] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "twist":
            if len(parts) != 3:
                raise ParseError(lineno, "expected 'twist <u> <v>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(lineno, "twist endpoints must be integers") from None
            key = (min(u, v), max(u, v))
            if key in twists:
                raise ParseError(lineno, f"twist {u}-{v} listed twice")
            twists[key] = (u, v)
            continue
        if ":" not in line:
            raise ParseError(lineno, "expected '<vertex>: <neighbors>'")
        left, _, right = line.partition(":")
        try:
            v = int(left)
            nbrs = [int(x) for x in right.split()]
        except ValueError:
            raise ParseError(lineno, "vertex ids must be integers") from None
        if not (0 <= v < n):
            raise ParseError(lineno, f"vertex id {v} out of range 0..{n - 1}")
        if rotation[v] is not None:
            raise ParseError(lineno, f"vertex {v} listed twice")
        rotation[v] = nbrs

    missing = [v for v in range(n) if rotation[v] is None]
    if missing:
        raise ParseError(len(lines), f"missing rotation lines for {missing[:5]}")
    graph = reference_embedding(rotation, twists.values())  # type: ignore[arg-type]
    if len(graph.edges) != m:
        raise ParseError(1, f"header says {m} edges, found {len(graph.edges)}")
    if check_girth and girth_oracle(graph) < 5:
        raise GirthTooSmallError(
            f"document declares girth5 but girth is {girth_oracle(graph)}")
    return graph
