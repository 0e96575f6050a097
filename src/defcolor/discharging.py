"""Charge assignment, redistribution rules, and the structural audit.

Every vertex starts with charge 2d(v) - 6 and every face with d(f) - 6;
the totals add up to 6*genus - 12.  Rules R1-R8 move charge between
elements without changing the total:

  R1  each 4-vertex sends 1/2 to every incident face,
  R2  each 5-vertex sends 3/2 to incident Special faces and 1 to other
      incident faces carrying none of its high neighbors,
  R3  each medium vertex splits its initial charge uniformly over its
      incident faces carrying none of its high neighbors,
  R4  each high vertex sends 2 to incident bad faces, 3/2 to the rest,
  R5  each face sends 1 to every incident 2-vertex,
  R6  a (3,3)/(3,4)/(4,3)/(4,4)-sponsor sends 1 to the sponsored face,
  R7  a (2,3)/(3,2)-sponsor that is not an X1-face sends 1/2,
  R8  a (2,4)/(4,2)-sponsor sends 1/2 if it is an X2-face (R8A) and 1
      otherwise (R8B).

Incidences are counted per boundary-walk occurrence, so a vertex
visiting a face twice pays or collects twice.  All arithmetic is exact
and no float is used anywhere: apply_rules accumulates charges in
integer units of 1/_UNIT = 1/27720, the least common multiple of every
denominator a rule can produce (2, and R3's count k <= d <= 11), and
every public value (ledger entries, transfer amounts, claim and flag
charges) is a fractions.Fraction that _amount builds.  The rules and
the audit assume girth >= 5 and raise GirthTooSmallError below it.

This module owns both degree thresholds.  The face patterns and rules
R1-R8 read degrees through one symbol map: 2, 3, 4 and 5 stand for
themselves, medium is 6..11, high is HIGH_DEGREE = 12 or more, whatever
the defect threshold t.  The structural lemmas, checked by audit and
reduced by the colorer, depend on t: a vertex is low at degree <= t + 1
and high at degree >= t + 2 (structural_thresholds).  At t = 10 the two
notions of high coincide.  Above it (genus >= 2, where t =
capacity(genus)) a Terrible face still needs only a 12+ hub, while the
bound on a hub's Terrible faces applies from degree t + 2 on.

The face classes are data: _FACE_TABLE holds one row per classified
5-face (Special, X1, X2, Y1, Y2, Terrible), read by classify_faces.  A
5-face that matches a word has five distinct vertices: a closed walk of
length 5 could only revisit a vertex two steps later (one step would be
a loop), by turning back at a degree-1 vertex ("o"), and no face word
contains "o".  So a word's 2-, 3- and 4-vertices are distinct vertices
of the face, and each 2-vertex has its other passage on another face.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache, cached_property
from itertools import product, starmap
from typing import Callable, NamedTuple, Sequence, TypeVar

from .embedding import EmbeddedGraph, require_girth5

HIGH_DEGREE = 12  # "high" in the face patterns and rules R1-R8
MIN_T = 10        # smallest defect threshold the structural lemmas cover

# One charge unit is 1/_UNIT.  R3 splits 2d - 6 over k <= d < HIGH_DEGREE
# faces, so every amount below is a whole number of units.
_UNIT = math.lcm(*range(1, HIGH_DEGREE))

# The fixed amounts, in units.
_HALF, _ONE, _THREE_HALVES, _TWO = _UNIT // 2, _UNIT, 3 * _UNIT // 2, 2 * _UNIT


@cache
def _amount(units: int) -> Fraction:
    """units / _UNIT: every public charge is built here, once per value.

    The cache is keyed by int, since hashing a Fraction costs a modular
    inverse, and charges take few distinct values.
    """
    return Fraction(units, _UNIT)


def structural_thresholds(t: int) -> tuple[int, int]:
    """(low, high) = (t + 1, t + 2) degree thresholds of the structural
    lemmas: (t+1)-.vertices are low, (t+2)+-vertices are high.  t must be
    an integer: color also uses it as a class's defect."""
    try:
        t = operator.index(t)
    except TypeError:
        raise ValueError(f"threshold t must be an integer, got {t!r}") from None
    if t < MIN_T:
        raise ValueError(f"threshold t must be at least {MIN_T}, got {t}")
    return t + 1, t + 2


def capacity(genus: int) -> int:
    """Defect threshold guaranteeing colorability at this Euler genus:
    max(10, 4*genus + 3)."""
    try:
        genus = operator.index(genus)
    except TypeError:
        raise ValueError(f"genus must be an integer, got {genus!r}") from None
    if genus < 0:
        raise ValueError("genus must be non-negative")
    return max(MIN_T, 4 * genus + 3)


def terrible_bound(d: int, high: int) -> int:
    """Most Terrible (or bad) faces a degree-d vertex, d >= high, may carry."""
    return min(d // 3, d - high)


class FaceClass(Enum):
    SPECIAL = "special"
    X1 = "x1"
    X2 = "x2"
    Y1 = "y1"
    Y2 = "y2"
    TERRIBLE = "terrible"
    PLAIN = "plain"

    @property
    def is_bad(self) -> bool:
        return self in (FaceClass.Y1, FaceClass.Y2)


# Degree symbols indexed by degree below HIGH_DEGREE: "o" (0, 1), the
# digits 2-5, "M" for medium; every higher degree is "H".
_SYMBOLS = "oo2345" + "M" * (HIGH_DEGREE - 6)


def _symbol(d: int) -> str:
    return _SYMBOLS[d] if d < HIGH_DEGREE else "H"


class _Row(NamedTuple):
    """One classified 5-face; cross classes match in either order."""

    word: str                           # degree word around the face
    four: str | None = None             # pattern of each 4-vertex on it
    cross: tuple[FaceClass, ...] = ()   # own classes across its 2-vertices


# "L" stands for 11- and "+" for 2+ in the 4-vertex patterns.
_FACE_TABLE = {
    FaceClass.SPECIAL: _Row("2H253"),
    FaceClass.X1: _Row("2H2H3"),
    FaceClass.X2: _Row("2H2H4", "L2H+"),
    FaceClass.Y1: _Row("2H243", "23LH", (FaceClass.X1, FaceClass.X2)),
    FaceClass.Y2: _Row("2H233", None, (FaceClass.X1, FaceClass.X1)),
    FaceClass.TERRIBLE: _Row("2H244", "24LH", (FaceClass.X2, FaceClass.X2)),
}
_WILDCARDS = {"L": "o2345M", "+": "2345MH"}


def _pattern_table() -> dict[str, frozenset[FaceClass]]:
    """Every word a face or 4-vertex pattern matches, read from any start
    in either direction, mapped to the matching classes.

    Wildcards are expanded and every rotation and reversal is a key, so
    a lookup is one exact match.  Face keys have five symbols and
    4-vertex keys four, so the two never collide.
    """
    table: dict[str, set[FaceClass]] = {}
    for cls, row in _FACE_TABLE.items():
        for pattern in filter(None, (row.word, row.four)):
            for letters in product(*(_WILDCARDS.get(c, c) for c in pattern)):
                word = "".join(letters)
                for w in (word, word[::-1]):
                    for i in range(len(w)):
                        table.setdefault(w[i:] + w[:i], set()).add(cls)
    return {sig: frozenset(classes) for sig, classes in table.items()}


_PATTERNS = _pattern_table()
_NO_MATCH: frozenset[FaceClass] = frozenset()


def _matches(deg: Sequence[int], verts: Sequence[int]) -> frozenset[FaceClass]:
    """Classes whose pattern the degrees around the cyclic verts match."""
    return _PATTERNS.get("".join(_symbol(deg[u]) for u in verts), _NO_MATCH)


def _own_class(graph: EmbeddedGraph, deg: Sequence[int],
               face: tuple[int, ...]) -> FaceClass:
    """The class a face's degree word, 4-vertices and, for X1, the outside
    neighbor of its 3-vertex give it, before any cross face is read."""
    classes = _matches(deg, face) if len(face) == 5 else _NO_MATCH
    if not classes:
        return FaceClass.PLAIN
    (cls,) = classes  # no two face words agree up to rotation or reversal
    # vacuous for the rows whose word has no 4
    if not all(cls in _matches(deg, graph.rotation[q])
               for q in face if deg[q] == 4):
        return FaceClass.PLAIN
    if cls is FaceClass.X1:
        # one outside neighbor, of degree 11-; below girth 5 (stats) a
        # chord can leave none
        (three,) = (u for u in face if deg[u] == 3)
        ext = [u for u in graph.rotation[three] if u not in face]
        if len(ext) != 1 or deg[ext[0]] >= HIGH_DEGREE:
            return FaceClass.PLAIN
    return cls


def classify_faces(graph: EmbeddedGraph) -> tuple[FaceClass, ...]:
    """Class of every face of the embedding (most faces are PLAIN).

    Pass 1 gives every face its own class (_own_class).  Pass 2 keeps it
    unless its row in _FACE_TABLE names cross classes that the own
    classes of the faces across its 2-vertices do not match; the face
    has five distinct vertices, so each 2-vertex has one such face.
    """
    faces = graph.faces
    deg = [len(nbrs) for nbrs in graph.rotation]
    own = [_own_class(graph, deg, face) for face in faces]
    out = []
    for index, (face, cls) in enumerate(zip(faces, own)):
        cross = _FACE_TABLE[cls].cross if cls is not FaceClass.PLAIN else ()
        if cross:
            found = tuple(own[fi] for w in face if deg[w] == 2
                          for fi, _ in graph.passages(w) if fi != index)
            if found not in (cross, cross[::-1]):
                cls = FaceClass.PLAIN
        out.append(cls)
    return tuple(out)


def excess_terrible(graph: EmbeddedGraph, classes: Sequence[FaceClass],
                    v: int, high: int) -> list[int]:
    """The corners i of v (passages(v)[i]) whose face is Terrible, when
    v is high and has more of them than terrible_bound allows; else []."""
    d = graph.degree(v)
    if d < high:
        return []
    corners = [i for i, (fi, _) in enumerate(graph.passages(v))
               if classes[fi] is FaceClass.TERRIBLE]
    return corners if len(corners) > terrible_bound(d, high) else []


def _near_high(rotation: Sequence[Sequence[int]], deg: Sequence[int],
               high: int) -> list[int]:
    """Each vertex's count of neighbors of degree >= high."""
    near = [0] * len(deg)
    for h, d in enumerate(deg):
        if d >= high:
            for u in rotation[h]:
                near[u] += 1
    return near


# ---------------------------------------------------------------------------
# Sponsors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SponsorInstance:
    f1: int
    f2: int
    edge: tuple[int, int]  # (u2, u3) in f1's walk direction
    position: int  # u2's boundary position on f1


def sponsor_instances(graph: EmbeddedGraph) -> list[SponsorInstance]:
    """All sponsorships, one per qualifying (sponsor face, shared edge).

    Each edge {a, b} with a < b and a high neighbor at both ends is read
    once, from the rotation of a: its two sides are the passages through
    the corners before and after b.  Instances come in that order.
    """
    faces, rot = graph.faces, graph.rotation
    deg = [len(nbrs) for nbrs in rot]
    # u1 and u4 are high neighbors of the edge's two ends
    near_high = _near_high(rot, deg, HIGH_DEGREE)
    out = []
    for a, nbrs in enumerate(rot):
        if not near_high[a]:
            continue
        ring = graph.passages(a)
        for j, b in enumerate(nbrs):
            if b < a or not near_high[b]:
                continue
            (f1, p1), (f2, p2) = ring[j], ring[(j + 1) % deg[a]]
            if f1 == f2:  # also at a 1-vertex, whose two corners are one
                continue
            for fi, pos, other in ((f1, p1, f2), (f2, p2, f1)):
                verts = faces[fi]
                n = len(verts)
                if verts[(pos + 1) % n] != b:  # it came from b: walks (b, a)
                    pos = (pos - 1) % n
                u1, u2, u3 = verts[pos - 1], verts[pos], verts[(pos + 1) % n]
                if (deg[u1] >= HIGH_DEGREE
                        and deg[verts[(pos + 2) % n]] >= HIGH_DEGREE):
                    out.append(SponsorInstance(fi, other, (u2, u3), pos))
    return out


# ---------------------------------------------------------------------------
# Charges and rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChargeLedger:
    """Exact per-element charges before and after redistribution.

    initial and net hold the charges in integer units of 1/_UNIT, vertex
    v at v and face fi at n + fi, where n is the vertex count.  The four
    Fraction tuples are views of them, each built on its first read.
    """

    n: int
    initial: tuple[int, ...]
    net: tuple[int, ...]

    @cached_property
    def vertex_initial(self) -> tuple[Fraction, ...]:
        return tuple(map(_amount, self.initial[:self.n]))

    @cached_property
    def face_initial(self) -> tuple[Fraction, ...]:
        return tuple(map(_amount, self.initial[self.n:]))

    @cached_property
    def vertex_final(self) -> tuple[Fraction, ...]:
        return tuple(map(_amount, self.net[:self.n]))

    @cached_property
    def face_final(self) -> tuple[Fraction, ...]:
        return tuple(map(_amount, self.net[self.n:]))

    @property
    def total_initial(self) -> Fraction:
        return _amount(sum(self.initial))

    @property
    def total_final(self) -> Fraction:
        return _amount(sum(self.net))


@dataclass(frozen=True)
class Transfer:
    """One rule application: charge moved from source to target.

    witness pins the incidence: a boundary position for vertex/face
    rules, (u2, u3, position) for sponsor rules.  independent is set on
    R5 transfers only.
    """

    rule: str
    source: tuple[str, int]
    target: tuple[str, int]
    amount: Fraction
    witness: tuple
    independent: bool | None = None


_T = TypeVar("_T")


class RowLog(Sequence[_T]):
    """A log of plain tuples read as objects: item i is make(*rows[i]),
    built on each read.  Equal to any sequence of the same objects;
    unhashable, like a list."""

    def __init__(self, rows: list[tuple], make: Callable[..., _T]):
        self.rows = rows
        self.make = make

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(starmap(self.make, self.rows[i]))
        return self.make(*self.rows[i])

    def __iter__(self):
        return starmap(self.make, self.rows)

    def __eq__(self, other):
        if isinstance(other, Sequence):
            return list(self) == list(other)
        return NotImplemented


def _transfer(rule, source_kind, source_id, target_kind, target_id, witness,
              units, independent) -> Transfer:
    return Transfer(rule, (source_kind, source_id), (target_kind, target_id),
                    _amount(units), witness, independent)


def _r3_share(d: int, k: int) -> int:
    """R3's share (2d - 6)/k, in units."""
    return (2 * d - 6) * _UNIT // k


def apply_rules(graph: EmbeddedGraph,
                classes: Sequence[FaceClass] | None = None
                ) -> tuple[ChargeLedger, RowLog[Transfer]]:
    """Run R1-R8 and return the settled ledger plus the transfer log.

    Each firing logs one row (rule, source kind, source id, target kind,
    target id, witness, units, independent), read as a Transfer; the rows
    are sorted by rule id, then source, target and witness.
    """
    require_girth5(graph, "apply_rules")
    if classes is None:
        classes = classify_faces(graph)
    n, rotation, faces = graph.n, graph.rotation, graph.faces
    deg = [len(nbrs) for nbrs in rotation]
    initial = ([(2 * d - 6) * _UNIT for d in deg]
               + [(len(face) - 6) * _UNIT for face in faces])
    net = initial.copy()
    rows: list[tuple] = []
    log = rows.append

    # the faces each high vertex passes, for "fi carries a high neighbor"
    passed = {h: {fi for fi, _ in graph.passages(h)}
              for h, d in enumerate(deg) if d >= HIGH_DEGREE}

    def carries(fi: int, high: list[int]) -> bool:
        return any(fi in passed[u] for u in high)

    for v, d in enumerate(deg):
        if d <= 3:  # "o", "2" and "3" send nothing
            continue
        sym = _symbol(d)
        if sym == "4":
            rule = "R1"
            sends = [(fi, pos, _HALF) for fi, pos in graph.passages(v)]
        elif sym == "H":
            rule = "R4"
            sends = [(fi, pos, _TWO if classes[fi].is_bad else _THREE_HALVES)
                     for fi, pos in graph.passages(v)]
        elif sym == "5":
            high = [u for u in rotation[v] if deg[u] >= HIGH_DEGREE]
            rule = "R2"
            sends = [(fi, pos, _THREE_HALVES
                      if classes[fi] is FaceClass.SPECIAL else _ONE)
                     for fi, pos in graph.passages(v)
                     if classes[fi] is FaceClass.SPECIAL
                     or not carries(fi, high)]
        elif sym == "M":
            high = [u for u in rotation[v] if deg[u] >= HIGH_DEGREE]
            eligible = [(fi, pos) for fi, pos in graph.passages(v)
                        if not carries(fi, high)]
            rule = "R3"
            share = _r3_share(d, len(eligible)) if eligible else None
            sends = [(fi, pos, share) for fi, pos in eligible]
        else:
            continue
        for fi, pos, units in sends:
            log((rule, "v", v, "f", fi, (pos,), units, None))
            net[v] -= units
            net[n + fi] += units

    coupled: set[tuple[int, int]] = set()
    for inst in sponsor_instances(graph):
        u2, u3 = inst.edge
        d2, d3 = deg[u2], deg[u3]
        pair = {d2, d3}
        if d2 in (3, 4) and d3 in (3, 4):
            rule, units = "R6", _ONE
        elif pair == {2, 3} and classes[inst.f1] is not FaceClass.X1:
            rule, units = "R7", _HALF
        elif pair == {2, 4}:
            rule, units = (("R8A", _HALF) if classes[inst.f1] is FaceClass.X2
                           else ("R8B", _ONE))
        else:
            continue
        log((rule, "f", inst.f1, "f", inst.f2, (u2, u3, inst.position),
             units, None))
        net[n + inst.f1] -= units
        net[n + inst.f2] += units
        if rule != "R6":
            two_end = u2 if d2 == 2 else u3
            coupled.add((inst.f1, two_end))
            coupled.add((inst.f2, two_end))

    # each face's 2-vertices in walk order: rows.sort() below orders them
    for fi, face in enumerate(faces):
        for pos, u in enumerate(face):
            if deg[u] == 2:
                log(("R5", "f", fi, "v", u, (pos,), _ONE,
                     (fi, u) not in coupled))
                net[n + fi] -= _ONE
                net[u] += _ONE

    # keys are unique, so a row's natural order is its key order
    rows.sort()
    return ChargeLedger(n, tuple(initial), tuple(net)), RowLog(rows, _transfer)


# ---------------------------------------------------------------------------
# Audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClaimViolation:
    claim: str
    element: tuple[str, int]
    final: Fraction


@dataclass(frozen=True)
class LemmaViolation:
    lemma: str
    witness: tuple


@dataclass(frozen=True)
class HighVertexFlag:
    vertex: int
    final: Fraction
    bound: Fraction


@dataclass
class AuditReport:
    """What audit found, at threshold t on a surface of this genus.

    A claim row is (claim, element, final charge in units), a lemma row
    (lemma, witness), in the order of the checks in audit.
    """

    t: int
    genus: int
    ledger: ChargeLedger
    transfers: RowLog[Transfer]
    face_classes: tuple[FaceClass, ...]
    claim_violations: RowLog[ClaimViolation]
    lemma_violations: RowLog[LemmaViolation]
    high_vertex_flags: list[HighVertexFlag]

    @property
    def violated_lemmas(self) -> set[str]:
        return {lemma for lemma, _ in self.lemma_violations.rows}


_FACE_CLAIMS = {6: "face6-negative", 5: "face5-negative"}


def _audit_thresholds(graph: EmbeddedGraph,
                      t: int | None) -> tuple[int, int, int]:
    """(t, low, high) for an audit of graph at t, after audit's checks in
    their order: t first (capacity(genus) when None), then the girth.
    The CSV export runs these before apply_rules alone."""
    if t is None:
        t = capacity(graph.genus)
    low, high = structural_thresholds(t)
    require_girth5(graph, "audit")
    return t, low, high


def audit(graph: EmbeddedGraph, t: int | None = None) -> AuditReport:
    """Run the rules, check the charge claims, and check the structural
    conclusions that the claims rest on.

    Claim checks: negative vertices, non-positive 7+-faces, negative 6-
    and 5-faces (negative smaller faces are reported as small-face).
    Structural checks (threshold t): minimum degree 2; every (t+1)-.
    vertex has a (t+2)+ neighbor; no adjacent 2-vertices; 5-vertices on
    at most two Special faces; (t+2)+ vertices within the terrible/bad
    face bound min(d//3, d - t - 2); at least three (t+2)+ vertices when
    a cycle exists.  Finally every (t+2)+ vertex's final charge is
    checked against the general-surface floor 2*genus - 3.5.  t defaults
    to capacity(genus), as in color.
    """
    t, low, high = _audit_thresholds(graph, t)
    classes = classify_faces(graph)
    ledger, transfers = apply_rules(graph, classes)
    n, rot = graph.n, graph.rotation
    net = ledger.net

    claims = [("vertex-negative", ("v", v), net[v])
              for v in range(n) if net[v] < 0]
    for fi, face in enumerate(graph.faces):
        final = net[n + fi]
        if len(face) >= 7:
            if final <= 0:
                claims.append(("face7-nonpositive", ("f", fi), final))
        elif final < 0:
            claim = _FACE_CLAIMS.get(len(face), "small-face-negative")
            claims.append((claim, ("f", fi), final))

    # one pass, three row lists in the order of the checks: min-degree
    # and vx-degree by vertex, then no-22 by edge, then the face counts
    deg = [len(nbrs) for nbrs in rot]
    highs = _near_high(rot, deg, high)
    lemmas, no22, counts = [], [], []
    for v, d in enumerate(deg):
        if d <= low:
            if d <= 1:
                lemmas.append(("min-degree", (v,)))
            elif d == 2:  # its edges to later 2-vertices, in edge order
                a, b = rot[v]
                if a > b:
                    a, b = b, a
                if a > v and deg[a] == 2:
                    no22.append(("no-22", (v, a)))
                if b > v and deg[b] == 2:
                    no22.append(("no-22", (v, b)))
            if not highs[v]:
                lemmas.append(("vx-degree", (v,)))
            if d == 5:
                special = sum(1 for fi, _ in graph.passages(v)
                              if classes[fi] is FaceClass.SPECIAL)
                if special > 2:
                    counts.append(("special-faces-num", (v, special)))
        else:  # d >= high
            terrible = excess_terrible(graph, classes, v, high)
            if terrible:
                counts.append(("terrible-faces-num", (v, len(terrible))))
            bad = sum(1 for fi, _ in graph.passages(v) if classes[fi].is_bad)
            if bad > terrible_bound(d, high):
                counts.append(("bad-faces-num", (v, bad)))
    lemmas += no22
    lemmas += counts
    if graph.m >= graph.n:  # connected with |E| >= |V|: has a cycle
        high_count = sum(1 for d in deg if d >= high)
        if high_count < 3:
            lemmas.append(("vx-high-general", (high_count,)))

    floor = 2 * graph.genus * _UNIT - 7 * _HALF  # 2*genus - 3.5, in units
    flags = [HighVertexFlag(v, _amount(net[v]), _amount(floor))
             for v, d in enumerate(deg) if d >= high and net[v] < floor]
    return AuditReport(t, graph.genus, ledger, transfers, classes,
                       RowLog(claims, _claim_violation),
                       RowLog(lemmas, LemmaViolation), flags)


def _claim_violation(claim: str, element: tuple[str, int],
                     final: int) -> ClaimViolation:
    return ClaimViolation(claim, element, _amount(final))


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def format_fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _unit_texts(units: set[int]) -> dict[int, str]:
    return {u: format_fraction(_amount(u)) for u in units}


def ledger_csv(ledger: ChargeLedger) -> str:
    """Written from the ledger's units, so no Fraction view is built."""
    initial, net, n = ledger.initial, ledger.net, ledger.n
    text = _unit_texts({*initial, *net})
    lines = ["element_kind,element_id,initial,final"]
    lines += [f"v,{v},{text[a]},{text[b]}"
              for v, (a, b) in enumerate(zip(initial[:n], net[:n]))]
    lines += [f"f,{f},{text[a]},{text[b]}"
              for f, (a, b) in enumerate(zip(initial[n:], net[n:]))]
    return "\n".join(lines) + "\n"


def transfers_csv(transfers: RowLog[Transfer]) -> str:
    """Written from the log's rows, so no Transfer is built; each distinct
    amount is formatted once."""
    text = _unit_texts({row[6] for row in transfers.rows})
    flag = {None: "", True: "true", False: "false"}
    lines = ["rule,source_kind,source_id,target_kind,target_id,amount,witness,independent"]
    for rule, sk, si, tk, ti, witness, amount, independent in transfers.rows:
        wit = witness[0] if len(witness) == 1 else ";".join(map(str, witness))
        lines.append(f"{rule},{sk},{si},{tk},{ti},{text[amount]},{wit},"
                     f"{flag[independent]}")
    return "\n".join(lines) + "\n"


def report_text(report: AuditReport) -> str:
    """Written from the claim and lemma rows, so no violation is built."""
    ledger, claims = report.ledger, report.claim_violations.rows
    lines = [
        f"genus: {report.genus}",
        f"threshold t: {report.t}",
        f"total initial charge: {format_fraction(ledger.total_initial)}",
        f"total final charge: {format_fraction(ledger.total_final)}",
        f"claim violations: {len(report.claim_violations)}",
    ]
    lines += [f"  {claim} at {kind}{index} "
              f"(final {format_fraction(_amount(units))})"
              for claim, (kind, index), units in claims]
    lines.append(f"lemma violations: {len(report.lemma_violations)}")
    lines += [f"  {lemma} witness {witness}"
              for lemma, witness in report.lemma_violations.rows]
    lines.append(f"high-vertex floor flags: {len(report.high_vertex_flags)}")
    for fl in report.high_vertex_flags:
        lines.append(f"  vertex {fl.vertex} final {format_fraction(fl.final)} "
                     f"< {format_fraction(fl.bound)}")
    return "\n".join(lines) + "\n"
