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

"High" means degree >= 12 throughout the rules; incidences are counted
per boundary-walk occurrence, so a vertex visiting a face twice pays or
collects twice.  All arithmetic is exact (fractions.Fraction).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Sequence

from .embedding import (EmbeddedGraph, Face, GirthTooSmallError, girth)

HIGH_DEGREE = 12

HALF = Fraction(1, 2)
ONE = Fraction(1)
THREE_HALVES = Fraction(3, 2)
TWO = Fraction(2)


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


def _is2(d: int) -> bool:
    return d == 2


def _is3(d: int) -> bool:
    return d == 3


def _is4(d: int) -> bool:
    return d == 4


def _is5(d: int) -> bool:
    return d == 5


def _high(d: int) -> bool:
    return d >= HIGH_DEGREE


def _low11(d: int) -> bool:
    return d <= 11


def _two_plus(d: int) -> bool:
    return d >= 2


_DEGREES = {
    FaceClass.SPECIAL: (_is2, _high, _is2, _is5, _is3),
    FaceClass.X1: (_is2, _high, _is2, _high, _is3),
    FaceClass.X2: (_is2, _high, _is2, _high, _is4),
    FaceClass.Y1: (_is2, _high, _is2, _is4, _is3),
    FaceClass.Y2: (_is2, _high, _is2, _is3, _is3),
    FaceClass.TERRIBLE: (_is2, _high, _is2, _is4, _is4),
}

_X2_NBRS = (_low11, _is2, _high, _two_plus)
_Y1_NBRS = (_is2, _is3, _low11, _high)
_TERRIBLE_NBRS = (_is2, _is4, _low11, _high)


def _match_cyclic(values: Sequence[int],
                  preds: Sequence[Callable[[int], bool]]) -> bool:
    """Match predicates against a cyclic sequence, either direction."""
    n = len(values)
    if n != len(preds):
        return False
    for seq in (tuple(values), tuple(reversed(values))):
        for shift in range(n):
            if all(preds[k](seq[(shift + k) % n]) for k in range(n)):
                return True
    return False


def _cross_face(graph: EmbeddedGraph, face: Face, w: int) -> int | None:
    """Index of the other face at 2-vertex w, or None if it is face again."""
    others = [fi for fi, _ in graph.passages(w) if fi != face.index]
    if len(others) != 1:
        return None
    return others[0]


def _verts_of_degree(graph: EmbeddedGraph, face: Face, d: int) -> list[int]:
    return [u for u in dict.fromkeys(face.verts) if graph.degree(u) == d]


def _x_status(graph: EmbeddedGraph, face: Face) -> FaceClass | None:
    """X1/X2 status from the face's own pattern (no other-face conditions)."""
    if face.degree != 5:
        return None
    degs = [graph.degree(u) for u in face.verts]
    if _match_cyclic(degs, _DEGREES[FaceClass.X1]):
        threes = _verts_of_degree(graph, face, 3)
        if len(threes) == 1:
            ext = [u for u in graph.neighbors(threes[0]) if u not in face.vert_set]
            if len(ext) == 1 and not _high(graph.degree(ext[0])):
                return FaceClass.X1
        return None
    if _match_cyclic(degs, _DEGREES[FaceClass.X2]):
        fours = _verts_of_degree(graph, face, 4)
        if len(fours) == 1:
            nbr_degs = [graph.degree(u) for u in graph.neighbors(fours[0])]
            if _match_cyclic(nbr_degs, _X2_NBRS):
                return FaceClass.X2
        return None
    return None


def classify_faces(graph: EmbeddedGraph) -> tuple[FaceClass, ...]:
    """Class of every face of the embedding (most face are PLAIN)."""
    x_status = {f.index: _x_status(graph, f) for f in graph.faces if f.degree == 5}

    def cross_status(face: Face, w: int) -> FaceClass | None:
        other = _cross_face(graph, face, w)
        return x_status.get(other) if other is not None else None

    out = []
    for face in graph.faces:
        out.append(_classify_one(graph, face, x_status, cross_status))
    return tuple(out)


def _classify_one(graph, face, x_status, cross_status) -> FaceClass:
    if face.degree != 5:
        return FaceClass.PLAIN
    degs = [graph.degree(u) for u in face.verts]

    if _match_cyclic(degs, _DEGREES[FaceClass.TERRIBLE]):
        fours = _verts_of_degree(graph, face, 4)
        twos = _verts_of_degree(graph, face, 2)
        if (len(fours) == 2 and len(twos) == 2
                and all(_match_cyclic([graph.degree(u) for u in graph.neighbors(q)],
                                      _TERRIBLE_NBRS) for q in fours)
                and all(cross_status(face, w) is FaceClass.X2 for w in twos)):
            return FaceClass.TERRIBLE
        return FaceClass.PLAIN

    if _match_cyclic(degs, _DEGREES[FaceClass.Y1]):
        fours = _verts_of_degree(graph, face, 4)
        twos = _verts_of_degree(graph, face, 2)
        if len(fours) == 1 and len(twos) == 2:
            nbr_degs = [graph.degree(u) for u in graph.neighbors(fours[0])]
            crosses = {cross_status(face, w) for w in twos}
            if (_match_cyclic(nbr_degs, _Y1_NBRS)
                    and crosses == {FaceClass.X1, FaceClass.X2}):
                return FaceClass.Y1
        return FaceClass.PLAIN

    if _match_cyclic(degs, _DEGREES[FaceClass.Y2]):
        twos = _verts_of_degree(graph, face, 2)
        if (len(twos) == 2
                and all(cross_status(face, w) is FaceClass.X1 for w in twos)):
            return FaceClass.Y2
        return FaceClass.PLAIN

    status = x_status.get(face.index)
    if status is not None:
        return status

    if _match_cyclic(degs, _DEGREES[FaceClass.SPECIAL]):
        return FaceClass.SPECIAL
    return FaceClass.PLAIN


def classify_face(graph: EmbeddedGraph, face: Face) -> FaceClass:
    """Classification of one face (direction-invariant, deterministic)."""
    return classify_faces(graph)[face.index]


def raw_pattern_matches(graph: EmbeddedGraph, face: Face) -> tuple[FaceClass, ...]:
    """All degree patterns the face matches, before the extra conditions."""
    if face.degree != 5:
        return ()
    degs = [graph.degree(u) for u in face.verts]
    return tuple(cls for cls, preds in _DEGREES.items()
                 if _match_cyclic(degs, preds))


# ---------------------------------------------------------------------------
# Sponsors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SponsorKind:
    """Raw degree pair of the shared edge plus the sponsor's X-flags."""

    d2: int
    d3: int
    sponsor_is_x1: bool
    sponsor_is_x2: bool


@dataclass(frozen=True)
class SponsorInstance:
    f1: int
    f2: int
    edge: tuple[int, int]  # (u2, u3) in f1's walk direction
    kind: SponsorKind
    position: int  # u2's boundary position on f1


def sponsor_instances(graph: EmbeddedGraph,
                      classes: Sequence[FaceClass] | None = None) -> list[SponsorInstance]:
    """All sponsorships, one per qualifying (sponsor face, shared edge)."""
    if classes is None:
        classes = classify_faces(graph)
    out = []
    for a, b in graph.edges:
        sides = graph.edge_sides(a, b)
        if len(sides) != 2:
            continue
        for k, (fi, pos) in enumerate(sides):
            f2i, _ = sides[1 - k]
            if f2i == fi:
                continue
            face = graph.faces[fi]
            n = face.degree
            u2, u3 = face.darts[pos]
            u1 = face.verts[pos - 1]
            u4 = face.verts[(pos + 2) % n]
            if _high(graph.degree(u1)) and _high(graph.degree(u4)):
                kind = SponsorKind(graph.degree(u2), graph.degree(u3),
                                   classes[fi] is FaceClass.X1,
                                   classes[fi] is FaceClass.X2)
                out.append(SponsorInstance(fi, f2i, (u2, u3), kind, pos))
    return out


def sponsor_relation(graph: EmbeddedGraph, f1: Face, f2: Face) -> SponsorKind | None:
    """SponsorKind if f1 sponsors f2 across some shared edge, else None."""
    if f1.index == f2.index:
        raise ValueError("a face cannot sponsor itself")
    for inst in sponsor_instances(graph):
        if inst.f1 == f1.index and inst.f2 == f2.index:
            return inst.kind
    return None


# ---------------------------------------------------------------------------
# Charges and rules
# ---------------------------------------------------------------------------


@dataclass
class ChargeLedger:
    """Exact per-element charges before and after redistribution."""

    vertex_initial: tuple[Fraction, ...]
    face_initial: tuple[Fraction, ...]
    vertex_final: tuple[Fraction, ...]
    face_final: tuple[Fraction, ...]

    @property
    def total_initial(self) -> Fraction:
        return sum(self.vertex_initial, Fraction(0)) + sum(self.face_initial, Fraction(0))

    @property
    def total_final(self) -> Fraction:
        return sum(self.vertex_final, Fraction(0)) + sum(self.face_final, Fraction(0))


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


def initial_charges(graph: EmbeddedGraph) -> ChargeLedger:
    """Charges 2d(v) - 6 and d(f) - 6; the total equals 6*genus - 12."""
    v = tuple(Fraction(2 * graph.degree(u) - 6) for u in range(graph.n))
    f = tuple(Fraction(face.degree - 6) for face in graph.faces)
    return ChargeLedger(v, f, v, f)


def apply_rules(graph: EmbeddedGraph) -> tuple[ChargeLedger, list[Transfer]]:
    """Run R1-R8 and return the settled ledger plus the transfer log.

    The log is sorted by rule id, then source, then witness.  Girth
    below 5 only triggers a warning; the rules stay well defined.
    """
    if girth(graph) < 5:
        warnings.warn("discharging rules assume girth >= 5", stacklevel=2)
    classes = classify_faces(graph)
    transfers: list[Transfer] = []

    high_nbrs = [tuple(u for u in graph.neighbors(v) if _high(graph.degree(u)))
                 for v in range(graph.n)]

    def face_has_high_nbr(fi: int, v: int) -> bool:
        vs = graph.faces[fi].vert_set
        return any(u in vs for u in high_nbrs[v])

    for v in range(graph.n):
        d = graph.degree(v)
        if d == 4:
            for fi, pos in graph.passages(v):
                transfers.append(Transfer("R1", ("v", v), ("f", fi), HALF, (pos,)))
        elif d == 5:
            for fi, pos in graph.passages(v):
                if classes[fi] is FaceClass.SPECIAL:
                    transfers.append(Transfer("R2", ("v", v), ("f", fi),
                                              THREE_HALVES, (pos,)))
                elif not face_has_high_nbr(fi, v):
                    transfers.append(Transfer("R2", ("v", v), ("f", fi), ONE, (pos,)))
        elif 6 <= d <= 11:
            eligible = [(fi, pos) for fi, pos in graph.passages(v)
                        if not face_has_high_nbr(fi, v)]
            if eligible:
                amount = Fraction(2 * d - 6, len(eligible))
                for fi, pos in eligible:
                    transfers.append(Transfer("R3", ("v", v), ("f", fi),
                                              amount, (pos,)))
        elif d >= HIGH_DEGREE:
            for fi, pos in graph.passages(v):
                amount = TWO if classes[fi].is_bad else THREE_HALVES
                transfers.append(Transfer("R4", ("v", v), ("f", fi), amount, (pos,)))

    instances = sponsor_instances(graph, classes)
    coupled: set[tuple[int, int]] = set()
    for inst in instances:
        pair = {inst.kind.d2, inst.kind.d3}
        rule = amount = None
        if (inst.kind.d2, inst.kind.d3) in ((3, 3), (3, 4), (4, 3), (4, 4)):
            rule, amount = "R6", ONE
        elif pair == {2, 3} and not inst.kind.sponsor_is_x1:
            rule, amount = "R7", HALF
        elif pair == {2, 4}:
            rule, amount = ("R8A", HALF) if inst.kind.sponsor_is_x2 else ("R8B", ONE)
        if rule is None:
            continue
        transfers.append(Transfer(rule, ("f", inst.f1), ("f", inst.f2), amount,
                                  (inst.edge[0], inst.edge[1], inst.position)))
        if rule in ("R7", "R8A", "R8B"):
            two_end = inst.edge[0] if graph.degree(inst.edge[0]) == 2 else inst.edge[1]
            coupled.add((inst.f1, two_end))
            coupled.add((inst.f2, two_end))

    for face in graph.faces:
        for pos, u in enumerate(face.verts):
            if graph.degree(u) == 2:
                transfers.append(Transfer("R5", ("f", face.index), ("v", u), ONE,
                                          (pos,),
                                          independent=(face.index, u) not in coupled))

    transfers.sort(key=lambda tr: (tr.rule, tr.source, tr.target, tr.witness))

    v_final = [Fraction(2 * graph.degree(u) - 6) for u in range(graph.n)]
    f_final = [Fraction(face.degree - 6) for face in graph.faces]
    for tr in transfers:
        for sign, (kind, idx) in ((-1, tr.source), (1, tr.target)):
            if kind == "v":
                v_final[idx] += sign * tr.amount
            else:
                f_final[idx] += sign * tr.amount

    ledger = ChargeLedger(
        tuple(Fraction(2 * graph.degree(u) - 6) for u in range(graph.n)),
        tuple(Fraction(face.degree - 6) for face in graph.faces),
        tuple(v_final), tuple(f_final))
    return ledger, transfers


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
    t: int
    genus: int
    ledger: ChargeLedger
    transfers: list[Transfer]
    face_classes: tuple[FaceClass, ...]
    raw_matches: dict[int, tuple[FaceClass, ...]]
    claim_violations: list[ClaimViolation]
    lemma_violations: list[LemmaViolation]
    high_vertex_flags: list[HighVertexFlag]

    @property
    def violated_lemmas(self) -> set[str]:
        return {lv.lemma for lv in self.lemma_violations}


def audit(graph: EmbeddedGraph, t: int = 10) -> AuditReport:
    """Run the rules, check the charge claims, and check the structural
    conclusions that the claims rest on.

    Claim checks: negative vertices, non-positive 7+-faces, negative 6-
    and 5-faces (negative smaller faces are reported as small-face).
    Structural checks (threshold t): minimum degree 2; every (t+1)-.
    vertex has a (t+2)+ neighbor; no adjacent 2-vertices; 5-vertices on
    at most two Special faces; (t+2)+ vertices within the terrible/bad
    face bound min(d//3, d - t - 2); at least three (t+2)+ vertices when
    a cycle exists.  Finally every (t+2)+ vertex's final charge is
    checked against the general-surface floor 2*genus - 3.5.
    """
    if t < 10:
        raise ValueError(f"threshold t must be at least 10, got {t}")
    g = girth(graph)
    if g < 5:
        raise GirthTooSmallError(f"audit requires girth >= 5, got {g}")
    ledger, transfers = apply_rules(graph)
    classes = classify_faces(graph)

    claims: list[ClaimViolation] = []
    for v, final in enumerate(ledger.vertex_final):
        if final < 0:
            claims.append(ClaimViolation("vertex-negative", ("v", v), final))
    for face, final in zip(graph.faces, ledger.face_final):
        if face.degree >= 7:
            if final <= 0:
                claims.append(ClaimViolation("face7-nonpositive",
                                             ("f", face.index), final))
        elif face.degree == 6:
            if final < 0:
                claims.append(ClaimViolation("face6-negative",
                                             ("f", face.index), final))
        elif face.degree == 5:
            if final < 0:
                claims.append(ClaimViolation("face5-negative",
                                             ("f", face.index), final))
        elif final < 0:
            claims.append(ClaimViolation("small-face-negative",
                                         ("f", face.index), final))

    lemmas: list[LemmaViolation] = []
    for v in range(graph.n):
        d = graph.degree(v)
        if d <= 1:
            lemmas.append(LemmaViolation("min-degree", (v,)))
        if d <= t + 1 and not any(graph.degree(u) >= t + 2
                                  for u in graph.neighbors(v)):
            lemmas.append(LemmaViolation("vx-degree", (v,)))
    for u, v in graph.edges:
        if graph.degree(u) == 2 and graph.degree(v) == 2:
            lemmas.append(LemmaViolation("no-22", (u, v)))
    for v in range(graph.n):
        d = graph.degree(v)
        if d == 5:
            count = sum(1 for fi, _ in graph.passages(v)
                        if classes[fi] is FaceClass.SPECIAL)
            if count > 2:
                lemmas.append(LemmaViolation("special-faces-num", (v, count)))
        elif d >= t + 2:
            bound = min(d // 3, d - t - 2)
            terr = sum(1 for fi, _ in graph.passages(v)
                       if classes[fi] is FaceClass.TERRIBLE)
            bad = sum(1 for fi, _ in graph.passages(v) if classes[fi].is_bad)
            if terr > bound:
                lemmas.append(LemmaViolation("terrible-faces-num", (v, terr)))
            if bad > bound:
                lemmas.append(LemmaViolation("bad-faces-num", (v, bad)))
    if g != float("inf"):
        high_count = sum(1 for v in range(graph.n) if graph.degree(v) >= t + 2)
        if high_count < 3:
            lemmas.append(LemmaViolation("vx-high-general", (high_count,)))

    floor = Fraction(2 * graph.genus) - Fraction(7, 2)
    flags = [HighVertexFlag(v, ledger.vertex_final[v], floor)
             for v in range(graph.n)
             if graph.degree(v) >= t + 2 and ledger.vertex_final[v] < floor]

    raw = {f.index: raw_pattern_matches(graph, f)
           for f in graph.faces if f.degree == 5}
    return AuditReport(t, graph.genus, ledger, transfers, classes, raw,
                       claims, lemmas, flags)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def format_fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def ledger_csv(ledger: ChargeLedger) -> str:
    lines = ["element_kind,element_id,initial,final"]
    for v, (ini, fin) in enumerate(zip(ledger.vertex_initial, ledger.vertex_final)):
        lines.append(f"v,{v},{format_fraction(ini)},{format_fraction(fin)}")
    for f, (ini, fin) in enumerate(zip(ledger.face_initial, ledger.face_final)):
        lines.append(f"f,{f},{format_fraction(ini)},{format_fraction(fin)}")
    return "\n".join(lines) + "\n"


def transfers_csv(transfers: Sequence[Transfer]) -> str:
    lines = ["rule,source_kind,source_id,target_kind,target_id,amount,witness,independent"]
    for tr in transfers:
        ind = "" if tr.independent is None else str(tr.independent).lower()
        wit = ";".join(str(w) for w in tr.witness)
        lines.append(f"{tr.rule},{tr.source[0]},{tr.source[1]},{tr.target[0]},"
                     f"{tr.target[1]},{format_fraction(tr.amount)},{wit},{ind}")
    return "\n".join(lines) + "\n"


def report_text(report: AuditReport) -> str:
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
