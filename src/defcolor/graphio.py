"""Plain-text graph and coloring documents.

Graph document: a header line ``graph <n> <m>`` (optionally followed by
the token ``girth5``, which makes the parser check the cached girth-5
gate ``EmbeddedGraph.short_cycle``: no cycle of length 3 or 4), then
one line per vertex ``<id>: <nbr> <nbr> ...`` in rotation order, then
optional ``twist <u> <v>`` lines naming sign-flipped edges, each edge at
most once.  Rotation order round-trips exactly.

Coloring document: ``coloring <n> defects <d1>,<d2>,...`` then one line
``<vertex> <class>`` per vertex with 1-based class indices.

Both parsers read each body line first as a vertex line, straight into
ints; only a line that does not read as one is told apart as a twist,
comment, blank or faulty line.  ``parse_graph`` hands the rotation to
``EmbeddedGraph``, which checks it by finding each dart's reverse (kept
for the face walk later), and compares the header's edge count with
``EmbeddedGraph.m``, so it sorts no edges.
"""

from __future__ import annotations

from .coloring import Coloring, ColoringError, validate_defects
from .embedding import EmbeddedGraph, GirthTooSmallError


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _check_vertex_count(n: int, lines: list[str]) -> None:
    """Each vertex takes one body line, so a header n beyond the body is
    rejected before anything is allocated per vertex."""
    if n < 0:
        raise ParseError(1, f"vertex count {n} is negative")
    if n > len(lines) - 1:
        raise ParseError(1, f"header declares {n} vertices but the document "
                            f"has {len(lines) - 1} body lines")


def parse_graph(text: str) -> EmbeddedGraph:
    """Parse a graph document; build errors surface unchanged."""
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

    rotation: list[tuple[int, ...] | None] = [None] * n
    twists: dict[tuple[int, int], tuple[int, int]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        left, colon, right = line.partition(":")
        if colon:
            try:
                v = int(left)
                nbrs = tuple(map(int, right.split()))
            except ValueError:
                pass
            else:
                if not (0 <= v < n):
                    raise ParseError(lineno, f"vertex id {v} out of range 0..{n - 1}")
                if rotation[v] is not None:
                    raise ParseError(lineno, f"vertex {v} listed twice")
                rotation[v] = nbrs
                continue
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "twist":  # no vertex line, comment or twist
            raise ParseError(lineno, "vertex ids must be integers" if colon
                             else "expected '<vertex>: <neighbors>'")
        if len(parts) != 3:
            raise ParseError(lineno, "expected 'twist <u> <v>'")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(lineno, "twist endpoints must be integers") from None
        # Two sign flips on one edge cancel; a set would keep one.
        key = (min(u, v), max(u, v))
        if key in twists:
            raise ParseError(lineno, f"twist {u}-{v} listed twice")
        twists[key] = (u, v)

    missing = [v for v in range(n) if rotation[v] is None]
    if missing:
        raise ParseError(len(lines), f"missing rotation lines for {missing[:5]}")
    graph = EmbeddedGraph(rotation, twists.values())  # type: ignore[arg-type]
    if graph.m != m:
        raise ParseError(1, f"header says {m} edges, found {graph.m}")
    if check_girth and graph.short_cycle < 5:
        raise GirthTooSmallError(
            f"document declares girth5 but girth is {graph.short_cycle}")
    return graph


def serialize_graph(graph: EmbeddedGraph, declare_girth5: bool = False) -> str:
    flag = " girth5" if declare_girth5 else ""
    lines = [f"graph {graph.n} {graph.m}{flag}"]
    for v in range(graph.n):
        lines.append(f"{v}: " + " ".join(str(u) for u in graph.rotation[v]))
    for u, v in sorted(graph.twists):
        lines.append(f"twist {u} {v}")
    return "\n".join(lines) + "\n"


def parse_coloring(text: str) -> Coloring:
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "empty document")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "coloring" or head[2] != "defects":
        raise ParseError(1, "expected header 'coloring <n> defects <d1>,<d2>,...'")
    try:
        n = int(head[1])
        defects = validate_defects([int(x) for x in head[3].split(",")])
    except ColoringError as exc:
        raise ParseError(1, str(exc)) from None
    except ValueError:
        raise ParseError(1, "bad counts or defect vector") from None
    _check_vertex_count(n, lines)
    assign: list[int | None] = [None] * n
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            v, c = map(int, line.split())
        except ValueError:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if len(line.split()) != 2:
                raise ParseError(lineno, "expected '<vertex> <class>'") from None
            raise ParseError(lineno, "expected integers") from None
        if not (0 <= v < n):
            raise ParseError(lineno, f"vertex id {v} out of range")
        if not (1 <= c <= len(defects)):
            raise ParseError(lineno, f"class {c} out of range 1..{len(defects)}")
        if assign[v] is not None:
            raise ParseError(lineno, f"vertex {v} listed twice")
        assign[v] = c - 1
    missing = [v for v in range(n) if assign[v] is None]
    if missing:
        raise ParseError(len(lines), f"vertices without classes: {missing[:5]}")
    return Coloring(tuple(assign), defects)  # type: ignore[arg-type]


def serialize_coloring(coloring: Coloring) -> str:
    defects = ",".join(str(d) for d in coloring.defects)
    lines = [f"coloring {len(coloring.assignment)} defects {defects}"]
    for v, c in enumerate(coloring.assignment):
        lines.append(f"{v} {c + 1}")
    return "\n".join(lines) + "\n"
