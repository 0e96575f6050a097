"""Command-line interface.

Subcommands: check, solve, color, audit, gen, stats.  Exit codes:
0 success, 1 negative result (invalid coloring / infeasible / anomaly),
2 usage error, 3 bad input, 4 budget exhausted, 5 out of memory.  Errors
print one machine-readable line ``error: <category>: <detail>`` on stderr.
``main`` pauses the cyclic garbage collector for the command and restores
the caller's setting after it: no command leaves cyclic garbage, so the
collections would free nothing (the library functions leave it alone).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from collections import Counter
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii

from .colorer import ReductionKind, color
from .coloring import SolveStatus, is_valid, solve_exact, validate_defects
from .discharging import (_audit_thresholds, apply_rules, audit,
                          classify_faces, ledger_csv, report_text,
                          transfers_csv)
from .embedding import girth
from .generate import gen_planar_girth5
from .graphio import (ParseError, parse_coloring, parse_graph,
                      serialize_coloring, serialize_graph)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4
EXIT_RESOURCES = 5


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _defects(spec: str) -> tuple[int, ...]:
    try:  # a ColoringError is a ValueError
        return validate_defects([int(x) for x in spec.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad defect vector {spec!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defcolor",
        description="Defective coloring and charge audits for embedded "
                    "girth-5 graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, output=True):
        p.add_argument("--input", required=True, help="graph document ('-' for stdin)")
        if output:
            p.add_argument("--output", default=None, help="output path (default stdout)")

    p = sub.add_parser("check", help="validate a coloring file against a graph")
    add_common(p, output=False)
    p.add_argument("--coloring", required=True)
    p.add_argument("--defects", type=_defects, default=None,
                   help="override the file's defect vector, e.g. 1,10")

    p = sub.add_parser("solve", help="exact defective-coloring search")
    add_common(p)
    p.add_argument("--defects", type=_defects, required=True)
    p.add_argument("--budget", type=int, default=10 ** 7,
                   help="node budget: one node per branching attempt "
                        "(vertex, class); forced classes cost none "
                        "(default 10^7)")

    p = sub.add_parser("color", help="constructive (1,t)-coloring")
    add_common(p)
    p.add_argument("--t", type=int, default=None,
                   help="defect threshold (default capacity(genus))")
    p.add_argument("--trace", default=None, help="write the reduction trace (JSON)")
    p.add_argument("--budget", type=int, default=10 ** 7,
                   help="node budget of the fallback exact solve, given in "
                        "full to each residual component: one node per "
                        "branching attempt (vertex, class); forced classes "
                        "cost none (default 10^7)")

    p = sub.add_parser("audit", help="charge ledger, transfer log, and report")
    add_common(p)
    p.add_argument("--t", type=int, default=None,
                   help="defect threshold (default capacity(genus))")
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("gen", help="generate a planar girth-5 graph")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--output", default=None)

    p = sub.add_parser("stats", help="degrees, girth, genus, face classes")
    add_common(p)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    return parser


def _cmd_check(args) -> int:
    graph = parse_graph(_read(args.input))
    coloring = parse_coloring(_read(args.coloring))
    if len(coloring.assignment) != graph.n:
        print("result: invalid (vertex count mismatch)")
        return EXIT_NEGATIVE
    if is_valid(graph, coloring, args.defects):
        print("result: valid")
        return EXIT_OK
    print("result: invalid")
    return EXIT_NEGATIVE


def _cmd_solve(args) -> int:
    graph = parse_graph(_read(args.input))
    res = solve_exact(graph, args.defects, args.budget)
    if res.status is SolveStatus.FOUND:
        _write(args.output, serialize_coloring(res.coloring))
        print(f"result: found (nodes {res.nodes})", file=sys.stderr)
        return EXIT_OK
    if res.status is SolveStatus.INFEASIBLE:
        print("result: infeasible")
        code = EXIT_NEGATIVE
    else:
        print("result: unknown (budget exhausted)")
        code = EXIT_BUDGET
    print(f"nodes {res.nodes}", file=sys.stderr)
    return code


# The trace document's layout under json.dumps(payload, indent=2).
_BASE = '\n    "%d": %d'
_STEP = ('\n    {\n      "kind": %s,\n      "deleted": %s,'
         '\n      "actions": %s\n    }')
_DELETED = "\n        %d"
_ACTION = "\n        [\n          %d,\n          %d\n        ]"


def _json_container(brackets: str, members: list[str], pad: str) -> str:
    """A JSON array or object from members that each start with a newline
    and their indent, closed on a line indented by ``pad``."""
    if not members:
        return brackets
    return brackets[0] + ",".join(members) + "\n" + pad + brackets[1]


@cache
def _step_template(kind: ReductionKind, deleted: int, actions: int) -> str:
    """The %-template of a trace step of this kind with this many deleted
    vertices and actions, taking the deleted ids and then each action's
    vertex and class.  Kept per shape: a step deletes one or two vertices
    and moves a few, so the shapes are few."""
    return _STEP % (encode_basestring_ascii(kind.value).replace("%", "%%"),
                    _json_container("[]", [_DELETED] * deleted, "      "),
                    _json_container("[]", [_ACTION] * actions, "      "))


def _trace_json(trace) -> str:
    """The bytes of ``json.dumps(payload, indent=2)`` for the trace, whose
    indenting encoder is the stdlib's slow pure-Python one: the document
    is one template, each base entry and step row taking the template of
    its shape, filled by one % with all their ints in order."""
    base = sorted(trace.base.items())
    ints = [*chain.from_iterable(base)]
    templates = []
    for kind, deleted, _, actions in trace.steps.rows:
        templates.append(_step_template(kind, len(deleted), len(actions)))
        ints += deleted
        for action in actions:
            ints += action
    return (f'{{\n  "t": {trace.t},\n  "fallback": {json.dumps(trace.fallback)},'
            f'\n  "anomaly": {json.dumps(trace.anomaly)},'
            f'\n  "base": {_json_container("{}", [_BASE] * len(base), "  ")},'
            f'\n  "steps": {_json_container("[]", templates, "  ")}\n}}\n'
            ) % tuple(ints)


def _cmd_color(args) -> int:
    graph = parse_graph(_read(args.input))
    res = color(graph, args.t, args.budget)
    if args.trace:
        _write(args.trace, _trace_json(res.trace))
    if res.coloring is None:
        cat = "infeasible" if res.solve_status is SolveStatus.INFEASIBLE else "unknown"
        print(f"result: {cat}")
        return EXIT_NEGATIVE if cat == "infeasible" else EXIT_BUDGET
    _write(args.output, serialize_coloring(res.coloring))
    if res.trace.anomaly:
        print("result: anomaly (fallback fired on a genus<=1 input at t=10)",
              file=sys.stderr)
        return EXIT_NEGATIVE
    return EXIT_OK


def _cmd_audit(args) -> int:
    graph = parse_graph(_read(args.input))
    if args.format == "csv":  # R1-R8's ledger and log; no claim or lemma check
        _audit_thresholds(graph, args.t)
        ledger, transfers = apply_rules(graph)
        out = ledger_csv(ledger) + "\n" + transfers_csv(transfers)
    else:
        out = report_text(audit(graph, args.t))
    _write(args.output, out)
    return EXIT_OK


def _cmd_gen(args) -> int:
    graph = gen_planar_girth5(args.seed, args.size)
    _write(args.output, serialize_graph(graph, declare_girth5=True))
    return EXIT_OK


def _cmd_stats(args) -> int:
    graph = parse_graph(_read(args.input))
    degs = Counter(graph.degree(v) for v in range(graph.n))
    g = girth(graph)
    classes = Counter(c.value for c in classify_faces(graph))
    faces = Counter(map(len, graph.faces))
    rows = [
        ("vertices", graph.n),
        ("edges", graph.m),
        ("faces", len(graph.faces)),
        ("girth", "acyclic" if g == float("inf") else int(g)),
        ("genus", graph.genus),
        ("degree-histogram", " ".join(f"{d}:{c}" for d, c in sorted(degs.items()))),
        ("face-degree-histogram", " ".join(f"{d}:{c}" for d, c in sorted(faces.items()))),
        ("face-classes", " ".join(f"{k}:{v}" for k, v in sorted(classes.items()))),
    ]
    if args.format == "csv":
        out = "key,value\n" + "\n".join(f"{k},{v}" for k, v in rows) + "\n"
    else:
        out = "\n".join(f"{k}: {v}" for k, v in rows) + "\n"
    _write(args.output, out)
    return EXIT_OK


_HANDLERS = {
    "check": _cmd_check,
    "solve": _cmd_solve,
    "color": _cmd_color,
    "audit": _cmd_audit,
    "gen": _cmd_gen,
    "stats": _cmd_stats,
}


# Built once per process: parse_args keeps no state between calls, and
# argparse looks up sys.stdout/sys.stderr only when it prints.
_PARSER = build_parser()


def main(argv=None) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args)
    except ParseError as exc:
        print(f"error: parse: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, OSError) as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print(f"error: resources: out of memory running {args.command}",
              file=sys.stderr)
        return EXIT_RESOURCES


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
