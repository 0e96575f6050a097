"""Output checks that share no code with the package under test.

Each checker parses the documents itself and returns a list of problems
(empty when the output is correct):

* colorings: every vertex has at most defect(class) same-class
  neighbours, counted here from the graph document;
* color traces: replaying the trace JSON (base coloring, then each step's
  actions from the last deletion back to the first) gives exactly the
  coloring document;
* audit CSVs: every initial charge is 2d(v) - 6 for vertices, every final
  charge equals the initial charge plus what the transfer log moves in
  minus what it moves out, and both totals equal 6*genus - 12.
"""

from __future__ import annotations

import json
from fractions import Fraction


def parse_adjacency(text: str) -> list[list[int]]:
    """Neighbour lists of a graph document (twist lines ignored)."""
    lines = text.splitlines()
    n = int(lines[0].split()[1])
    adj: list[list[int]] = [[] for _ in range(n)]
    for line in lines[1:]:
        if ":" in line:
            left, _, right = line.partition(":")
            adj[int(left)] = [int(x) for x in right.split()]
    return adj


def parse_coloring_doc(text: str) -> tuple[list[int], tuple[int, ...]]:
    """(0-based classes, defect vector) of a coloring document."""
    lines = text.splitlines()
    head = lines[0].split()
    if len(head) != 4 or head[0] != "coloring" or head[2] != "defects":
        raise ValueError(f"bad coloring header {lines[0]!r}")
    n = int(head[1])
    defects = tuple(int(x) for x in head[3].split(","))
    classes = [-1] * n
    for line in lines[1:]:
        v, c = line.split()
        classes[int(v)] = int(c) - 1
    return classes, defects


def coloring_problems(adj: list[list[int]], text: str,
                      defects: tuple[int, ...]) -> list[str]:
    try:
        classes, declared = parse_coloring_doc(text)
    except (ValueError, IndexError) as exc:
        return [f"unreadable coloring: {exc}"]
    if declared != defects:
        return [f"defect vector {declared}, expected {defects}"]
    if len(classes) != len(adj) or any(not 0 <= c < len(defects) for c in classes):
        return ["coloring does not assign every vertex a class"]
    bad = [v for v, nbrs in enumerate(adj)
           if sum(classes[u] == classes[v] for u in nbrs) > defects[classes[v]]]
    return [f"{len(bad)} vertices exceed their defect, first {bad[0]}"] if bad else []


def replay_problems(trace_text: str, coloring_text: str) -> list[str]:
    try:
        trace = json.loads(trace_text)
        classes, _ = parse_coloring_doc(coloring_text)
        phi = {int(v): c for v, c in trace["base"].items()}
        for step in reversed(trace["steps"]):
            for v, c in step["actions"]:
                phi[v] = c
    except (ValueError, IndexError, KeyError, TypeError) as exc:
        return [f"unreadable trace or coloring: {exc}"]
    replayed = [phi.get(v, -1) for v in range(len(classes))]
    if replayed != classes:
        diff = next(v for v in range(len(classes)) if replayed[v] != classes[v])
        return [f"trace replay differs from the coloring at vertex {diff}"]
    return []


STEP_KINDS = {
    "degree-at-most-one": "degree_le1",
    "adjacent-two-vertices": "adjacent_2",
    "all-low-degree-neighbors": "all_low",
    "terrible-rich-high-vertex": "terrible",
}


def trace_counts(trace_text: str) -> dict[str, int]:
    """Reduction steps by kind and the fallback flag of a trace that
    ``replay_problems`` accepted."""
    trace = json.loads(trace_text)
    counts = {kind: 0 for kind in STEP_KINDS.values()}
    for step in trace["steps"]:
        counts[STEP_KINDS[step["kind"]]] += 1
    counts["fallbacks"] = int(bool(trace["fallback"]))
    return counts


def _fraction(text: str) -> Fraction:
    p, _, q = text.partition("/")
    return Fraction(int(p), int(q))


def audit_csv_problems(adj: list[list[int]], genus: int, text: str) -> list[str]:
    try:
        ledger_part, transfer_part = text.split("\n\n")
        ledger = [row.split(",") for row in ledger_part.splitlines()[1:]]
        transfers = [row.split(",") for row in transfer_part.splitlines()[1:]]
        initial = {(k, int(i)): _fraction(a) for k, i, a, _ in ledger}
        final = {(k, int(i)): _fraction(b) for k, i, _, b in ledger}
        moved = dict.fromkeys(initial, Fraction(0))
        for row in transfers:
            amount = _fraction(row[5])
            moved[(row[1], int(row[2]))] -= amount
            moved[(row[3], int(row[4]))] += amount
    except (ValueError, IndexError, KeyError) as exc:
        return [f"unreadable audit CSV: {exc}"]
    problems = []
    total = 6 * genus - 12
    if sum(initial.values()) != total:
        problems.append(f"initial total {sum(initial.values())}, expected {total}")
    if sum(final.values()) != total:
        problems.append(f"final total {sum(final.values())}, expected {total}")
    if [initial.get(("v", v)) for v in range(len(adj))] != [
            2 * len(nbrs) - 6 for nbrs in adj]:
        problems.append("vertex initial charges are not 2d(v) - 6")
    off = [key for key in initial if initial[key] + moved[key] != final[key]]
    if off:
        problems.append(f"{len(off)} final charges disagree with the transfer log")
    return problems
