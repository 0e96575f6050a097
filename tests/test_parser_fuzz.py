"""Fuzzing the graph and coloring document parsers.

Documents are assembled from the tokens the formats use (headers, vertex
lines, twist lines, comments, defect vectors) and from numbers that are
small, negative or 20 digits long, or are valid documents with some lines
replaced by such lines.  Every document must either parse or raise a
ValueError subclass, which cli.main reports as bad input (exit 3); any
other exception would escape as a traceback.

parse_graph must also agree with the reference parser in tests/oracles.py
on every document, and EmbeddedGraph with the reference checks on every
rotation: the same rotation, twists, edges and genus, or the same
exception class, message and line.  Besides the random documents, small
graphs with one rotation entry repeated (on one side or both), dropped,
made a loop or moved out of range reach the rotation checks.
"""

import pytest
from hypothesis import given, settings, strategies as st

from defcolor import fixtures as fx
from defcolor.coloring import Coloring
from defcolor.embedding import (AsymmetricError, DisconnectedError,
                                EmbeddedGraph, GirthTooSmallError, GraphError,
                                NonSimpleError)
from defcolor.graphio import (ParseError, parse_coloring, parse_graph,
                              serialize_coloring, serialize_graph)

from oracles import reference_embedding, reference_parse_graph

SMALL = st.integers(-1, 6)
HUGE = st.integers(10 ** 19, 10 ** 20 - 1)  # 20 digits
# mostly small numbers, so that some documents get past the header
NUMBERS = st.sampled_from([SMALL] * 4 + [HUGE, HUGE.map(lambda x: -x)]).flatmap(
    lambda numbers: numbers).map(str)
WORDS = st.sampled_from(
    ["graph", "coloring", "defects", "girth5", "twist", "#", ":", ",", "x", ""])
DEFECT_VECTORS = st.lists(NUMBERS, min_size=1, max_size=3).map(",".join)
ANY_LINE = st.lists(st.one_of(NUMBERS, WORDS, DEFECT_VECTORS),
                    max_size=6).map(" ".join)

GRAPH_HEADER = st.one_of(
    st.tuples(NUMBERS, NUMBERS).map(lambda nm: f"graph {nm[0]} {nm[1]}"),
    st.tuples(NUMBERS, NUMBERS).map(lambda nm: f"graph {nm[0]} {nm[1]} girth5"),
    ANY_LINE,
)
GRAPH_LINE = st.one_of(
    st.tuples(NUMBERS, st.lists(NUMBERS, max_size=4)).map(
        lambda vn: f"{vn[0]}: " + " ".join(vn[1])),
    st.tuples(NUMBERS, NUMBERS).map(lambda uv: f"twist {uv[0]} {uv[1]}"),
    st.just("# comment"),
    ANY_LINE,
)
COLORING_HEADER = st.one_of(
    st.tuples(NUMBERS, DEFECT_VECTORS).map(
        lambda nd: f"coloring {nd[0]} defects {nd[1]}"),
    ANY_LINE,
)
COLORING_LINE = st.one_of(
    st.tuples(NUMBERS, NUMBERS).map(lambda vc: f"{vc[0]} {vc[1]}"),
    st.just("# comment"),
    ANY_LINE,
)


GRAPH_SEEDS = [serialize_graph(fx.c5(), declare_girth5=True),
               serialize_graph(fx.petersen_projective()),
               serialize_graph(fx.path_graph(3))]
COLORING_SEEDS = [serialize_coloring(Coloring((0, 1, 1, 0, 1), (1, 10))),
                  serialize_coloring(Coloring((0, 2, 1), (0, 0, 1)))]


def _documents(header, line, seeds):
    """Random documents: a header and body lines, or a valid seed document
    with a few of its lines replaced."""
    fresh = st.tuples(header, st.lists(line, max_size=8)).map(
        lambda hl: "\n".join([hl[0], *hl[1]]))
    edits = st.lists(st.tuples(st.integers(0, 20), line), max_size=3)
    return fresh | st.tuples(st.sampled_from(seeds), edits).map(_edited)


def _edited(seed_edits):
    lines = seed_edits[0].splitlines()
    for i, line in seed_edits[1]:
        lines[i % len(lines)] = line
    return "\n".join(lines)


def _parses_or_raises_value_error(parse, text):
    try:
        parse(text)
    except ValueError:
        pass


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_documents(GRAPH_HEADER, GRAPH_LINE, GRAPH_SEEDS))
def test_parse_graph_fails_only_with_value_errors(text):
    _parses_or_raises_value_error(parse_graph, text)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_documents(COLORING_HEADER, COLORING_LINE, COLORING_SEEDS))
def test_parse_coloring_fails_only_with_value_errors(text):
    _parses_or_raises_value_error(parse_coloring, text)


EDIT_GRAPHS = [fx.c5(), fx.petersen_projective(), fx.path_graph(3),
               EmbeddedGraph(fx.c5().rotation, [(0, 1)])]


@st.composite
def _rotation_edits(draw):
    """The document of a small graph with one rotation entry repeated (in
    one rotation, or in both of its edge's), dropped, made a loop or moved
    out of range; the header keeps the graph's counts."""
    graph = draw(st.sampled_from(EDIT_GRAPHS))
    rot = [list(nbrs) for nbrs in graph.rotation]
    v = draw(st.integers(0, graph.n - 1))
    i = draw(st.integers(0, len(rot[v]) - 1))
    u = rot[v][i]
    edit = draw(st.sampled_from(["repeat", "repeat both", "drop", "loop",
                                 "past n", "negative"]))
    if edit == "repeat":
        rot[v].insert(i, u)
    elif edit == "repeat both":
        rot[v].insert(i, u)
        rot[u].append(v)
    elif edit == "drop":
        del rot[v][i]
    elif edit == "loop":
        rot[v][i] = v
    else:
        rot[v][i] = graph.n + u if edit == "past n" else -1 - u
    lines = [f"graph {graph.n} {graph.m}"]
    lines += [f"{w}: " + " ".join(map(str, nbrs)) for w, nbrs in enumerate(rot)]
    lines += [f"twist {a} {b}" for a, b in sorted(graph.twists)]
    return "\n".join(lines)


def _outcome(build, *args):
    """What a parser or graph constructor makes of its input: the checked
    graph's rotation, twists, edges and genus, or the exception it raised."""
    try:
        graph = build(*args)
    except Exception as exc:  # compared, whatever it is
        return type(exc), str(exc), getattr(exc, "line", None)
    return graph.rotation, graph.twists, graph.edges, graph.genus


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_documents(GRAPH_HEADER, GRAPH_LINE, GRAPH_SEEDS) | _rotation_edits())
def test_parse_graph_agrees_with_the_reference_parser(text):
    assert _outcome(parse_graph, text) == _outcome(reference_parse_graph, text)


C5 = serialize_graph(fx.c5())  # graph 5 5, then "v: v-1 v+1" lines


@pytest.mark.parametrize("text, error", [
    ("graph 2 1\n0: 0 1\n1: 0\n", NonSimpleError),  # loop
    ("graph 2 1\n0: 1 1\n1: 0 0\n", NonSimpleError),  # multi-edge
    ("graph 3 2\n0: 1\n1: 0 2\n2:\n", AsymmetricError),
    ("graph 2 1\n0: -1\n1: 0\n", GraphError),  # negative id
    ("graph 2 1\n0: 2\n1: 0\n", GraphError),  # id out of range
    ("graph 1 0\n0: 1\n", GraphError),  # (0, 1) has key 1, as has (1, 0)
    (C5 + "twist 0 2\n", GraphError),  # twist on a non-edge
    (C5 + "twist 0 1\ntwist 0 1\n", ParseError),  # repeated twist
    (C5 + "twist 0 1\ntwist 1 0\n", ParseError),  # repeated, reversed
    ("graph 4 2\n0: 1\n1: 0\n2: 3\n3: 2\n", DisconnectedError),
    ("graph 5 4\n" + C5.split("\n", 1)[1], ParseError),  # header edge count
    ("graph 4 4 girth5\n0: 1 3\n1: 0 2\n2: 1 3\n3: 2 0\n",
     GirthTooSmallError),
    ("graph 5 5\n# c\n0: 4 1\ntwist 0 1\n1: 0 2\n\n2: 1 3\n"
     "  # c: 1\n3: 2 4\n4: 3 0\n", None),  # comment, twist, blank between
    ("graph 4 3\n0: 1\n1: 0 2\n2: 1 3\n3: 1 2 # c\n", ParseError),
    (C5.replace("\n", "\r\n"), None),  # CRLF line endings
    ("graph 5 5\r\n0: 4 1\r\ntwist 1 0\r\n1: 0 2\r\n2: 1 3\r\n3: 2 4\r\n"
     "4: 3 0\r\n", None),
])
def test_parse_graph_faults_match_the_reference_parser(text, error):
    outcome = _outcome(parse_graph, text)
    assert outcome == _outcome(reference_parse_graph, text)
    assert outcome[0] is error if error else isinstance(outcome[0], tuple)


@pytest.mark.parametrize("rotation, twists, error", [
    ([[1, 1], [0, 0]], (), NonSimpleError),
    ([[0, 1], [0]], (), NonSimpleError),
    ([[1], [0, 2], []], (), AsymmetricError),
    ([[1], ["0"]], (), GraphError),
    ([[1], [0.0]], (), GraphError),
    ([[1.5], [0]], (), GraphError),
    ([[True], [0]], (), None),  # a bool is an int
    ([[1], [0]], [(1, 2)], GraphError),  # twist on a non-edge
    # 0.5 * 4 + 1 is the key of dart (0, 3), but 0.5 names no vertex
    ([[1, 3], [0, 2], [1, 3], [2, 0]], [(0.5, 1)], TypeError),
    ([[1], [0]], [(0, 1.0)], None),  # 1.0 == 1 names the edge
    ([[1], [0]], [(0, 1), (0, 1)], GraphError),  # repeated twist
    ([[1], [0]], [(0, 1), (1, 0)], GraphError),  # repeated, reversed
    ([[1], [0], []], (), DisconnectedError),
    ([], (), GraphError),
])
def test_embedded_graph_faults_match_the_reference_checks(rotation, twists, error):
    outcome = _outcome(EmbeddedGraph, rotation, twists)
    assert outcome == _outcome(reference_embedding, rotation, twists)
    assert outcome[0] is error if error else isinstance(outcome[0], tuple)
