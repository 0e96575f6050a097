"""Fuzzing the graph and coloring document parsers.

Documents are assembled from the tokens the formats use (headers, vertex
lines, twist lines, comments, defect vectors) and from numbers that are
small, negative or 20 digits long, or are valid documents with some lines
replaced by such lines.  Every document must either parse or raise a
ValueError subclass, which cli.main reports as bad input (exit 3); any
other exception would escape as a traceback.
"""

from hypothesis import given, settings, strategies as st

from defcolor import fixtures as fx
from defcolor.coloring import Coloring
from defcolor.graphio import (parse_coloring, parse_graph, serialize_coloring,
                              serialize_graph)

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
