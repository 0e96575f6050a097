"""Line counts of the defcolor sources: one definition of "code lines".

Every physical line of a module falls in exactly one category:

  code       holds a token outside docstrings and comments (a line of a
             multi-line string that is not a docstring counts as code),
  docstring  lies within a module, class or function docstring,
  comment    holds a comment and nothing else,
  blank      is empty or whitespace only.

Run as a script to print the counts of each module under src/defcolor, or
under another directory, and their total:

    python tests/src_size.py [DIRECTORY]

With --functions it prints instead each module-level function and method
with its physical lines and its branch points: the if, for, while, try,
except, boolean-operator, conditional-expression and comprehension-clause
nodes of its syntax tree, those of nested functions included:

    python tests/src_size.py --functions [DIRECTORY]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parent.parent / "src" / "defcolor"

# tokens that mark no line as code: layout, comments and the stream's ends
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


# the syntax-tree nodes counted as branch points
_BRANCHES = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.Try,
             ast.ExceptHandler, ast.BoolOp, ast.IfExp, ast.comprehension)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


class Size(NamedTuple):
    physical: int
    code: int
    docstring: int
    comment: int
    blank: int


def _docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) source positions of every docstring in tree."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            spans.append(((doc.lineno, doc.col_offset),
                          (doc.end_lineno, doc.end_col_offset)))
    return spans


def measure(source: str) -> Size:
    """The line counts of one module's source text."""
    lines = source.splitlines()
    spans = _docstring_spans(ast.parse(source))
    code: set[int] = set()
    docstring: set[int] = set()
    comment: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        rows = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.COMMENT:
            comment.update(rows)
        elif tok.type == tokenize.STRING and any(
                a <= tok.start and tok.end <= b for a, b in spans):
            docstring.update(rows)
        elif tok.type not in _NOT_CODE:
            code.update(rows)
    counts = [0, 0, 0, 0]  # code, docstring, comment, blank
    for row, text in enumerate(lines, 1):
        if row in code:
            counts[0] += 1
        elif row in docstring:
            counts[1] += 1
        elif row in comment:
            counts[2] += 1
        elif not text.strip():
            counts[3] += 1
    return Size(len(lines), *counts)


def module_sizes(root: Path = SRC) -> dict[str, Size]:
    """The counts of every module under root, by file name."""
    return {path.name: measure(path.read_text(encoding="utf-8"))
            for path in sorted(root.glob("*.py"))}


class FunctionSize(NamedTuple):
    name: str  # "module.py:function" or "module.py:Class.method"
    lines: int
    branches: int


def function_sizes(root: Path = SRC) -> list[FunctionSize]:
    """The physical lines and branch points of every module-level function
    and method under root, in file and then source order."""
    out = []
    for path in sorted(root.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            defs = node.body if isinstance(node, ast.ClassDef) else [node]
            prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
            for fn in defs:
                if isinstance(fn, _FUNCTIONS):
                    branches = sum(isinstance(sub, _BRANCHES)
                                   for sub in ast.walk(fn))
                    out.append(FunctionSize(
                        f"{path.name}:{prefix}{fn.name}",
                        fn.end_lineno - fn.lineno + 1, branches))
    return out


def main(argv: list[str]) -> int:
    if argv[:1] == ["--functions"]:
        sizes = function_sizes(Path(argv[1]) if argv[1:] else SRC)
        width = max(len(size.name) for size in sizes)
        print(f"{'function':<{width}}{'lines':>10}{'branches':>10}")
        for size in sizes:
            print(f"{size.name:<{width}}{size.lines:>10,}{size.branches:>10,}")
        return 0
    sizes = module_sizes(Path(argv[0]) if argv else SRC)
    total = [sum(size[i] for size in sizes.values()) for i in range(len(Size._fields))]
    print(f"{'module':<16}" + "".join(f"{f:>10}" for f in Size._fields))
    for name, size in [*sizes.items(), ("total", total)]:
        print(f"{name:<16}" + "".join(f"{x:>10,}" for x in size))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
