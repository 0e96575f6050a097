"""Every module-level import in src/ and tests/ is used by its module.

An import is used when its bound name is read anywhere in the module (a
string annotation counts).  Imports in a package ``__init__.py`` are
re-exports and always count as used; a statement carrying
``# noqa: F401`` is exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])


def _used_names(tree):
    used = set()

    def add_annotation(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                        if isinstance(n, ast.Name))

    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            add_annotation(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add_annotation(node.returns)
        elif isinstance(node, ast.AnnAssign):
            add_annotation(node.annotation)
    return used


def unused_imports(path):
    """(line, name) of each module-level import of path that is never used."""
    if path.name == "__init__.py":
        return []
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    lines = text.splitlines()
    used = _used_names(tree)
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append((node.lineno, name))
    return unused


def test_no_unused_module_level_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in SOURCES for line, name in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scan_flags_unused_and_honours_exemptions(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os\n"
        "import sys  # noqa: F401\n"
        "from json import dumps, loads\n"
        "from typing import Sequence\n"
        "def f(x: 'Sequence[int]'):\n"
        "    return loads(x)\n")
    assert unused_imports(probe) == [(1, "os"), (3, "dumps")]
    init = tmp_path / "__init__.py"
    init.write_text("from os import path\n")
    assert unused_imports(init) == []
