"""Every module of the package parses under the oldest Python that
pyproject.toml's ``requires-python`` admits, though tier-1 runs on a
newer one: syntax from a later version (``except*``, PEP 695 type
parameters, ...) would break installs that the metadata allows."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = tuple(map(int, re.search(
    r'requires-python\s*=\s*">=(\d+)\.(\d+)"',
    (ROOT / "pyproject.toml").read_text(encoding="utf-8")).groups()))
MODULES = sorted((ROOT / "src" / "defcolor").glob("*.py"))


def test_floor_is_read():
    assert FLOOR == (3, 10) and MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=FLOOR)


def test_later_syntax_is_rejected_at_the_floor():
    # the check has teeth: an except* group parses at 3.11, not at 3.10
    text = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(text, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(text, feature_version=FLOOR)
