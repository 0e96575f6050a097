"""The line counts of tests/src_size.py put every source line in one
category."""

import subprocess
import sys
from pathlib import Path

from src_size import SRC, Size, measure, module_sizes


def test_every_line_falls_in_one_category():
    sizes = module_sizes()
    assert sizes and "colorer.py" in sizes
    for name, size in sizes.items():
        assert size.code + size.docstring + size.comment + size.blank \
            == size.physical, name


def test_categories_on_a_small_module():
    source = '''"""Module
docstring."""

# a comment
x = """not a
docstring"""


def f():
    """One line."""
    return x  # trailing comment
'''
    assert measure(source) == Size(physical=11, code=4, docstring=3,
                                   comment=1, blank=3)


def test_runs_as_a_script():
    script = Path(__file__).with_name("src_size.py")
    out = subprocess.run([sys.executable, str(script), str(SRC)],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[0].split() == ["module", *Size._fields]
    assert out.splitlines()[-1].split()[0] == "total"
