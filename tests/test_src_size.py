"""The line counts of tests/src_size.py put every source line in one
category, and its --functions mode counts each function's branch points."""

import subprocess
import sys
from pathlib import Path

from src_size import SRC, Size, function_sizes, measure, module_sizes


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


def test_functions_mode_counts_lines_and_branch_points(tmp_path):
    (tmp_path / "m.py").write_text('''def f(xs):
    if xs and xs[0]:
        return [x for x in xs if x]
    for x in xs:
        try:
            g = x if x else 0
        except ValueError:
            pass
    while False:
        def inner():
            return 1 or 2
    return g


class C:
    def method(self):
        return 0
''')
    # if, and, comprehension, for, try, conditional, except, while, or
    assert function_sizes(tmp_path) == [("m.py:f", 12, 9), ("m.py:C.method", 2, 0)]
    script = Path(__file__).with_name("src_size.py")
    out = subprocess.run([sys.executable, str(script), "--functions", str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert [line.split() for line in out.splitlines()] == [
        ["function", "lines", "branches"], ["m.py:f", "12", "9"],
        ["m.py:C.method", "2", "0"]]
    names = [size.name for size in function_sizes()]
    assert "generate.py:gen_planar_girth5" in names
    assert "builder.py:PlanarBuilder.subdivide" in names
