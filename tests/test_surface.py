"""The public surface of ``defcolor`` and the names the benchmark traces.

``__all__`` must list exactly what ``defcolor/__init__.py`` imports, and
every name in it must be bound.  ``bench/run.py --trace`` rebinds each
``(module, attribute)`` of ``bench/spans.TRACED``, so ``audit`` must reach
``apply_rules`` and ``sponsor_instances`` through the ``discharging`` module
globals.  The tier-1 run does not collect ``bench/selftest.py``, so these
checks keep a cut of the surface from silently breaking the tracer.
Every public function, and every public method and property of
``EmbeddedGraph``, must also have a caller in the package or the
benchmark: a demo or a test alone does not keep a name public.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import defcolor
from defcolor import colorer, discharging, embedding, fixtures

ROOT = Path(__file__).resolve().parent.parent


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_all_names_are_bound():
    assert len(set(defcolor.__all__)) == len(defcolor.__all__)
    assert [n for n in defcolor.__all__ if not hasattr(defcolor, n)] == []


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse(Path(defcolor.__file__).read_text())
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                and node.level == 1
                for alias in node.names}
    assert imported == set(defcolor.__all__)


def test_traced_names_resolve():
    for modname, attr, _ in _load_spans().TRACED:
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in getattr(owner, cls_name).__dict__, (modname, attr)
        else:
            assert callable(getattr(owner, attr)), (modname, attr)
    # the tracer's selftest rebinds the gate under the colorer's name
    assert colorer.girth is embedding.girth


def test_audit_calls_the_traced_discharging_names(monkeypatch):
    # the tracer sees audit's inner calls only through these module
    # globals, and counts transfers as len(result[1]) of apply_rules
    seen = {"apply_rules": [], "sponsor_instances": []}
    for name, results in seen.items():
        def counted(*args, _fn=getattr(discharging, name), _out=results,
                    **kwargs):
            _out.append(_fn(*args, **kwargs))
            return _out[-1]
        monkeypatch.setattr(discharging, name, counted)
    report = discharging.audit(fixtures.terrible_face().graph)
    assert {name: len(results) for name, results in seen.items()} == {
        "apply_rules": 1, "sponsor_instances": 1}
    ledger, transfers = seen["apply_rules"][0]
    assert isinstance(ledger, discharging.ChargeLedger)
    assert all(isinstance(tr, discharging.Transfer) for tr in transfers)
    assert transfers == report.transfers and len(transfers) > 0


def _names_read(node, inside=()):
    """Names and attributes read under node, except those read inside a
    function of the same name (a function does not call itself into use)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _names_read(child, inside + (child.name,))
            continue
        if isinstance(child, (ast.Name, ast.Attribute)):
            name = child.id if isinstance(child, ast.Name) else child.attr
            if name not in inside:
                yield name
        yield from _names_read(child, inside)


# Public with no caller in src/ or bench/, each with the reason it stays.
CALLER_EXEMPT = {
    # the only check of a trace until a trace verifier replaces it
    # (ROADMAP item 8)
    "replay_trace",
}


def test_every_public_function_has_a_caller():
    # a public function that only demos or tests call is a second entry
    # point to code the package already reaches another way
    files = [*(ROOT / "src" / "defcolor").glob("*.py"),
             *(ROOT / "bench").glob("*.py")]
    read = {name for path in files
            for name in _names_read(ast.parse(path.read_text()))}
    assert CALLER_EXEMPT.isdisjoint(read)  # drop an entry once it has one
    read |= CALLER_EXEMPT
    functions = [name for name in defcolor.__all__
                 if inspect.isfunction(getattr(defcolor, name))]
    assert len(functions) > 10
    members = [name for name, member in vars(embedding.EmbeddedGraph).items()
               if not name.startswith("_")
               and (inspect.isfunction(member) or isinstance(member, property))]
    assert {"faces", "genus", "passages"} <= set(members)
    assert [name for name in functions + members if name not in read] == []
