"""Span recording around the package's public functions, from outside.

``Tracer.install`` rebinds each traced function at every name a defcolor
module binds it under (``defcolor.colorer.girth``, ``defcolor.discharging.girth``
and so on), so calls made inside the package are recorded too and no
source file changes.  ``uninstall`` puts the originals back.

A span is (name, start, end, parent span, job id).  A function's self time
is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import pkgutil
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (module, attribute, layer name); a dotted attribute names a method.
TRACED = [
    ("defcolor.cli", "main", "cli.main"),
    ("defcolor.graphio", "parse_graph", "graphio.parse_graph"),
    ("defcolor.graphio", "parse_coloring", "graphio.parse_coloring"),
    ("defcolor.graphio", "serialize_coloring", "graphio.serialize_coloring"),
    ("defcolor.graphio", "serialize_graph", "graphio.serialize_graph"),
    ("defcolor.embedding", "EmbeddedGraph.__init__", "embedding.build"),
    ("defcolor.embedding", "girth", "embedding.girth"),
    ("defcolor.embedding", "induced_embedding", "embedding.induced_embedding"),
    ("defcolor.colorer", "color", "colorer.color"),
    ("defcolor.coloring", "is_valid", "coloring.is_valid"),
    ("defcolor.coloring", "solve_exact", "coloring.solve_exact"),
    ("defcolor.discharging", "audit", "discharging.audit"),
    ("defcolor.discharging", "apply_rules", "discharging.apply_rules"),
    ("defcolor.discharging", "classify_faces", "discharging.classify_faces"),
    ("defcolor.discharging", "sponsor_instances", "discharging.sponsor_instances"),
    ("defcolor.discharging", "ledger_csv", "discharging.csv"),
    ("defcolor.discharging", "transfers_csv", "discharging.csv"),
    ("defcolor.generate", "gen_planar_girth5", "generate.gen_planar_girth5"),
] + [("defcolor.builder", f"PlanarBuilder.{m}", "builder")
     for m in ("subdivide", "insert_path", "insert_ear", "attach_leaf",
               "attach_leaf_at", "add_handle_edge")]


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


@dataclass
class Tracer:
    spans: list[tuple[str, float, float, int, str]] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    job: str = "setup"
    _stack: list[tuple[str, float, int]] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def _enter(self, name: str) -> None:
        self._stack.append((name, time.perf_counter(), len(self.spans)))
        self.spans.append(None)  # filled in on exit, keeps parents before children

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, idx = self._stack.pop()
        parent = self._stack[-1][2] if self._stack else -1
        self.spans[idx] = (name, start, end, parent, self.job)

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            tracer._count(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, result) -> None:
        if name == "coloring.solve_exact":
            self.counters["solve_exact.nodes"] += result.nodes
            self.counters[f"solve_exact.{result.status.value}"] += 1
        elif name == "discharging.apply_rules":
            self.counters["transfers"] += len(result[1])

    def install(self) -> None:
        import defcolor
        modules = [importlib.import_module(f"defcolor.{m.name}")
                   for m in pkgutil.iter_modules(defcolor.__path__)]
        for modname, attr, name in TRACED:
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._rebind(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._rebind(mod, attr, wrapper)

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def totals(self, jobs: set[str] | None = None) -> dict[str, LayerTotals]:
        """Per-layer calls, self and total seconds over the given job ids."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, LayerTotals] = defaultdict(LayerTotals)
        for i, (name, start, end, _, job) in enumerate(self.spans):
            if jobs is None or job in jobs:
                agg = out[name]
                agg.calls += 1
                agg.total_s += end - start
                agg.self_s += end - start - child[i]
        return out
