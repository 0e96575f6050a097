"""Seeded input documents for the four benchmark workloads.

Every document is written with ``serialize_graph(..., declare_girth5=True)``,
the form ``defcolor gen`` produces, so the program only ever sees plain
graph documents.  The same seed always gives byte-identical documents.

Workload shapes:

* planar-color / planar-audit share one document set: two large (about
  2k vertices) and four small (about 1k) ``gen_planar_girth5`` graphs.
  Each round runs one large job for every two small ones, so the median
  job is a small one and the tail (the 11th-slowest job) is a large one
  however fast the program gets.
* gate-heavy: a long cycle, a path, a random tree and two far-chorded
  cycles.  Two crossing chords give Euler genus 2 (t = 11); three mutually
  crossing chords with one twisted give non-orientable genus 3 (t = 15).
  Girth is |V|/3 or more, so the exact girth gate dominates every job.
* exact-solve: 300 small random girth-5 graphs (40..70 vertices) from the
  benchmark's own generator.  A single solve costs anything from 10^2 to
  the 2*10^4-node budget, so only many instances make the mix steady.

Every timed run covers each workload's document list in whole passes
(see ``run.py``), so its output digest covers every document.
The gate-heavy sizes are spread out, so that job costs spread from the
cheapest shape to the dearest and the median does not sit on the
boundary between two shapes' costs.  The two large planar documents have
one size, so that the tail never falls on such a boundary either.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent

PLANAR_SIZES = (2000, 2000, 1000, 1000, 1000, 1000)  # two large, four small
# One size per gate-heavy shape, chosen so job costs spread from about
# 0.1 s to 0.25 s at the parent commit.
GATE_SIZES = {"cycle": 215, "path": 245, "tree": 270, "chords-genus2": 310,
              "twisted-genus3": 440}
SOLVE_DOCS = 300
SOLVE_EXTRA_EDGES = 0.68  # extra edges per vertex on top of a spanning tree
SOLVE_BUDGET = 20_000


@dataclass(frozen=True)
class Document:
    """One input document plus the facts the output checks need."""

    name: str
    text: str
    n: int
    m: int
    faces: int
    genus: int
    t: int

    @property
    def elements(self) -> int:
        return self.n + self.m

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()

    def provenance(self) -> dict:
        return {"name": self.name, "V": self.n, "E": self.m, "F": self.faces,
                "genus": self.genus, "t": self.t, "sha256": self.sha256}


def load_package(src: Path = ROOT / "src") -> None:
    """Import defcolor from ``src`` (this checkout's src/ unless given),
    never from elsewhere."""
    sys.path.insert(0, str(src))
    import defcolor
    import defcolor.cli  # imported here so the first job does not pay for it
    if Path(defcolor.__file__).resolve().parent != (src / "defcolor").resolve():
        raise ImportError(f"defcolor imported from {defcolor.__file__}, not {src}")


def capacity(genus: int) -> int:
    """The paper's defect threshold for a surface of this Euler genus."""
    return max(10, 4 * genus + 3)


def _document(name: str, graph, t: int) -> Document:
    from defcolor.graphio import serialize_graph
    text = serialize_graph(graph, declare_girth5=True)
    return Document(name, text, graph.n, len(graph.edges), len(graph.faces),
                    graph.genus, t)


# -- planar ------------------------------------------------------------------


def planar_documents(seed: int) -> list[Document]:
    """Two large, then four small generator graphs (t = 10, genus 0)."""
    from defcolor import generate
    docs = []
    for i, size in enumerate(PLANAR_SIZES):
        graph = generate.gen_planar_girth5(1000 * seed + i, size)
        docs.append(_document(f"planar-{size}-{i}", graph, 10))
    return docs


# Document order of one planar round: one large document for every two small ones.
PLANAR_SCHEDULE = (0, 2, 3, 1, 4, 5)


# -- gate-heavy ---------------------------------------------------------------


def _cycle(n: int) -> list[list[int]]:
    return [[(i - 1) % n, (i + 1) % n] for i in range(n)]


def _path(n: int) -> list[list[int]]:
    return [[u for u in (i - 1, i + 1) if 0 <= u < n] for i in range(n)]


def _tree(n: int, rng: Random) -> list[list[int]]:
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        p = rng.randrange(i)
        nbrs[i].append(p)
        nbrs[p].append(i)
    return nbrs


def _chorded(n: int, k: int, rng: Random) -> list[list[int]]:
    """Cycle with k mutually crossing chords i -> i + n/2, all inserted on
    the same side of the cycle, endpoints jittered by the seed."""
    rot = _cycle(n)
    step = n // (2 * k)
    jitter = max(1, step // 8)
    for j in range(k):
        a = j * step + rng.randrange(jitter)
        b = a + n // 2
        rot[a].insert(1, b)
        rot[b].insert(1, a)
    return rot


def gate_documents(seed: int) -> list[Document]:
    from defcolor.embedding import EmbeddedGraph
    rng = Random(f"gate:{seed}")

    def size(shape: str) -> int:
        # At most 1 % either way: the gate's cost grows as n^2, so a wider
        # jitter would make seeds differ in cost, not only in shape.
        n = GATE_SIZES[shape]
        return n + rng.randrange(-n // 100, n // 100 + 1)

    shapes = [
        ("cycle", EmbeddedGraph(_cycle(size("cycle"))), 0),
        ("path", EmbeddedGraph(_path(size("path"))), 0),
        ("tree", EmbeddedGraph(_tree(size("tree"), rng)), 0),
        ("chords-genus2", EmbeddedGraph(_chorded(size("chords-genus2"), 2, rng)), 2),
    ]
    rot3 = _chorded(size("twisted-genus3"), 3, rng)
    a = next(u for u in range(len(rot3)) if len(rot3[u]) == 3)
    shapes.append(("twisted-genus3", EmbeddedGraph(rot3, [(a, rot3[a][1])]), 3))
    docs = []
    for name, graph, genus in shapes:
        if graph.genus != genus:
            raise RuntimeError(f"{name}: built genus {graph.genus}, wanted {genus}")
        docs.append(_document(f"{name}-{graph.n}", graph, capacity(genus)))
    return docs


def gate_schedule(docs: list[Document]) -> list[tuple[int, str]]:
    return [(i, p) for i in range(len(docs)) for p in ("color", "audit")]


# -- exact-solve ----------------------------------------------------------------


def _far(nbrs: list[list[int]], a: int, c: int) -> bool:
    """True when c is at distance at least 4 from a (so a-c keeps girth 5)."""
    dist = {a: 0}
    queue = deque([a])
    while queue:
        v = queue.popleft()
        if dist[v] == 3:
            continue
        for u in nbrs[v]:
            if u not in dist:
                if u == c:
                    return False
                dist[u] = dist[v] + 1
                queue.append(u)
    return True


def random_girth5(rng: Random, n: int, extra: int) -> list[list[int]]:
    """Random spanning tree plus up to ``extra`` girth-preserving edges."""
    nbrs = _tree(n, rng)
    added = 0
    for _ in range(50 * n):
        if added == extra:
            break
        a, c = rng.randrange(n), rng.randrange(n)
        if a != c and c not in nbrs[a] and _far(nbrs, a, c):
            nbrs[a].append(c)
            nbrs[c].append(a)
            added += 1
    return nbrs


def solve_documents(seed: int, count: int = SOLVE_DOCS) -> list[Document]:
    from defcolor.embedding import EmbeddedGraph
    rng = Random(f"solve:{seed}")
    docs = []
    for i in range(count):
        n = rng.randint(40, 70)
        graph = EmbeddedGraph(random_girth5(rng, n, round(SOLVE_EXTRA_EDGES * n)))
        docs.append(_document(f"solve-{i}", graph, 1))
    return docs


# -- building a workload's documents ----------------------------------------------


def documents(workload: str, seed: int) -> list[Document]:
    if workload in ("planar-color", "planar-audit"):
        return planar_documents(seed)
    if workload == "gate-heavy":
        return gate_documents(seed)
    if workload == "exact-solve":
        return solve_documents(seed)
    raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, seed: int, out: Path | None) -> tuple[float, str]:
    """Build the documents once; returns the build time and a digest of the
    documents.  With ``out``, writes them there afterwards (``d<i>.graph``
    plus ``manifest.json``)."""
    start = time.perf_counter()
    docs = documents(workload, seed)
    build_s = time.perf_counter() - start
    if out is not None:
        for i, doc in enumerate(docs):
            (out / f"d{i}.graph").write_text(doc.text)
        facts = [{k: v for k, v in dataclasses.asdict(d).items() if k != "text"}
                 for d in docs]
        (out / "manifest.json").write_text(json.dumps({"documents": facts}) + "\n")
    return build_s, hashlib.sha256("".join(d.sha256 for d in docs).encode()).hexdigest()


def read_documents(out: Path) -> list[Document]:
    manifest = json.loads((out / "manifest.json").read_text())
    return [Document(text=(out / f"d{i}.graph").read_text(), **facts)
            for i, facts in enumerate(manifest["documents"])]
