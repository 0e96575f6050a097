#!/usr/bin/env python3
"""Generating the girth-5 planar corpus and validating it end to end.

The generator grows graphs from C5 by girth-preserving operations and
plants structure (high hubs, special pentagons, sponsor bridges) so the
charge rules beyond R1/R5 actually fire.
"""

from collections import Counter

from defcolor import apply_rules, audit, girth, is_valid, color
from defcolor.generate import gen_planar_girth5
from defcolor.graphio import parse_graph, serialize_graph

sizes = [5, 20, 60, 120, 150]
rules = Counter()
for seed, size in enumerate(sizes):
    g = gen_planar_girth5(seed, size)
    ledger, transfers = apply_rules(g)
    rules.update(t.rule for t in transfers)
    res = color(g, 10)
    print(f"seed {seed} size {size}: |V|={g.n} girth={girth(g)} "
          f"genus={g.genus} total={ledger.total_final} "
          f"colored={is_valid(g, res.coloring)}")

print("\nrule firings over the sample:", dict(sorted(rules.items())))

# Documents round-trip byte for byte, rotation order preserved.
g = gen_planar_girth5(42, 30)
doc = serialize_graph(g, declare_girth5=True)
print("\ndocument head:")
print("\n".join(doc.splitlines()[:4]))
same = serialize_graph(parse_graph(doc), declare_girth5=True) == doc
print("round-trip identical:", same)

# The audit's structural report on a generated graph: the corpus is full
# of 2-vertices without high neighbors, and the report names them.
rep = audit(g, t=10)
print("\naudit:", len(rep.claim_violations), "claim violations,",
      len(rep.lemma_violations), "lemma violations,",
      "lemmas:", sorted(rep.violated_lemmas))
