#!/usr/bin/env python3
"""Constructive coloring by reducible configurations.

Instead of searching, repeatedly delete a local configuration (a low-
degree vertex, an adjacent 2-vertex pair, an all-low vertex, or the
2-vertex of a crowded terrible face), color what remains, and extend
back with the configuration's recoloring recipe.
"""

from collections import Counter

from defcolor import capacity, color, is_valid, replay_trace
from defcolor.fixtures import c5, dodecahedron, petersen_projective
from defcolor.generate import gen_planar_girth5

# The capacity max(10, 4*genus + 3) is the defect the guarantee needs.
print("capacity by genus:", {g: capacity(g) for g in range(6)})

# C5: the first reduction is an adjacent 2-vertex pair.
g = c5()
res = color(g, t=10)
step = res.trace.steps[0]
print("\nC5 first reduction:", step.kind.value, "deletes", step.deleted)
print("C5 colored:", res.coloring.assignment,
      "valid:", is_valid(g, res.coloring))
for entry in res.trace.steps:
    print("  ", entry.kind.value, "deleted", entry.deleted,
          "actions", entry.actions)

# The trace replays to the identical coloring.
print("replay matches:", replay_trace(g, res.trace).assignment
      == res.coloring.assignment)

# Dodecahedron and the projective Petersen graph go through the all-low
# rule; the exact-solver fallback never fires on genus <= 1 inputs.
for name, graph in [("dodecahedron", dodecahedron()),
                    ("petersen", petersen_projective())]:
    res = color(graph, t=10)
    kinds = Counter(e.kind.value for e in res.trace.steps)
    print(f"\n{name}: valid={is_valid(graph, res.coloring)} "
          f"fallback={res.trace.fallback} steps={dict(kinds)}")

# A 300-vertex generated graph reduces in milliseconds.
big = gen_planar_girth5(seed=5, target_size=300)
res = color(big, t=10)
kinds = Counter(e.kind.value for e in res.trace.steps)
print(f"\n{big.n}-vertex corpus graph: valid={is_valid(big, res.coloring)} "
      f"fallback={res.trace.fallback}")
print("reduction mix:", dict(kinds))
