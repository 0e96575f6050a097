#!/usr/bin/env python3
"""Defective colorings and the exact solver.

A (d1, d2)-coloring splits the vertices into two classes where class i
induces maximum degree at most d_i.  The solver either finds one, proves
none exists, or runs out of budget.
"""

from defcolor import Coloring, induced_max_degrees, is_valid, solve_exact
from defcolor.fixtures import c5, petersen_projective, star

g = c5()

# All five vertices in one class: the cycle induces degree 2.
mono = Coloring((0, 0, 0, 0, 0), (2,))
print("C5 all-one-class induced degrees:", induced_max_degrees(g, mono))

# The odd cycle has no proper 2-coloring...
print("C5 with defects (0,0):", solve_exact(g, (0, 0)).status.value)
# ...but one class may tolerate a single same-class neighbor.
res = solve_exact(g, (1, 0))
print("C5 with defects (1,0):", res.status.value,
      "assignment", res.coloring.assignment)
print("  valid:", is_valid(g, res.coloring))

# Saturation: the star's center has exactly defect-many (10) big-class
# neighbors, so it cannot absorb another one.
s = star(10)
allbig = Coloring((1,) * 11, (1, 10))
print("\nstar all-big induced degrees under (1,10):",
      induced_max_degrees(s, allbig))

# The Petersen graph is (1,10)-colorable, as every projective-planar
# girth-5 graph must be.
p = petersen_projective()
res = solve_exact(p, (1, 10))
print("\nPetersen with defects (1,10):", res.status.value,
      f"({res.nodes} search nodes)")
print("  induced degrees:", induced_max_degrees(p, res.coloring))

# A deliberately tiny budget yields UNKNOWN instead of a wrong answer.
print("budget 3 result:", solve_exact(p, (0, 0, 0), budget=3).status.value)
