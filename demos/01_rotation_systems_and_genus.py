#!/usr/bin/env python3
"""Rotation systems, face tracing, and Euler genus.

A graph plus a cyclic neighbor order at every vertex pins down an
embedding: walk each dart to its successor and the orbits are the faces.
A face is its boundary walk, a tuple of vertex ids; its index is its
position in ``faces`` and its degree is the walk's length.
"""

from defcolor import EmbeddedGraph, girth
from defcolor.fixtures import c5, dodecahedron, petersen_projective

# The 5-cycle, embedded in the plane.  Two pentagonal faces.
g = c5()
print("C5:", g)
for i, f in enumerate(g.faces):
    print("  face", i, "walk", "-".join(map(str, f)))
print("  Euler genus:", g.genus, " girth:", girth(g))

# The dodecahedron: 3-regular, twelve 5-faces, genus 0.
d = dodecahedron()
print("\ndodecahedron:", d)
print("  face degrees:", sorted(map(len, d.faces)))
print("  |V| - |E| + |F| =", d.n - len(d.edges) + len(d.faces))

# The Petersen graph cannot live in the plane, but a rotation system
# with seven sign-flipped ("twisted") edges embeds it in the projective
# plane: six pentagons, Euler genus 1.
p = petersen_projective()
print("\nPetersen (projective):", p)
print("  twisted edges:", sorted(p.twists))
print("  faces:", [len(f) for f in p.faces], " genus:", p.genus)

# Neighbors of a vertex that avoid a face: vertex 0 on its first face.
face = p.faces[0]
v = face[0]
print("  vertex", v, "external to face 0:",
      [u for u in p.rotation[v] if u not in face])

# A twisted edge on C5 makes the cycle non-contractible: one face of
# degree 10, genus 1 (the cycle cut open along a Moebius band).
m = EmbeddedGraph([[(i - 1) % 5, (i + 1) % 5] for i in range(5)],
                  twists=[(0, 1)])
print("\ntwisted C5:", m, "- single face of degree",
      len(m.faces[0]), ", genus", m.genus)
