#!/usr/bin/env python3
"""Charge accounting: initial charges, rules R1-R8, and the audit.

Vertices start at 2d(v) - 6 and faces at d(f) - 6, so everything sums to
6*genus - 12 (exactly -12 in the plane).  The rules move charge around
locally; the audit then compares the final charges against the claims
and reports which structural conclusions a deficient graph violates.
"""

from defcolor import apply_rules, audit, classify_faces, ledger_csv
from defcolor.discharging import FaceClass, report_text
from defcolor.fixtures import c5, dodecahedron, terrible_face

# C5: each face pays 1 to each of its five 2-vertices (rule R5).
g = c5()
ledger, transfers = apply_rules(g)
print("C5 transfers:")
for t in transfers[:4]:
    print("  ", t.rule, t.source, "->", t.target, t.amount)
print("   ... and", len(transfers) - 4, "more")
print("totals:", ledger.total_initial, "->", ledger.total_final)
# The ledger holds integer units of 1/27720; its Fraction views are
# built on first read.
print("face finals in units:", ledger.net[ledger.n:])
print("face finals:", ledger.face_final)

# Dodecahedron: 3-vertices neither send nor receive; nothing fires.
ledger, transfers = apply_rules(dodecahedron())
print("\ndodecahedron transfers:", len(transfers),
      "- final charge still", ledger.total_final)

# A hand-built terrible configuration: the classified face and its two
# X2 neighbors settle at exactly +1/2 and 0.
fix = terrible_face()
G = fix.graph
classes = classify_faces(G)
print("\nterrible fixture 5-face classes:",
      sorted(c.value for c in classes if c is not FaceClass.PLAIN))
ledger, transfers = apply_rules(G)
print("terrible face final:", ledger.face_final[fix.face_index])
print("hub final:", ledger.vertex_final[fix.names["v"]])
print("rules fired:", sorted({t.rule for t in transfers}))

# The audit on C5: the 5-faces end at -6 (a claim violation), and the
# report explains why: every vertex lacks a high neighbor.
rep = audit(g, t=10)
print("\n--- audit of C5 ---")
print(report_text(rep), end="")

# Ledgers export as CSV with exact rationals.
print("--- ledger CSV (first lines) ---")
print("\n".join(ledger_csv(rep.ledger).splitlines()[:4]))
