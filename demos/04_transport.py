"""Isomorphisms of standard structures and exact transport.

An isomorphism over the identity is a triple (tau, phi, beta) subject
to one pairing condition.  Given valid data it transports the whole
structure: the target quintuple passes validation, the section map
intertwines the two brackets, and the pulled-back canonical 3-forms
differ by the differential of an explicit 2-form primitive.
"""

import importlib
import random
from fractions import Fraction

from courant import (
    GValuedForm,
    IsoData,
    Poly,
    apply_iso,
    coboundary_identity_check,
    intertwining_report,
    transport,
    validate_iso,
)

model = importlib.import_module("01_standard_model")
q = model.q
patch, fiber = q.patch, q.fiber

# a rational rotation (Cayley transform of a skew matrix), so tau is a
# bracket- and metric-preserving fiber automorphism with rational entries
s = [[Fraction(0), Fraction(1, 2), Fraction(-1, 3)],
     [Fraction(-1, 2), Fraction(0), Fraction(1, 4)],
     [Fraction(1, 3), Fraction(-1, 4), Fraction(0)]]
eye = [[Fraction(1 if i == j else 0) for j in range(3)] for i in range(3)]
plus = [[eye[i][j] + s[i][j] for j in range(3)] for i in range(3)]
minus = [[eye[i][j] - s[i][j] for j in range(3)] for i in range(3)]
det = (plus[0][0] * (plus[1][1] * plus[2][2] - plus[1][2] * plus[2][1])
       - plus[0][1] * (plus[1][0] * plus[2][2] - plus[1][2] * plus[2][0])
       + plus[0][2] * (plus[1][0] * plus[2][1] - plus[1][1] * plus[2][0]))
inv = [[Fraction(0)] * 3 for _ in range(3)]
for i in range(3):
    for j in range(3):
        rows = [r for r in range(3) if r != j]
        cols = [c for c in range(3) if c != i]
        minor = (plus[rows[0]][cols[0]] * plus[rows[1]][cols[1]]
                 - plus[rows[0]][cols[1]] * plus[rows[1]][cols[0]])
        inv[i][j] = minor if (i + j) % 2 == 0 else -minor
        inv[i][j] /= det
rotation = [[sum(minus[i][k] * inv[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]
tau = [[Poly.const(patch.n, v) for v in row] for row in rotation]

# a polynomial phi, with beta solved from the pairing condition plus a skew part
phi = GValuedForm(patch, 3, 1, {
    (1,): [patch.var(1), patch.zero(), patch.one()],
    (2,): [patch.zero(), patch.var(2), patch.zero()],
})
beta = [[Poly.zero(patch.n) for _ in range(2)] for _ in range(2)]
for a in (1, 2):
    for b in (1, 2):
        beta[b - 1][a - 1] = -fiber.pairing(phi.get((a,)), phi.get((b,)))
skew = patch.var(1) * patch.var(2)
beta[1][0] = beta[1][0] + skew
beta[0][1] = beta[0][1] - skew
iso = IsoData(tau, phi, beta)

print("== isomorphism data validation ==")
for record in validate_iso(patch, fiber, iso):
    print(" ", record.status.upper(), record.name)

moved = transport(q, iso)
print()
print("target quintuple valid:", moved.validate().ok)

print()
print("== the section map intertwines the brackets ==")
for record in intertwining_report(q, moved, iso, degree_cap=1):
    print(" ", record.status.upper(), record.name)

print()
print("== coboundary identity for the canonical 3-forms ==")
for record in coboundary_identity_check(q, moved, iso):
    print(" ", record.status.upper(), record.name)
