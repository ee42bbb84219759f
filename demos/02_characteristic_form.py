"""The canonical closed 3-form, two ways.

Route one assembles the form directly from the quintuple data: Cartan
tensor, curvature pairing and the leafwise 3-form.  Route two runs the
Chern-Weil style construction from a metric covariant derivative built
out of an auxiliary torsion-free leaf connection.  The result is
independent of that choice and coincides with route one, exactly.
"""

from fractions import Fraction

from courant import (
    FConnection,
    Patch,
    Poly,
    QuadAlgebroid,
    ce_differential,
    e_connection_form,
    standard_three_form,
)

import importlib
model = importlib.import_module("01_standard_model")
q = model.q

cs = standard_three_form(q)
print("== canonical 3-form on the ample algebroid (bigraded components) ==")
print(cs)
print()
print("closed:", not ce_differential(QuadAlgebroid.of(q), cs))
print()

print("== covariant-derivative route, three leaf connections ==")


def constant_symmetric(patch: Patch) -> FConnection:
    p, n = patch.p, patch.n
    gamma = [[[Poly.const(n, Fraction(1 + ((a + b + c) % 3), 3)) for c in range(p)]
              for b in range(p)] for a in range(p)]
    return FConnection(patch, gamma)


def linear_symmetric(patch: Patch) -> FConnection:
    p, n = patch.p, patch.n
    gamma = [[[Poly.variable(n, a + 1) + Poly.variable(n, b + 1) + Poly.variable(n, c + 1)
               for c in range(p)] for b in range(p)] for a in range(p)]
    return FConnection(patch, gamma)


for label, fc in (
    ("flat", FConnection.flat(q.patch)),
    ("constant symmetric", constant_symmetric(q.patch)),
    ("degree-1 symmetric", linear_symmetric(q.patch)),
):
    form = e_connection_form(q, fc)
    print("  %-20s -> equals the canonical form: %s" % (label, form == cs))
