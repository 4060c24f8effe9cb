#!/usr/bin/env python3
"""Minimal-nilpotent structure data and the energy-bound diagnostics.

Loads the bundled Lie superalgebras, prints their gradations and
level-dependent central charges, assembles generator bracket
coefficients and mode commutators, and finishes with the exact
anticommutator identity plus exact restricted operator norms.
"""

from fractions import Fraction

from supervir.fock import FieldContent
from supervir.halfint import half
from supervir.oscillators import fermion_mode
from supervir.realizations import RealizationParams
from supervir.walgebra import (
    borcherds_modes,
    central_charge,
    collapsing_levels,
    dual_coxeter,
    g_natural,
    lambda_bracket,
    load_superalgebra,
    minimal_gradation,
    unitary_range,
)
from supervir.bounds import anticommutator_identity, restricted_norm_sq

print("== bundled algebras ==")
for name in ("sl2", "spo(2|1)", "spo(2|2)", "spo(2|3)", "psl(2|2)"):
    g = load_superalgebra(name)
    dims = minimal_gradation(g).dims()
    print(f"  {name:9s} dim {g.dim:2d}  sdim {g.sdim:3d}  gradation {dims}"
          f"  h_dual {dual_coxeter(g)}  c(k) = {central_charge(g)}")

print("\n== generator brackets for spo(2|3) (so(3) currents) ==")
g = load_superalgebra("spo(2|3)")
cz = g_natural(g)
u, v = cz.basis[0], cz.basis[1]
jj = lambda_bracket(g, "JJ", u, v)
for j, element in sorted(jj.items()):
    print(f"  lambda^{j}: " + ", ".join(f"{sym}: {coeff}" for sym, coeff in element.items()))
modes = borcherds_modes(half(2), jj, half(4), half(-2))
print("  [J^u_2, J^v_{-1}] =", {k: str(c) for k, c in modes.terms.items()}, "+", modes.scalar)

print("\n== catalog data ==")
for name in ("spo(2|3)", "F(4)", "G(3)", "psl(2|2)", "D(2,1;3)"):
    r = unitary_range(name)
    collapses = ", ".join(f"k={c.k} -> {c.target}" for c in collapsing_levels(name))
    print(f"  {name:9s} range {r.describe():22s} collapsing: {collapses}")

print("\n== energy-bound diagnostics ==")
params = RealizationParams("ns", "unitary", Fraction(1, 2), Fraction(1, 2))
for nt in (1, 3, 5):
    report = anticommutator_identity(params, "G", half(nt), half(8))
    print(f"  ||G_n c||^2 + ||G_-n c||^2 = <c,{{G_n,G_-n}}c>  at n = {half(nt)}: "
          f"{'exact' if report.passed else 'VIOLATED'}")
content = FieldContent(1, 1)
for cutoff in (4, 6, 8, 10):
    norm_sq = restricted_norm_sq(fermion_mode(0, half(1)), content, half(cutoff))
    print(f"  restricted norm^2 of Phi_1/2 at cutoff {half(cutoff)}: {norm_sq}")
