#!/usr/bin/env python3
"""A tour of the exact Fock layer: states, norms, and mode operators.

Everything printed here is an exact rational or Gaussian rational; no
floating point is involved anywhere.
"""

from fractions import Fraction

from supervir.fock import FieldContent, FockVector, enumerate_basis, inner_product, state_norm_sq
from supervir.halfint import half
from supervir.oscillators import BilinearSpec, bilinear_mode, boson_mode, fermion_mode, tail_sum

content = FieldContent(bosons=1, fermions=1)
vacuum = FockVector.vacuum(content)

print("== basis of the weight-truncated space ==")
for state in enumerate_basis(content, half(4)):  # weight <= 2
    print(f"  weight {str(state.weight):>4}  norm^2 {state_norm_sq(state)}   {state}")

print("\n== current and fermion modes ==")
J = lambda m: boson_mode(0, m)
F = lambda t: fermion_mode(0, half(t))
v = J(-1)(J(-1)(vacuum))
print("  J_1 J_{-1}^2 |0>        =", J(1)(v))
print("  {Phi_1/2, Phi_-1/2} |0> =", F(1)(F(-1)(vacuum)) + F(-1)(F(1)(vacuum)))

print("\n== modes of the normally ordered bilinears ==")
sugawara = bilinear_mode(BilinearSpec("J", 0, "J", 0), half(0))
print("  :J^2:_0 on J_{-1}|0>    =", sugawara(J(-1)(vacuum)))
super_current = bilinear_mode(BilinearSpec("J", 0, "Phi", 0), half(-3))
print("  :J Phi:_{-3/2} |0>      =", super_current(vacuum))

print("\n== alternating tail sums stay finite on finite vectors ==")
print("  tail(J, -2) |0>         =", tail_sum("J", 0, half(-4))(vacuum))
print("  tail(Phi, -5/2) |0>     =", tail_sum("Phi", 0, half(-5))(vacuum))

print("\n== the pairing is sesquilinear and diagonal ==")
u = J(-1)(vacuum).scale(Fraction(1, 2))
print("  <J_{-1}|0>/2, J_{-1}|0>> =", inner_product(u, J(-1)(vacuum)))
