#!/usr/bin/env python3
"""Gram matrices two ways: concrete Fock pairings against the abstract
reduction from the commutation relations and A_n^dagger = A_{-n}.

Their exact agreement, level by level, together with positive
semidefiniteness of every Gram, is the computational content of the
unitarity statements for these lowest-weight families.
"""

from fractions import Fraction

from supervir.halfint import half
from supervir.realizations import RealizationParams
from supervir.superalg import LowestWeightData, abstract_gram, discrete_series, family_presentation, psd_check
from supervir.verify import gram_freefield, oracle_compare

params = RealizationParams("ns", "bs", Fraction(1, 2))  # c = 9/2, h = 0
print(f"family {params.family}/{params.variant}, c = {params.central_charge()}")
for twice in range(0, 7):
    level = half(twice)
    free = gram_freefield(params, level)
    result = psd_check(free)
    print(f"  level {str(level):>4}: {free.size} words, psd = {result.psd}, pivots = {result.pivots}")

report = oracle_compare(params, half(6))
print("oracle comparison (fock == abstract, levels <= 3):", "PASS" if report.passed else "FAIL")

print("\nnonzero lowest weight and charge:")
q = RealizationParams("n2", "unitary", Fraction(1, 2), Fraction(0), Fraction(1))
print(f"  (c, h, q) = ({q.central_charge()}, {q.lowest_weight()}, {q.charge()})")
print("  oracle comparison:", "PASS" if oracle_compare(q, half(3)).passed else "FAIL")

print("\nabstract vacuum Grams away from any realization:")
ns = family_presentation("ns")
for c in (Fraction(3, 2), Fraction(2), Fraction(9, 2)):
    ok = all(psd_check(abstract_gram(ns, LowestWeightData(c=c, vacuum_flag=True), half(t))).psd
             for t in range(0, 9))
    print(f"  one supercharge, c = {c}: positive semidefinite up to level 4: {ok}")

print("\ndiscrete series:")
for algebra in ("vir", "ns", "n2"):
    row = ", ".join(f"p={p}: {discrete_series(algebra, p)}" for p in (3, 4, 5))
    print(f"  {algebra:3s}  {row}")
