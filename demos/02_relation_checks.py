#!/usr/bin/env python3
"""Verify the superconformal commutation relations for the realized fields.

Three variants of each family are exercised: the naive deformation, the
tail-sum deformation, and the manifestly symmetric one.  Residuals are
exact rationals; PASS means identically zero.
"""

from fractions import Fraction

from supervir.halfint import half
from supervir.realizations import RealizationParams
from supervir.verify import check_relations, measure_central_charge

CASES = [
    RealizationParams("ns", "tilde", Fraction(1, 2)),
    RealizationParams("ns", "bs", Fraction(1, 2)),
    RealizationParams("ns", "unitary", Fraction(1, 2), Fraction(1)),
    RealizationParams("n2", "bs", Fraction(1, 2)),
    RealizationParams("n2", "unitary", Fraction(1, 2), Fraction(1), Fraction(1)),
]

for params in CASES:
    report = check_relations(params, mode_window=2, weight_cutoff=half(6))
    measured = measure_central_charge(params)
    label = f"{params.family}/{params.variant} kappa={params.kappa} eta={params.eta} omega={params.omega}"
    print(f"{label:55s} relations: {'PASS' if report.passed else 'FAIL'}"
          f"  ({len(report.entries)} checked)  c = {measured}")
    assert measured == params.central_charge()
