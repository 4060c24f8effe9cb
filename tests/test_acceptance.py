"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Every assertion here is exact (rational zero) except the two explicitly
float-tolerance items in criterion 8 (1e-9) and the wall-clock budgets
on criteria 1 and 6.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import sys
import time
from fractions import Fraction
from math import factorial

from supervir.bounds import anticommutator_identity, restricted_norm_sq
from supervir.cli import main as cli_main
from supervir.fock import FieldContent, FockVector, enumerate_basis
from supervir.halfint import half
from supervir.oscillators import fermion_mode
from supervir.realizations import RealizationParams, make_mode
from supervir.superalg import (
    LowestWeightData,
    abstract_gram,
    discrete_series,
    presentation_n2,
    presentation_ns,
    presentation_virasoro,
    psd_check,
)
from supervir.verify import (
    borcherds_consistency,
    check_relations,
    check_weak_symmetry,
    gram_freefield,
    measure_central_charge,
    oracle_compare,
    single_mode_symmetry_control,
)
from supervir.walgebra import central_charge, central_charge_data, dual_coxeter, load_superalgebra
from supervir.ratfunc import RationalFunction


def _report(number: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {status} -- {detail}", file=sys.stderr)


NS_SAMPLES = [
    RealizationParams("ns", variant, kappa)
    for variant in ("tilde", "bs")
    for kappa in (Fraction(0), Fraction(1, 3), Fraction(1, 2))
] + [
    RealizationParams("ns", "unitary", kappa, eta)
    for kappa in (Fraction(0), Fraction(1, 3), Fraction(1, 2))
    for eta in (Fraction(0), Fraction(1))
]

N2_SAMPLES = [
    RealizationParams("n2", "bs", kappa) for kappa in (Fraction(0), Fraction(1, 2))
] + [
    RealizationParams("n2", "unitary", kappa, eta, omega)
    for kappa in (Fraction(0), Fraction(1, 2))
    for eta in (Fraction(0), Fraction(1))
    for omega in (Fraction(0), Fraction(1))
]


def test_criterion_1_relation_suites():
    start = time.monotonic()
    passed = True
    try:
        for params in NS_SAMPLES + N2_SAMPLES:
            report = check_relations(params, 2, half(6))
            assert report.passed, (params, report.worst())
        deep = [
            RealizationParams("ns", "tilde", Fraction(1, 2)),
            RealizationParams("ns", "bs", Fraction(1, 2)),
            RealizationParams("ns", "unitary", Fraction(1, 2)),
            RealizationParams("ns", "unitary", Fraction(1, 2), Fraction(1)),
        ]
        for params in deep:
            report = check_relations(params, 3, half(10))
            assert report.passed, (params, report.worst())
        elapsed = time.monotonic() - start
        assert elapsed < 120, f"relation suites took {elapsed:.1f}s"
    except AssertionError:
        passed = False
        raise
    finally:
        _report(1, passed, f"all commutation-relation residuals exactly zero ({time.monotonic()-start:.1f}s)")


def test_criterion_2_central_charges():
    passed = True
    try:
        for kappa in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)):
            for variant in ("tilde", "bs"):
                assert measure_central_charge(RealizationParams("ns", variant, kappa)) == Fraction(3, 2) + 12 * kappa**2
                assert measure_central_charge(RealizationParams("n2", variant, kappa)) == 3 + 12 * kappa**2
    except AssertionError:
        passed = False
        raise
    finally:
        _report(2, passed, "measured central charges equal 3/2 + 12k^2 and 3 + 12k^2 exactly")


def test_criterion_3_lowest_weights():
    passed = True
    try:
        for kappa in (Fraction(0), Fraction(1, 2)):
            for eta in (Fraction(0), Fraction(1)):
                p = RealizationParams("ns", "unitary", kappa, eta)
                vac = FockVector.vacuum(p.content)
                assert make_mode(p, "L", half(0))(vac) == vac.scale((kappa**2 + eta**2) / 2)
                for omega in (Fraction(0), Fraction(1)):
                    q = RealizationParams("n2", "unitary", kappa, eta, omega)
                    vac2 = FockVector.vacuum(q.content)
                    assert make_mode(q, "L", half(0))(vac2) == vac2.scale((kappa**2 + eta**2 + omega**2) / 2)
                    assert make_mode(q, "J", half(0))(vac2) == vac2.scale(2 * kappa * omega)
        for family in ("ns", "n2"):
            for kappa in (Fraction(0), Fraction(1, 2)):
                p = RealizationParams(family, "bs", kappa)
                vac = FockVector.vacuum(p.content)
                assert make_mode(p, "L", half(0))(vac).is_zero()
                assert make_mode(p, "L", half(-2))(vac).is_zero()
                for role in p.roles():
                    if role.startswith("G"):
                        assert make_mode(p, role, half(-1))(vac).is_zero()
    except AssertionError:
        passed = False
        raise
    finally:
        _report(3, passed, "lowest weights, charges, and the L(-1)/G(-1/2) annihilation conditions exact")


def test_criterion_4_unitarity_oracle():
    passed = True
    try:
        for params in NS_SAMPLES:
            if params.variant == "tilde":
                continue
            report = oracle_compare(params, half(6))
            assert report.passed, params
            for twice in range(0, 7):
                assert psd_check(gram_freefield(params, half(twice))).psd, (params, twice)
        for params in N2_SAMPLES:
            report = oracle_compare(params, half(4))
            assert report.passed, params
            for twice in range(0, 5):
                assert psd_check(gram_freefield(params, half(twice))).psd, (params, twice)
        ns = presentation_ns()
        for c in (Fraction(3, 2), Fraction(2), Fraction(9, 2)):
            lw = LowestWeightData(c=c, vacuum_flag=True)
            for twice in range(0, 9):
                assert psd_check(abstract_gram(ns, lw, half(twice))).psd, (c, twice)
        n2 = presentation_n2()
        for c in (Fraction(3), Fraction(6)):
            lw = LowestWeightData(c=c, h=Fraction(0), q=Fraction(0), vacuum_flag=True)
            for twice in range(0, 7):
                assert psd_check(abstract_gram(n2, lw, half(twice))).psd, (c, twice)
    except AssertionError:
        passed = False
        raise
    finally:
        _report(4, passed, "free-field Grams equal the abstract ones and all Grams are positive semidefinite")


def test_criterion_5_weak_symmetry():
    passed = True
    try:
        pairs = []
        from supervir.halfint import halfint_range

        for lattice in (True, False):
            modes = halfint_range(half(-4), half(4), integer=lattice)
            for i, n in enumerate(modes):
                for m in modes[:i]:
                    if (n - m).is_integer:
                        pairs.append((n, m))
        for family in ("ns", "n2"):
            for kappa in (Fraction(1, 3), Fraction(1, 2)):
                p = RealizationParams(family, "bs", kappa)
                report = check_weak_symmetry(p, pairs, half(6))
                assert report.passed, (family, kappa)
                control = single_mode_symmetry_control(p, "L", half(2), half(6))
                assert control.passed and control.entries[0].residual > 0
                assert control.entries[0].detail is not None  # violating matrix element exhibited
    except AssertionError:
        passed = False
        raise
    finally:
        _report(5, passed, "paired adjoint identities hold; bare-mode symmetry control fails as required")


def test_criterion_6_walgebra_identities():
    start = time.monotonic()
    passed = True
    try:
        k = RationalFunction.variable()
        algs = {name: load_superalgebra(name) for name in
                ("sl2", "spo(2|1)", "spo(2|2)", "spo(2|3)", "psl(2|2)")}
        assert central_charge(algs["sl2"]) == 1 - 6 * (k + 1) * (k + 1) / (k + 2)
        assert central_charge(algs["spo(2|1)"]) == Fraction(3, 2) - 12 * (k + 1) * (k + 1) / (2 * k + 3)
        assert central_charge(algs["spo(2|2)"]) == -3 * (2 * k + 1)
        assert central_charge(algs["spo(2|3)"]) + Fraction(1, 2) == -(6 * k + 3)
        assert central_charge_data(Fraction(0), 1) + 3 == -6 * k
        assert central_charge(algs["sl2"], Fraction(-2, 3)) == Fraction(1, 2)
        assert central_charge(algs["spo(2|3)"], Fraction(-3, 4)) == Fraction(1)
        assert central_charge(algs["psl(2|2)"], Fraction(-2)) == Fraction(6)
        expected_h = {"sl2": Fraction(2), "spo(2|1)": Fraction(3, 2), "spo(2|2)": Fraction(1),
                      "spo(2|3)": Fraction(1, 2), "psl(2|2)": Fraction(0)}
        for name, value in expected_h.items():
            assert dual_coxeter(algs[name]) == value, name
        elapsed = time.monotonic() - start
        assert elapsed < 5, f"walgebra identities took {elapsed:.1f}s"
    except AssertionError:
        passed = False
        raise
    finally:
        _report(6, passed, f"structural identities and dual Coxeter table exact ({time.monotonic()-start:.2f}s)")


def test_criterion_7_borcherds_consistency():
    passed = True
    try:
        for kappa in (Fraction(0), Fraction(1, 3), Fraction(1, 2)):
            p = RealizationParams("ns", "bs", kappa)
            for m, n in ((half(3), half(-3)), (half(1), half(1)), (half(1), half(-1))):
                report = borcherds_consistency(p, m, n, half(6))
                assert report.passed, (kappa, m, n)
    except AssertionError:
        passed = False
        raise
    finally:
        _report(7, passed, "mode commutators equal the binomial-assembled product expansion exactly")


def test_criterion_8_energy_bounds():
    passed = True
    try:
        for nt in (1, 3, 5):
            report = anticommutator_identity(RealizationParams("ns", "unitary"), "G", half(nt), half(8))
            assert report.passed and report.entries[0].residual == 0
            for role in ("G1", "G2"):
                report = anticommutator_identity(
                    RealizationParams("n2", "unitary", Fraction(1, 2)), role, half(nt), half(8)
                )
                assert report.passed and report.entries[0].residual == 0
        content = FieldContent(1, 1)
        for twice in (4, 6, 8, 10):  # cutoffs 2..5
            got = restricted_norm_sq(fermion_mode(0, half(1)), content, half(twice))
            assert got == 1, (twice, got)
    except AssertionError:
        passed = False
        raise
    finally:
        _report(8, passed, "anticommutator identity exact; fermion norm squared exactly 1 at cutoffs 2-5")


def test_criterion_9_discrete_series():
    passed = True
    try:
        # closed forms recomputed here, not shared with the implementation
        closed = {
            "vir": lambda p: 1 - Fraction(6, p * (p + 1)),
            "ns": lambda p: Fraction(3, 2) * (1 - Fraction(8, p * (p + 2))),
            "n2": lambda p: 3 * (1 - Fraction(2, p)),
        }
        expected = {
            "vir": [Fraction(1, 2), Fraction(7, 10), Fraction(4, 5)],
            "ns": [Fraction(7, 10), Fraction(1), Fraction(81, 70)],
            "n2": [Fraction(1), Fraction(3, 2), Fraction(9, 5)],
        }
        for algebra, values in expected.items():
            for p, want in zip((3, 4, 5), values):
                got = discrete_series(algebra, p)
                assert got == closed[algebra](p) == want, (algebra, p)
    except AssertionError:
        passed = False
        raise
    finally:
        _report(9, passed, "discrete-series central charges match the closed forms at p in {3,4,5}")


def test_criterion_10_determinism(tmp_path):
    passed = True
    try:
        configs = [
            ["check", "--family", "ns", "--variant", "bs", "--kappa", "1/2",
             "--window", "2", "--cutoff", "3"],
            ["check", "--family", "n2", "--variant", "unitary", "--kappa", "1/2",
             "--eta", "1", "--omega", "1", "--window", "1", "--cutoff", "2"],
            ["tables", "--series", "ns", "--p-max", "6"],
        ]
        for i, argv in enumerate(configs):
            a = tmp_path / f"a{i}.json"
            b = tmp_path / f"b{i}.json"
            assert cli_main(argv + ["--output", str(a)]) == 0
            assert cli_main(argv + ["--output", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), argv
            json.loads(a.read_text())  # well-formed
    except AssertionError:
        passed = False
        raise
    finally:
        _report(10, passed, "repeated runs produce byte-identical reports")


def _partitions(n: int) -> int:
    """p(n), with p(n) = 0 for n < 0."""
    if n < 0:
        return 0
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            counts[m] += counts[m - part]
    return counts[n]


def _determinant(rows) -> Fraction:
    """Determinant by Fraction elimination, independent of psd_check."""
    a = [[Fraction(x.real_part()) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= factor * a[k][j]
    return det


def _kac_determinant(level: int, t: Fraction, h: Fraction) -> Fraction:
    """Kac (1979), Feigin-Fuchs: det of the level-N Virasoro Verma Gram
    in the PBW basis, with c = 13 - 6(t + 1/t) and
    h_{r,s} = (r^2-1)t/4 - (rs-1)/2 + (s^2-1)/(4t)."""
    det = Fraction(1)
    for r in range(1, level + 1):
        for s in range(1, level // r + 1):
            h_rs = (r * r - 1) * t / 4 - Fraction(r * s - 1, 2) + (s * s - 1) / (4 * t)
            det *= (h - h_rs) ** _partitions(level - r * s)
            constant = (2 * r) ** s * factorial(s)
            det *= Fraction(constant) ** (_partitions(level - r * s) - _partitions(level - r * (s + 1)))
    return det


def test_criterion_11_kac_determinant():
    passed = True
    try:
        vir = presentation_virasoro()
        for t in (Fraction(2, 3), Fraction(7, 5)):
            c = 13 - 6 * (t + 1 / t)
            # a generic weight, a negative one, and the Kac zero h_{1,2}
            for h in (Fraction(1, 3), Fraction(-5, 4), -Fraction(1, 2) + 3 / (4 * t)):
                lw = LowestWeightData(c=c, h=h)
                for level in range(1, 7):
                    gram = abstract_gram(vir, lw, half(2 * level))
                    assert gram.size == _partitions(level)
                    assert _determinant(gram.entries) == _kac_determinant(level, t, h), (t, h, level)
    except AssertionError:
        passed = False
        raise
    finally:
        _report(11, passed, "Virasoro Verma Gram determinants equal the Kac formula at levels 1-6")


def _fock_character(content: FieldContent, max_twice: int) -> list[int]:
    """Coefficients, by twice the weight, of the Fock character
    prod_n (1 + q^(n-1/2))^F / (1 - q^n)^B, as integer power-series
    products truncated at q^(max_twice/2)."""

    def times(series, factor):
        return [sum(series[i] * factor[t - i] for i in range(t + 1)) for t in range(max_twice + 1)]

    series = [1] + [0] * max_twice
    for t in range(1, max_twice + 1, 2):  # 1 + q^(t/2) per fermion species
        factor = [1 if i in (0, t) else 0 for i in range(max_twice + 1)]
        for _ in range(content.fermions):
            series = times(series, factor)
    for t in range(2, max_twice + 1, 2):  # 1/(1 - q^(t/2)) = sum_j q^(j t/2) per boson species
        factor = [1 if i % t == 0 else 0 for i in range(max_twice + 1)]
        for _ in range(content.bosons):
            series = times(series, factor)
    return series


def test_criterion_12_fock_character():
    passed = True
    try:
        max_twice = 16  # weight 8
        for content in (FieldContent(1, 1), FieldContent(2, 2), FieldContent(0, 3)):
            counts = [0] * (max_twice + 1)
            for state in enumerate_basis(content, half(max_twice)):
                counts[state.weight.twice] += 1
            assert counts == _fock_character(content, max_twice), content
    except AssertionError:
        passed = False
        raise
    finally:
        _report(12, passed, "Fock basis sizes at every weight up to 8 equal the character coefficients")
