from fractions import Fraction

import pytest

from supervir.fock import FockVector, enumerate_basis, inner_product
from supervir.halfint import half, halfint_range
from supervir.oscillators import ModeOperator
from supervir.realizations import RealizationParams, make_mode
from supervir.scalars import GaussianRational
from supervir.superalg import family_presentation, psd_check
from supervir.verify import (
    _adjoint_defect,
    borcherds_consistency,
    check_relations,
    check_weak_symmetry,
    fock_pairing_crosscheck,
    gram_freefield,
    measure_central_charge,
    oracle_compare,
    single_mode_symmetry_control,
)


def params(family="ns", variant="unitary", kappa=0, eta=0, omega=0):
    return RealizationParams(family, variant, Fraction(kappa), Fraction(eta), Fraction(omega))


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------


def test_relations_ns_variants():
    for variant in ("tilde", "bs", "unitary"):
        p = params("ns", variant, Fraction(1, 2), Fraction(1) if variant == "unitary" else 0)
        report = check_relations(p, 2, half(4))
        assert report.passed, [e for e in report.entries if not e.ok][:3]


def test_relations_n2():
    p = params("n2", "bs", Fraction(1, 3))
    report = check_relations(p, 1, half(4))
    assert report.passed


def test_relations_window_validation():
    with pytest.raises(ValueError):
        check_relations(params(), 0, half(2))


def test_relation_check_is_discriminating():
    """The commutator really carries the central term: comparing against a
    wrong central charge must fail."""
    p = params("ns", "unitary", Fraction(1, 2))
    lhs = make_mode(p, "L", half(4)).commutator(make_mode(p, "L", half(-4)))
    vac = FockVector.vacuum(p.content)
    right = vac.scale(p.central_charge() / 2 + 4 * p.lowest_weight())
    wrong = vac.scale(Fraction(999) / 2 + 4 * p.lowest_weight())
    assert lhs(vac) == right
    assert lhs(vac) != wrong


def test_cold_relation_checks_stay_within_their_primitive_lookups():
    """A work-count guard, free of timing: in a fresh interpreter, one cold
    check_relations at window 2, cutoff 3 may make at most 7 100 primitive
    memo lookups (_act_cached hits + misses) and grow that memo by at most
    1 050 entries for ns/bs at kappa = 1/2, and at most 74 000 lookups and
    11 500 entries for n2/unitary at (kappa, eta, omega) = (1/2, 1, 1).
    Only single modes may reach the memo.  A relation kernel that looks
    up every bilinear branch, annihilators of absent modes and J_0
    included, makes 14 427 and 231 593 lookups; skipping those branches
    gives 8 796 and 94 298, with 2 796 and 31 803 entries while the
    bilinears and tail sums are memoized too; acting them out into the
    columns gives 7 030 and 73 897 lookups and 1 030 and 11 402 entries."""
    import subprocess
    import sys

    from conftest import child_env

    code = """
from fractions import Fraction as F
from supervir import oscillators
from supervir.halfint import half
from supervir.realizations import RealizationParams
from supervir.verify import check_relations
memo = oscillators._act_cached
kinds = set()
def spy(prim, table, sid):
    kinds.add(type(prim).__name__)
    return memo(prim, table, sid)
oscillators._act_cached = spy
for p in (RealizationParams("ns", "bs", F(1, 2)), RealizationParams("n2", "unitary", F(1, 2), F(1), F(1))):
    before = memo.cache_info()
    assert check_relations(p, 2, half(6)).passed
    after = memo.cache_info()
    print(after.hits + after.misses - before.hits - before.misses, after.currsize - before.currsize)
print(*sorted(kinds))
"""
    done = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    (ns_lookups, ns_entries), (n2_lookups, n2_entries), kinds = map(str.split, done.stdout.splitlines())
    assert int(ns_lookups) <= 7_100 and int(n2_lookups) <= 74_000, (ns_lookups, n2_lookups)
    assert int(ns_entries) <= 1_050 and int(n2_entries) <= 11_500, (ns_entries, n2_entries)
    assert kinds == ["_BosonMode", "_FermionMode"]


# ---------------------------------------------------------------------------
# memo lifetimes: one parameter point at a time
# ---------------------------------------------------------------------------


def _held_column_entries() -> int:
    import gc

    return sum(len(memo) for op in gc.get_objects() if isinstance(op, ModeOperator) for memo in op._columns.values())


def test_sweep_holds_one_points_columns():
    """Ten ns/bs points in one process: the operators hold no more column
    entries after the last point than after the first."""
    held = []
    for k in range(1, 11):
        assert check_relations(params("ns", "bs", Fraction(k, 11)), 2, half(6)).passed
        held.append(_held_column_entries())
    assert held[-1] <= held[0], held


def test_revisited_point_rebuilds_its_report(tmp_path):
    """p1, p2, p1: the memos p2 dropped rebuild exactly, so the second p1
    report is byte-identical to the first."""
    from supervir.cli import main

    argv = ["check", "--family", "ns", "--variant", "bs", "--window", "1", "--cutoff", "2"]
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main(argv + ["--kappa", "3/11", "--output", str(first)]) == 0
    assert main(argv + ["--kappa", "5/13", "--output", str(tmp_path / "other.json")]) == 0
    op = make_mode(params("ns", "bs", Fraction(3, 11)), "L", half(0))
    assert not op._columns and not op._state_cache
    assert main(argv + ["--kappa", "3/11", "--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_adjoint_checks_build_no_operators(monkeypatch):
    """The paired and bare adjoint checks read the columns of the modes
    make_mode returns and build no operator of their own."""
    p = params("ns", "bs", Fraction(2, 9))
    pres = family_presentation(p.family)
    for role in p.roles():
        for n in halfint_range(half(-4), half(4), integer=pres.integer_moded(role)):
            make_mode(p, role, n)
    built = []
    init = ModeOperator.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ModeOperator, "__init__", counting_init)
    pairs = [(half(2), half(-2)), (half(4), half(0)), (half(1), half(-1)), (half(3), half(-1))]
    assert check_weak_symmetry(p, pairs, half(4)).passed
    assert not single_mode_symmetry_control(p, "L", half(2), half(4)).entries[0].ok
    assert built == []


# ---------------------------------------------------------------------------
# the diagonal pairing against its adjoint-reduction re-derivation
# ---------------------------------------------------------------------------


def test_fock_pairing_crosscheck():
    from supervir.fock import FieldContent

    assert fock_pairing_crosscheck(FieldContent(1, 1), half(8)).passed
    assert fock_pairing_crosscheck(FieldContent(2, 2), half(5)).passed


def test_fock_pairing_crosscheck_is_discriminating():
    """The reducer really recomputes norms: a wrong diagonal would be caught."""
    from supervir.superalg import LowestWeightData, free_field_presentation, vacuum_expectation

    pres = free_field_presentation(1, 1)
    point = LowestWeightData(c=Fraction(0))
    word = (("J0", half(-2)), ("J0", half(-2)))  # J_{-1}^2: norm 2, not 1
    assert vacuum_expectation(word, word, point, pres) == 2
    word = (("F0", half(-3)), ("F0", half(-1)))
    assert vacuum_expectation(word, word, point, pres) == 1
    crossed = (("F0", half(-1)), ("F0", half(-3)))  # anti-ordered word: sign flips
    assert vacuum_expectation(word, crossed, point, pres) == -1


def test_fock_pairing_crosscheck_fails_on_a_wrong_central_term(monkeypatch):
    """Doubling the J0-J0 central term of the free-field table fails the
    crosscheck, and the witness names the first violating pair."""
    from supervir import verify
    from supervir.fock import FieldContent

    build = verify.free_field_presentation

    def doubled(bosons, fermions):
        pres = build(bosons, fermions)
        bracket = pres.bracket

        def perturbed(f1, n1, f2, n2, c):
            terms, central = bracket(f1, n1, f2, n2, c)
            return terms, (2 * central if (f1, f2) == ("J0", "J0") else central)

        pres.bracket = perturbed
        return pres

    monkeypatch.setattr(verify, "free_field_presentation", doubled)
    report = fock_pairing_crosscheck(FieldContent(1, 1), half(2))
    assert not report.passed
    [entry] = report.entries
    assert entry.residual == 1
    assert entry.detail == "|J0[-1]> | |J0[-1]>: diagonal=1 reduced=2"


@pytest.mark.parametrize("content,states", [((1, 1), 17), ((2, 2), 69)])
def test_fock_pairing_crosscheck_reduces_every_pair(monkeypatch, content, states):
    """Work-count guard: every basis x basis pair goes through the reduction,
    also the pairs of different weight."""
    from supervir import verify
    from supervir.fock import FieldContent

    calls = []
    expectation = verify.vacuum_expectation

    def counted(*args):
        calls.append(args)
        return expectation(*args)

    monkeypatch.setattr(verify, "vacuum_expectation", counted)
    assert fock_pairing_crosscheck(FieldContent(*content), half(6)).passed
    assert len(calls) == states * states


# ---------------------------------------------------------------------------
# central charge and weights
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "family,kappa",
    [("ns", 0), ("ns", Fraction(1, 3)), ("ns", Fraction(1, 2)), ("ns", 1),
     ("n2", 0), ("n2", Fraction(1, 3)), ("n2", Fraction(1, 2)), ("n2", 1)],
)
def test_measured_central_charge(family, kappa):
    for variant in ("tilde", "bs"):
        p = params(family, variant, kappa)
        assert measure_central_charge(p) == p.central_charge()


def test_bs_lowest_weight_conditions():
    for family in ("ns", "n2"):
        p = params(family, "bs", Fraction(1, 2))
        vac = FockVector.vacuum(p.content)
        assert make_mode(p, "L", half(0))(vac).is_zero()
        assert make_mode(p, "L", half(-2))(vac).is_zero()
        for role in p.roles():
            if role.startswith("G"):
                assert make_mode(p, role, half(-1))(vac).is_zero()


# ---------------------------------------------------------------------------
# weak symmetry
# ---------------------------------------------------------------------------


def test_weak_symmetry_pairs_pass():
    pairs = [(half(4), half(0)), (half(2), half(-2)), (half(4), half(-2)),
             (half(3), half(1)), (half(1), half(-1)), (half(3), half(-1))]
    for family in ("ns", "n2"):
        p = params(family, "bs", Fraction(1, 2))
        report = check_weak_symmetry(p, pairs, half(4))
        assert report.passed, [e.detail for e in report.entries if not e.ok][:2]


def test_single_mode_control_fails_symmetry():
    p = params("ns", "bs", Fraction(1, 2))
    report = single_mode_symmetry_control(p, "L", half(2), half(4))
    assert report.expect_failure
    assert report.passed  # i.e. the control found a violation, as it must
    assert report.entries[0].residual > 0
    assert report.entries[0].detail is not None


def test_control_rejects_symmetric_configurations():
    with pytest.raises(ValueError):
        single_mode_symmetry_control(params("ns", "bs", 0), "L", half(2), half(2))
    with pytest.raises(ValueError):
        single_mode_symmetry_control(params("ns", "unitary", Fraction(1, 2)), "L", half(2), half(2))


def test_weak_symmetry_requires_bs():
    with pytest.raises(ValueError):
        check_weak_symmetry(params("ns", "unitary"), [(half(2), half(0))], half(2))


# ---------------------------------------------------------------------------
# Gram matrices and the oracle comparison
# ---------------------------------------------------------------------------


def test_gram_freefield_examples():
    p = params("ns", "unitary")
    g = gram_freefield(p, half(3))
    assert g.size == 1 and g.entries[0][0] == 1
    g = gram_freefield(p, half(0))
    assert g.entries[0][0] == 1
    p = params("ns", "bs", Fraction(1, 2))
    g = gram_freefield(p, half(4))
    assert g.size == 1 and g.entries[0][0] == Fraction(9, 4)  # c/2 at c = 9/2


@pytest.mark.parametrize(
    "family,variant,kappa,eta,omega,levels",
    [
        ("ns", "bs", 0, 0, 0, 6),
        ("ns", "bs", Fraction(1, 3), 0, 0, 6),
        ("ns", "bs", Fraction(1, 2), 0, 0, 6),
        ("ns", "unitary", Fraction(1, 2), Fraction(1, 2), 0, 4),
        ("n2", "bs", Fraction(1, 2), 0, 0, 4),
        ("n2", "unitary", Fraction(1, 2), 0, 1, 3),
        ("n2", "unitary", Fraction(1, 2), 1, 1, 3),
    ],
)
def test_oracle_compare(family, variant, kappa, eta, omega, levels):
    p = params(family, variant, kappa, eta, omega)
    report = oracle_compare(p, half(levels))
    assert report.passed, [e.detail for e in report.entries if not e.ok][:2]


def test_oracle_compare_rejects_tilde_deformation():
    """The non-unitary deformation must NOT match the abstract pairing:
    the comparison is sharp enough to see the failure of symmetry."""
    p = params("ns", "tilde", Fraction(1, 2))
    report = oracle_compare(p, half(4))
    assert not report.passed


def test_freefield_gram_psd():
    for p in (params("ns", "bs", Fraction(1, 2)), params("n2", "unitary", Fraction(1, 2), 0, 1)):
        for twice in range(0, 9 if p.family == "ns" else 5):
            g = gram_freefield(p, half(twice))
            assert psd_check(g).psd, (p.family, twice)


# ---------------------------------------------------------------------------
# mode-commutator consistency
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kappa", [0, Fraction(1, 3), Fraction(1, 2)])
@pytest.mark.parametrize("mn", [(3, -3), (1, 1), (1, -1), (5, -1)])
def test_borcherds_consistency(kappa, mn):
    p = params("ns", "bs", kappa)
    report = borcherds_consistency(p, half(mn[0]), half(mn[1]), half(6))
    assert report.passed, [e.detail for e in report.entries if not e.ok]


def test_borcherds_requires_vacuum_like():
    with pytest.raises(ValueError):
        borcherds_consistency(params("ns", "unitary", Fraction(1, 2), 1), half(1), half(-1), half(2))
    with pytest.raises(ValueError):
        borcherds_consistency(params("n2", "bs", Fraction(1, 2)), half(1), half(-1), half(2))


# ---------------------------------------------------------------------------
# the sparse kernels against dense reference implementations
# ---------------------------------------------------------------------------


def _dense_adjoint_defect(p, role, pair, basis):
    """<D u, v> - <u, D' v> through two inner products for every (u, v)
    in basis x basis, scanning u first, then v."""
    if isinstance(pair, tuple):
        n, m = pair
        sgn = -1 if (n - m).as_int() % 2 else 1
        d = make_mode(p, role, n) - make_mode(p, role, m).scale(sgn)
        d_adj = make_mode(p, role, -n) - make_mode(p, role, -m).scale(sgn)
        label = f"{role}({n},{m})"
    else:
        n = pair
        d, d_adj = make_mode(p, role, n), make_mode(p, role, -n)
        label = f"{role}({n})"
    residual, witness = Fraction(0), None
    for u in basis:
        for v in basis:
            lhs = inner_product(d(FockVector.basis(u)), FockVector.basis(v))
            rhs = inner_product(FockVector.basis(u), d_adj(FockVector.basis(v)))
            diff = lhs - rhs
            if not diff.is_zero():
                residual += diff.norm_sq()
                if witness is None:
                    witness = f"{label}: u={u!r} v={v!r} lhs={lhs} rhs={rhs}"
    return residual, witness


def _dense_relation_defect(a, b, rhs_ops, central, state):
    """The relation defect built from whole intermediate vectors."""
    sign = -1 if (a.parity and b.parity) else 1
    defect = a(b(FockVector.basis(state))) - b(a(FockVector.basis(state))).scale(sign)
    for cf, op in rhs_ops:
        defect = defect - op(FockVector.basis(state)).scale(cf)
    return defect - FockVector.basis(state).scale(central)


def _dense_relations(p, window, cutoff):
    pres = family_presentation(p.family)
    basis = enumerate_basis(p.content, cutoff)
    lo, hi = half(-2 * window), half(2 * window)
    entries = []
    for f1, f2 in pres.family_pairs():
        for n1 in halfint_range(lo, hi, integer=pres.integer_moded(f1)):
            for n2 in halfint_range(lo, hi, integer=pres.integer_moded(f2)):
                a, b = make_mode(p, f1, n1), make_mode(p, f2, n2)
                terms, central = pres.bracket(f1, n1, f2, n2, p.central_charge())
                rhs_ops = [(cf, make_mode(p, fam, idx)) for fam, idx, cf in terms]
                residual, witness = Fraction(0), None
                for state in basis:
                    defect = _dense_relation_defect(a, b, rhs_ops, central, state)
                    if not defect.is_zero():
                        residual += defect.norm_sq()
                        if witness is None:
                            witness = repr(state)
                entries.append((f"[{f1},{f2}]", (n1, n2), residual, witness))
    return entries


@pytest.mark.parametrize(
    "family,cutoff,role,n",
    [("ns", half(8), "L", half(2)), ("ns", half(8), "L", half(-4)), ("ns", half(8), "G", half(3)),
     ("n2", half(6), "L", half(2)), ("n2", half(6), "G1", half(-1)), ("n2", half(6), "G2", half(-3))],
    ids=str,
)
def test_bare_mode_control_matches_dense_reference(family, cutoff, role, n):
    p = params(family, "bs", Fraction(1, 2))
    entry = single_mode_symmetry_control(p, role, n, cutoff).entries[0]
    assert entry.residual > 0
    expected = _dense_adjoint_defect(p, role, n, enumerate_basis(p.content, cutoff))
    assert (entry.residual, entry.detail) == expected


def test_paired_defect_matches_dense_reference_where_it_fails():
    """The tilde deformation is not weakly symmetric, so paired
    differences have nonzero residuals and a witness to compare."""
    p = params("ns", "tilde", Fraction(1, 2))
    basis = enumerate_basis(p.content, half(6))
    for role, pair in (("L", (half(4), half(0))), ("G", (half(3), half(-1)))):
        got = _adjoint_defect(p, role, pair, basis)
        assert got[0] > 0
        assert got == _dense_adjoint_defect(p, role, pair, basis)


@pytest.mark.parametrize(
    "p,window,cutoff,target",
    [
        # [L_1, G_{1/2}] = (1/2 - 1/2) G_{3/2}: the zero coefficient becomes 1
        (params("ns", "unitary", Fraction(1, 2), 1), 2, half(6), ("L", half(2), "G", half(1))),
        # [G1_{1/2}, G2_{1/2}] = 2 L_1 + ... : the first coefficient is doubled
        (params("n2", "bs", Fraction(1, 2)), 1, half(4), ("G1", half(1), "G2", half(1))),
    ],
    ids=["ns-unitary", "n2-bs"],
)
def test_relations_match_dense_reference_on_perturbed_bracket(monkeypatch, p, window, cutoff, target):
    pres = family_presentation(p.family)
    bracket = pres.bracket

    def perturbed(f1, n1, f2, n2, c):
        terms, central = bracket(f1, n1, f2, n2, c)
        if (f1, n1, f2, n2) == target:
            (fam, idx, cf), *rest = terms
            terms = ((fam, idx, 2 * cf if cf else GaussianRational(1)), *rest)
        return terms, central

    monkeypatch.setattr(pres, "bracket", perturbed)
    report = check_relations(p, window, cutoff)
    failing = [e for e in report.entries if not e.ok]
    assert [(e.name, e.indices) for e in failing] == [(f"[{target[0]},{target[2]}]", (target[1], target[3]))]
    assert failing[0].detail != "|0>"  # the vacuum is annihilated by the perturbed term
    got = [(e.name, e.indices, e.residual, e.detail) for e in report.entries]
    assert got == _dense_relations(p, window, cutoff)


def test_adjoint_defect_matches_dense_reference_at_kappa_2_3():
    """Matrix elements like 4/3 i: residuals over 3 and 9, not powers of 2."""
    p = params("ns", "tilde", Fraction(2, 3))
    basis = enumerate_basis(p.content, half(6))
    for role, pair in (("L", (half(4), half(0))), ("G", (half(3), half(-1))), ("L", half(2))):
        got = _adjoint_defect(p, role, pair, basis)
        assert got[0].denominator % 3 == 0
        assert got == _dense_adjoint_defect(p, role, pair, basis)


def test_relations_match_dense_reference_with_non_dyadic_central_shift(monkeypatch):
    """[L_1, L_{-1}] = 2 L_0 at kappa = 1/3 becomes 4 L_0 + 1/7 + 2i/5, so
    the failing residual carries the denominators 3, 5 and 7."""
    p = params("ns", "bs", Fraction(1, 3))
    pres = family_presentation(p.family)
    bracket = pres.bracket
    target = ("L", half(2), "L", half(-2))

    def perturbed(f1, n1, f2, n2, c):
        terms, central = bracket(f1, n1, f2, n2, c)
        if (f1, n1, f2, n2) == target:
            (fam, idx, cf), *rest = terms
            terms = ((fam, idx, 2 * cf), *rest)
            central = central + GaussianRational(Fraction(1, 7), Fraction(2, 5))
        return terms, central

    monkeypatch.setattr(pres, "bracket", perturbed)
    report = check_relations(p, 1, half(6))
    failing = [e for e in report.entries if not e.ok]
    assert [(e.name, e.indices) for e in failing] == [("[L,L]", (half(2), half(-2)))]
    assert failing[0].residual.denominator % (3 * 5 * 7) == 0
    got = [(e.name, e.indices, e.residual, e.detail) for e in report.entries]
    assert got == _dense_relations(p, 1, half(6))


@pytest.mark.parametrize("p", [params("ns", "bs", Fraction(1, 3)), params("n2", "unitary", Fraction(1, 2), 1, 1)])
def test_measured_central_charge_matches_dense_reference(p):
    vac = FockVector.vacuum(p.content)
    l0 = make_mode(p, "L", half(0))
    defect = _dense_relation_defect(
        make_mode(p, "L", half(4)), make_mode(p, "L", half(-4)), [(4, l0)], GaussianRational(0), next(iter(vac.states()))
    )
    assert measure_central_charge(p) == (2 * inner_product(vac, defect)).real_part()
