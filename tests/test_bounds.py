from fractions import Fraction
from math import sqrt

import pytest

from supervir.bounds import anticommutator_identity, restricted_norm_sq
from supervir.fock import FieldContent, enumerate_basis, state_norm_sq
from supervir.halfint import half
from supervir.oscillators import BilinearSpec, bilinear_mode, boson_mode, fermion_mode
from supervir.realizations import RealizationParams
from supervir.scalars import GaussianRational

C11 = FieldContent(1, 1)


def params(family="ns", kappa=0, eta=0, omega=0):
    return RealizationParams(family, "unitary", Fraction(kappa), Fraction(eta), Fraction(omega))


# ---------------------------------------------------------------------------
# the exact identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nt", [1, 3, 5])
def test_identity_base_family(nt):
    report = anticommutator_identity(params("ns"), "G", half(nt), half(8))
    assert report.passed and report.entries[0].residual == 0


@pytest.mark.parametrize("nt", [1, 3, 5])
@pytest.mark.parametrize("role", ["G1", "G2"])
def test_identity_two_supercharges(nt, role):
    report = anticommutator_identity(params("n2", Fraction(1, 2)), role, half(nt), half(6))
    assert report.passed and report.entries[0].residual == 0


def test_identity_deformed():
    report = anticommutator_identity(params("ns", Fraction(1, 2), Fraction(1, 3)), "G", half(3), half(6))
    assert report.passed


def test_identity_rejects_even_roles_and_bs():
    with pytest.raises(ValueError):
        anticommutator_identity(params("ns"), "L", half(1), half(2))
    with pytest.raises(ValueError):
        anticommutator_identity(
            RealizationParams("ns", "bs", Fraction(1, 2)), "G", half(1), half(2)
        )


# ---------------------------------------------------------------------------
# the per-vector bound
# ---------------------------------------------------------------------------


def test_fermion_mode_zeroth_order_bound():
    """CAR nilpotence: ||Phi_n c|| <= ||c|| on every basis vector."""
    op = fermion_mode(0, half(1))
    for s in enumerate_basis(C11, half(8)):
        assert op.apply_state(s).norm_sq() <= state_norm_sq(s)


# ---------------------------------------------------------------------------
# exact restricted norms
# ---------------------------------------------------------------------------


def test_norm_examples():
    assert restricted_norm_sq(fermion_mode(0, half(1)), C11, half(8)) == 1
    assert restricted_norm_sq(fermion_mode(0, half(1)).scale(0), C11, half(8)) == 0
    assert restricted_norm_sq(boson_mode(0, 1), C11, half(8)) == 4
    # J_2 |2^k> = 2k |2^(k-1)> with N(2^k) = 2^k k!: the ratio is 2k
    assert restricted_norm_sq(boson_mode(0, 2), C11, half(8)) == 4
    assert restricted_norm_sq(boson_mode(0, 2), C11, half(10)) == 4
    coeff = GaussianRational(Fraction(1, 2), Fraction(1, 3))
    assert restricted_norm_sq(boson_mode(0, 1).scale(coeff), C11, half(4)) == Fraction(13, 18)


def test_fermion_norm_bounded_at_all_cutoffs():
    for t in (4, 5, 6, 8, 10):
        for nt in (1, -1, 3):
            got = restricted_norm_sq(fermion_mode(0, half(nt)), C11, half(t))
            assert isinstance(got, Fraction) and got == 1, (t, nt)


@pytest.mark.parametrize("content", [FieldContent(1, 0), C11])
def test_boson_norm_is_the_weight(content):
    """||J_{+-1}||^2 = w at weight w: J_1 |1^k> = k |1^(k-1)> with
    N(1^k) = k!, so the ratio is k, largest for k = w; likewise for J_{-1}."""
    for w in range(1, 6):
        for m in (1, -1):
            assert restricted_norm_sq(boson_mode(0, m), content, half(2 * w)) == w, (w, m)


def test_norm_monotone_in_cutoff():
    previous = Fraction(0)
    for t in (2, 4, 6, 8, 10):
        got = restricted_norm_sq(boson_mode(0, 1), C11, half(t))
        assert got >= previous
        previous = got


def test_norm_of_diagonal_operator():
    """The normal-ordered :JJ: zero mode is diagonal; its norm squared is
    the largest |eigenvalue|^2 on the truncated basis."""
    op = bilinear_mode(BilinearSpec("J", 0, "J", 0), half(0))
    cutoff = half(6)
    expected = Fraction(0)
    for s in enumerate_basis(C11, cutoff):
        image = op.apply_state(s)
        assert set(image.terms) <= {s}
        if image.terms:
            expected = max(expected, image.terms[s].norm_sq())
    assert expected > 0
    assert restricted_norm_sq(op, C11, cutoff) == expected


def test_overlapping_images_rejected():
    with pytest.raises(ValueError, match=r"images of \|J0\[-1\]> and \|J0\[-2\]> overlap"):
        restricted_norm_sq(boson_mode(0, 1) + boson_mode(0, 2), C11, half(6))


def test_norm_oracle_small_matrix():
    """Exact singular values of J_1 on the truncated boson space: the top
    one is sqrt(max multiplicity * mode) over admissible states."""
    import numpy as np

    content = FieldContent(1, 0)
    cutoff = half(8)
    basis = enumerate_basis(content, cutoff)
    index = {s: i for i, s in enumerate(basis)}
    op = boson_mode(0, 1)
    mat = np.zeros((len(basis), len(basis)))
    for j, s in enumerate(basis):
        for t, cf in op.apply_state(s).terms.items():
            mat[index[t], j] = float(cf.re) * float(
                (state_norm_sq(t) / state_norm_sq(s)) ** Fraction(1, 2)
            )
    oracle = float(np.linalg.svd(mat, compute_uv=False)[0])
    norm_sq = restricted_norm_sq(op, content, cutoff)
    assert sqrt(float(norm_sq)) == pytest.approx(oracle, rel=1e-9)


def test_cutoff_below_shift_rejected():
    with pytest.raises(ValueError):
        restricted_norm_sq(boson_mode(0, 3), C11, half(2))
