from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from supervir.fock import (
    ContentMismatch,
    FieldContent,
    FockState,
    FockVector,
    enumerate_basis,
    inner_product,
    state_norm_sq,
)
from supervir.halfint import HalfInt, half
from supervir.oscillators import boson_mode, fermion_mode
from supervir.scalars import GaussianRational

C11 = FieldContent(1, 1)
C22 = FieldContent(2, 2)


def vac(content=C11):
    return FockVector.vacuum(content)


def counting_series(content: FieldContent, max_twice: int) -> list[int]:
    """Brute-force oracle: coefficients of the product generating function
    (bosons: 1/(1-q^m) per species, fermions: 1+q^(n+1/2) per species),
    indexed by twice the weight."""
    coeffs = [Fraction(0)] * (max_twice + 1)
    coeffs[0] = Fraction(1)
    for _ in range(content.bosons):
        for m in range(1, max_twice // 2 + 1):
            # multiply by 1/(1 - q^m): cumulative sums
            for t in range(2 * m, max_twice + 1):
                coeffs[t] += coeffs[t - 2 * m]
    for _ in range(content.fermions):
        for t_mode in range(1, max_twice + 1, 2):
            for t in range(max_twice, t_mode - 1, -1):
                coeffs[t] += coeffs[t - t_mode]
    return [int(c) for c in coeffs]


@pytest.mark.parametrize("content", [C11, C22, FieldContent(0, 1), FieldContent(2, 0)])
def test_basis_counts_match_generating_function(content):
    max_twice = 12  # weight 6
    oracle = counting_series(content, max_twice)
    states = enumerate_basis(content, half(max_twice))
    by_weight = {}
    for s in states:
        by_weight[s.weight.twice] = by_weight.get(s.weight.twice, 0) + 1
    for t in range(max_twice + 1):
        assert by_weight.get(t, 0) == oracle[t], f"weight {t}/2"


def test_trivial_counts():
    assert len(enumerate_basis(C11, half(0))) == 1
    assert len(enumerate_basis(C11, half(2))) == 3
    assert len(enumerate_basis(C11, half(4))) == 8


def test_basis_is_sorted_and_unique():
    states = enumerate_basis(C22, half(5))
    keys = [s.sort_key() for s in states]
    assert keys == sorted(keys)
    assert len(set(states)) == len(states)


def test_norms():
    assert state_norm_sq(FockState.vacuum(C11)) == 1
    j = lambda m: boson_mode(0, m)
    f = lambda t: fermion_mode(0, half(t))
    v = j(-1)(j(-1)(vac()))
    assert state_norm_sq(next(iter(v.states()))) == 2
    v = j(-2)(f(-3)(vac()))
    assert state_norm_sq(next(iter(v.states()))) == 2
    v = j(-2)(j(-2)(j(-2)(vac())))  # 2^3 * 3!
    assert state_norm_sq(next(iter(v.states()))) == 48


def test_inner_product_examples():
    j = lambda m: boson_mode(0, m)
    f = lambda t: fermion_mode(0, half(t))
    om = vac()
    assert inner_product(om, om) == GaussianRational(1)
    assert inner_product(f(-1)(om), j(-1)(om)).is_zero()
    u = j(-1)(om).scale(GaussianRational(0, 1))
    assert inner_product(u, j(-1)(om)) == GaussianRational(0, -1)
    assert inner_product(j(-1)(om), u) == GaussianRational(0, 1)


def test_basis_orthogonality():
    states = enumerate_basis(C11, half(5))
    for s in states:
        for t in states:
            got = inner_product(FockVector.basis(s), FockVector.basis(t))
            if s == t:
                assert got == GaussianRational(state_norm_sq(s))
            else:
                assert got.is_zero()


def test_weight_and_parity_additive():
    states = enumerate_basis(C22, half(4))
    for s in states:
        w = sum(2 * m for sp in s.bosons for m in sp) + sum(t for sp in s.fermions for t in sp)
        assert s.weight.twice == w
        assert s.parity == sum(len(sp) for sp in s.fermions) % 2


def test_content_mismatch_rejected():
    with pytest.raises(ContentMismatch):
        inner_product(vac(C11), vac(C22))


@given(st.fractions(max_denominator=20), st.fractions(max_denominator=20))
def test_vector_space_axioms(a, b):
    j = boson_mode(0, -1)
    om = vac()
    v = j(om)
    lhs = v.scale(a).scale(b)
    rhs = v.scale(a * b)
    assert lhs == rhs
    assert (v.scale(a) + v.scale(b)) == v.scale(a + b)


def test_halfint_basics():
    assert not half(3).is_integer and half(4).is_integer
    assert half(3) + half(1) == 2
    assert -half(5) == half(-5)
    assert half(3).as_fraction() == Fraction(3, 2)
    with pytest.raises(ValueError):
        half(3).as_int()
    with pytest.raises(TypeError):
        HalfInt(Fraction(1, 3))


def test_halfint_hash_agrees_with_equality():
    """An integer-valued HalfInt equals the int, so it must hash alike."""
    values = [half(t) for t in range(-9, 10)]
    for value in values:
        if value.is_integer:
            assert hash(value) == hash(value.as_int())
    assert set(values) | set(range(-4, 5)) == set(values)
    assert {half(-6): "x"}[-3] == "x"
