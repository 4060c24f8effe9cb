from fractions import Fraction

import pytest

from supervir.fock import FieldContent, FockState, FockVector, enumerate_basis
from supervir.halfint import HalfInt, half, halfint_range
from supervir.oscillators import (
    BilinearSpec,
    bilinear_mode,
    boson_mode,
    circle_derivative_mode,
    fermion_mode,
    tail_sum,
)
from supervir.scalars import GaussianRational

C11 = FieldContent(1, 1)
C22 = FieldContent(2, 2)
OM = FockVector.vacuum(C11)
I = GaussianRational(0, 1)


def J(m, species=0):
    return boson_mode(species, m)


def F(t, species=0):
    return fermion_mode(species, half(t))


# ---------------------------------------------------------------------------
# elementary modes
# ---------------------------------------------------------------------------


def test_boson_examples():
    assert J(1)(J(-1)(OM)) == OM
    assert J(1)(J(-1)(J(-1)(OM))) == J(-1)(OM).scale(2)
    states = enumerate_basis(C11, half(6))
    for s in states:
        assert J(0).apply_state(s).is_zero()


def test_fermion_examples():
    assert F(1)(F(-1)(OM)) == OM
    assert F(-1)(F(-1)(OM)).is_zero()
    state = F(-3)(F(-1)(OM))  # canonical Phi_{-3/2} Phi_{-1/2} vacuum
    assert F(1)(state) == F(-3)(OM).scale(-1)


def test_fermion_mode_rejects_integers():
    with pytest.raises(ValueError):
        fermion_mode(0, half(2))


def test_heisenberg_relations():
    states = enumerate_basis(C11, half(10))
    for m in range(-3, 4):
        for n in range(-3, 4):
            comm = J(m).commutator(J(n))
            expect = Fraction(m) if m == -n else Fraction(0)
            for s in states:
                got = comm.apply_state(s)
                want = FockVector.basis(s).scale(expect)
                assert got == want, (m, n, s)


def test_car_relations():
    states = enumerate_basis(C11, half(10))
    for mt in range(-5, 6, 2):
        for nt in range(-5, 6, 2):
            anti = F(mt).commutator(F(nt))  # odd-odd: anticommutator
            expect = Fraction(1) if mt == -nt else Fraction(0)
            for s in states:
                assert anti.apply_state(s) == FockVector.basis(s).scale(expect), (mt, nt, s)


def test_cross_species_anticommute():
    om2 = FockVector.vacuum(C22)
    a = fermion_mode(0, half(-1))
    b = fermion_mode(1, half(-3))
    assert a(b(om2)) == b(a(om2)).scale(-1)


# ---------------------------------------------------------------------------
# bilinears against a brute-force expansion oracle
# ---------------------------------------------------------------------------


def oracle_bilinear(spec: BilinearSpec, k, state: FockState) -> FockVector:
    """Direct expansion of the normal-ordering definition with explicit
    index windows, built from public single-mode operators."""
    w = state.weight.twice
    kt = HalfInt(k).twice

    def left_op(t):
        if spec.left_kind == "J":
            return boson_mode(spec.left_species, t // 2), Fraction(1)
        if spec.left_kind == "Phi":
            return fermion_mode(spec.left_species, half(t)), Fraction(1)
        return fermion_mode(spec.left_species, half(t)), Fraction(-t - 1, 2)

    def right_op(t):
        if spec.right_kind == "J":
            return boson_mode(spec.right_species, t // 2)
        return fermion_mode(spec.right_species, half(t))

    cutoff = {"J": -2, "Phi": -1, "dPhi": -3}[spec.left_kind]
    koszul = -1 if (spec.left_kind != "J" and spec.right_kind != "J") else 1
    out = FockVector.zero()
    sv = FockVector.basis(state)
    a = cutoff
    while kt - a <= w:
        op, coeff = left_op(a)
        if coeff:
            out = out + op(right_op(kt - a)(sv)).scale(coeff)
        a -= 2
    a = cutoff + 2
    while a <= w:
        op, coeff = left_op(a)
        if coeff:
            out = out + right_op(kt - a)(op(sv)).scale(coeff * koszul)
        a += 2
    return out


SPECS_11 = [
    BilinearSpec("J", 0, "J", 0),
    BilinearSpec("dPhi", 0, "Phi", 0),
    BilinearSpec("J", 0, "Phi", 0),
]
SPECS_22 = SPECS_11 + [BilinearSpec("Phi", 0, "Phi", 1), BilinearSpec("J", 1, "Phi", 0)]


@pytest.mark.parametrize("spec", SPECS_11)
def test_bilinear_matches_oracle_one_species(spec):
    states = enumerate_basis(C11, half(10))
    lattice_integer = spec.mode_is_integer
    for k in halfint_range(half(-6), half(6), integer=lattice_integer):
        op = bilinear_mode(spec, k)
        for s in states:
            assert op.apply_state(s) == oracle_bilinear(spec, k, s), (spec, k, s)


@pytest.mark.parametrize("spec", SPECS_22[3:])
def test_bilinear_matches_oracle_two_species(spec):
    states = enumerate_basis(C22, half(6))
    for k in halfint_range(half(-4), half(4), integer=spec.mode_is_integer):
        op = bilinear_mode(spec, k)
        for s in states:
            assert op.apply_state(s) == oracle_bilinear(spec, k, s), (spec, k, s)


def test_bilinear_examples():
    sj2 = BilinearSpec("J", 0, "J", 0)
    sdff = BilinearSpec("dPhi", 0, "Phi", 0)
    sjf = BilinearSpec("J", 0, "Phi", 0)
    assert bilinear_mode(sj2, half(0))(J(-1)(OM)) == J(-1)(OM).scale(2)
    assert bilinear_mode(sdff, half(0))(F(-1)(OM)) == F(-1)(OM)
    assert bilinear_mode(sjf, half(-3))(OM) == J(-1)(F(-1)(OM))


def test_bilinear_mode_parity_checked():
    with pytest.raises(ValueError):
        bilinear_mode(BilinearSpec("J", 0, "J", 0), half(1))
    with pytest.raises(ValueError):
        bilinear_mode(BilinearSpec("J", 0, "Phi", 0), half(2))
    with pytest.raises(ValueError):
        BilinearSpec("Phi", 0, "J", 0)


# ---------------------------------------------------------------------------
# tail sums
# ---------------------------------------------------------------------------


def test_tail_examples():
    assert tail_sum("J", 0, half(0))(OM).is_zero()
    assert tail_sum("J", 0, half(-4))(OM) == J(-1)(OM).scale(-1)
    # fixed by direct enumeration: j=-1 gives -Phi_{-3/2}, j=-2 gives +Phi_{-1/2}
    got = tail_sum("Phi", 0, half(-5))(OM)
    want = F(-3)(OM).scale(-1) + F(-1)(OM)
    assert got == want


def test_tail_stabilizes():
    states = enumerate_basis(C11, half(8))
    for m in (-3, -1, 0, 2):
        op = tail_sum("J", 0, half(2 * m))
        for s in states:
            full = op.apply_state(s)
            # the partial sum equals the tail once indices pass the weight,
            # and extending the window further changes nothing
            partial = FockVector.zero()
            l = 1
            while 2 * (m + l) <= s.weight.twice:
                partial = partial + J(m + l).apply_state(s).scale(Fraction(-1) ** l)
                l += 1
            assert partial == full
            for extra in range(1, 4):
                partial = partial + J(m + l).apply_state(s).scale(Fraction(-1) ** l)
                l += 1
            assert partial == full


# ---------------------------------------------------------------------------
# circle derivative and weight shifts
# ---------------------------------------------------------------------------


def test_circle_derivative():
    base = lambda n: boson_mode(0, n.as_int())
    assert circle_derivative_mode(base, half(0)).apply_state(FockState.vacuum(C11)).is_zero()
    got = circle_derivative_mode(base, half(4))(J(-2)(OM))
    assert got == OM.scale(GaussianRational(0, -4))
    fbase = lambda n: fermion_mode(0, n)
    got = circle_derivative_mode(fbase, half(-1))(OM)
    assert got == F(-1)(OM).scale(GaussianRational(0, Fraction(1, 2)))


def test_declared_weight_shifts():
    states = enumerate_basis(C11, half(10))
    ops = [J(m) for m in range(-3, 4)] + [F(t) for t in range(-5, 6, 2)]
    ops += [bilinear_mode(s, k) for s in SPECS_11 for k in halfint_range(half(-4), half(4), integer=s.mode_is_integer)]
    for op in ops:
        assert op.weight_shift is not None
        for s in states:
            image = op.apply_state(s)
            for t in image.states():
                assert t.weight == s.weight - op.weight_shift, (op, s, t)
    assert tail_sum("J", 0, half(0)).weight_shift is None


def test_parity_declarations():
    assert J(1).parity == 0
    assert F(1).parity == 1
    assert bilinear_mode(BilinearSpec("J", 0, "Phi", 0), half(1)).parity == 1
    assert bilinear_mode(BilinearSpec("dPhi", 0, "Phi", 0), half(0)).parity == 0
    assert (F(1) * F(-1)).parity == 0
    with pytest.raises(AssertionError):
        F(1) + J(1)
