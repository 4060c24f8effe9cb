from fractions import Fraction

import pytest

from supervir.fock import FockVector, enumerate_basis, state_table
from supervir.halfint import HalfInt, half, halfint_range
from supervir.oscillators import (
    BilinearSpec,
    ModeOperator,
    bilinear_mode,
    boson_mode,
    fermion_mode,
    tail_sum,
)
from supervir.realizations import RealizationParams, make_mode, realize_word
from supervir.scalars import GaussianRational
from supervir.superalg import family_presentation, pbw_words

I = GaussianRational(0, 1)


def params(family="ns", variant="unitary", kappa=0, eta=0, omega=0):
    return RealizationParams(family, variant, Fraction(kappa), Fraction(eta), Fraction(omega))


def test_parameter_validation():
    with pytest.raises(ValueError):
        params(variant="bs", eta=1)
    with pytest.raises(ValueError):
        params(family="ns", omega=1)
    with pytest.raises(ValueError):
        RealizationParams("other", "bs")
    with pytest.raises(ValueError):
        make_mode(params("ns"), "J", half(0))
    with pytest.raises(ValueError):
        make_mode(params("ns"), "L", half(1))
    with pytest.raises(ValueError):
        make_mode(params("ns"), "G", half(2))


def test_derived_quantities():
    p = params("ns", "unitary", Fraction(1, 2), Fraction(1, 2))
    assert p.central_charge() == Fraction(9, 2)
    assert p.lowest_weight() == Fraction(1, 4)
    p = params("n2", "unitary", Fraction(1, 2), 0, 1)
    assert p.central_charge() == 6
    assert p.lowest_weight() == Fraction(5, 8)
    assert p.charge() == 1
    assert not p.is_vacuum_like()
    assert params("n2", "bs", Fraction(1, 2)).is_vacuum_like()


def test_lowest_weight_examples():
    vac = FockVector.vacuum(params().content)
    assert make_mode(params("ns", "bs", Fraction(1, 2)), "L", half(0))(vac).is_zero()
    got = make_mode(params("ns", "unitary", Fraction(1, 2), Fraction(1, 2)), "L", half(0))(vac)
    assert got == vac.scale(Fraction(1, 4))
    p = params("n2", "unitary", Fraction(1, 2), 0, 1)
    got = make_mode(p, "J", half(0))(FockVector.vacuum(p.content))
    assert got == FockVector.vacuum(p.content).scale(1)


def test_l0_eigenvalues_are_the_weights():
    """Pins the mode sums of the bilinears, in particular the reweighted
    derivative factor: L_0 must act diagonally with the state weight."""
    for family in ("ns", "n2"):
        p = params(family)
        l0 = make_mode(p, "L", half(0))
        for s in enumerate_basis(p.content, half(8)):
            assert l0.apply_state(s) == FockVector.basis(s).scale(s.weight.as_fraction()), s


def test_variants_agree_at_zero_deformation():
    for family in ("ns", "n2"):
        ps = [params(family, v) for v in ("tilde", "bs", "unitary")]
        basis = enumerate_basis(ps[0].content, half(8))
        roles = ps[0].roles()
        for role in roles:
            integer = not role.startswith("G")
            for idx in halfint_range(half(-4), half(4), integer=integer):
                images = [make_mode(p, role, idx) for p in ps]
                for s in basis:
                    ref = images[0].apply_state(s)
                    assert all(op.apply_state(s) == ref for op in images[1:]), (family, role, idx, s)


def test_bs_modes_match_handwritten_formula():
    """The assembled operators agree with the literal deformed mode sums."""
    kappa = Fraction(1, 2)
    p = params("ns", "bs", kappa)
    base = params("ns", "tilde", 0)
    basis = enumerate_basis(p.content, half(8))
    for m in range(-3, 4):
        op = make_mode(p, "L", half(2 * m))
        for s in basis:
            hand = make_mode(base, "L", half(2 * m)).apply_state(s)
            hand = hand + boson_mode(0, m).apply_state(s).scale(-I * (kappa * (1 + m)))
            tail = FockVector.zero()
            l = 1
            while m + l <= s.weight.twice // 2:
                tail = tail + boson_mode(0, m + l).apply_state(s).scale(Fraction(-1) ** l)
                l += 1
            hand = hand + tail.scale(-2 * I * kappa)
            assert op.apply_state(s) == hand, (m, s)
    for nt in range(-5, 6, 2):
        op = make_mode(p, "G", half(nt))
        n = Fraction(nt, 2)
        for s in basis:
            hand = make_mode(base, "G", half(nt)).apply_state(s)
            hand = hand + fermion_mode(0, half(nt)).apply_state(s).scale(-I * (kappa * (1 + 2 * n)))
            hand = hand + tail_sum("Phi", 0, half(nt)).apply_state(s).scale(-2 * I * kappa)
            assert op.apply_state(s) == hand, (nt, s)


def test_unitary_adjoint_identity():
    """A_n^dagger = A_{-n} exactly for the symmetric variant: on basis u, v,
    <A_n u, v> = conj((A_n u)_v) N(v) equals <u, A_{-n} v> = (A_{-n} v)_u N(u).
    Both sides are kept as maps from (u, v) to their nonzero values, so
    equal maps mean equal values at every pair of the basis."""
    cases = [
        params("ns", "unitary", Fraction(1, 2), Fraction(1, 3)),
        params("n2", "unitary", Fraction(1, 3), Fraction(1, 2), Fraction(1)),
    ]
    for p in cases:
        table = state_table(p.content)
        ids = [table.id_of(s) for s in enumerate_basis(p.content, half(8 if p.family == "ns" else 6))]
        inside = set(ids)
        norms = table.norms
        for role in p.roles():
            integer = not role.startswith("G")
            for n in halfint_range(half(-5), half(5), integer=integer):
                up = make_mode(p, role, n)
                down = make_mode(p, role, -n)
                lhs = {(u, v): (Fraction(re * norms[v], up.denom), Fraction(-im * norms[v], up.denom))
                       for u in ids for v, re, im in up.column(table, u) if v in inside}
                rhs = {(u, v): (Fraction(re * norms[u], down.denom), Fraction(im * norms[u], down.denom))
                       for v in ids for u, re, im in down.column(table, v) if u in inside}
                assert lhs == rhs, (p.family, role, n)


def test_n2_pairs_satisfy_ns_relations():
    """(L, G1) and (L, G2) each close on the one-supercharge relations."""
    from supervir.superalg import presentation_ns

    pres = presentation_ns()
    p = params("n2", "unitary", Fraction(1, 2))
    c = p.central_charge()
    basis = enumerate_basis(p.content, half(4))
    for gname in ("G1", "G2"):
        translate = {"L": "L", "G": gname}
        for f1, f2 in pres.family_pairs():
            for n1 in halfint_range(half(-4), half(4), integer=pres.integer_moded(f1)):
                for n2 in halfint_range(half(-4), half(4), integer=pres.integer_moded(f2)):
                    a = make_mode(p, translate[f1], n1)
                    b = make_mode(p, translate[f2], n2)
                    comm = a.commutator(b)
                    terms, central = pres.bracket(f1, n1, f2, n2, c)
                    for s in basis:
                        got = comm.apply_state(s)
                        want = FockVector.zero()
                        for fam, idx, cf in terms:
                            want = want + make_mode(p, translate[fam], idx).apply_state(s).scale(cf)
                        if not central.is_zero():
                            want = want + FockVector.basis(s).scale(central)
                        assert got == want, (gname, f1, n1, f2, n2, s)


def test_realize_word_matches_mode_application():
    p = params("ns", "bs", Fraction(1, 2))
    word = (("L", half(-4)), ("G", half(-3)))
    vec = realize_word(p, word)
    direct = make_mode(p, "L", half(-4))(make_mode(p, "G", half(-3))(FockVector.vacuum(p.content)))
    assert vec == direct
    # the PBW words of a vacuum-like cyclic vector: the empty word is the
    # vacuum, G_{-3/2} alone spans level 3/2 and realizes as J_{-1} Phi_{-1/2}
    p, ns = params("ns", "unitary"), family_presentation("ns")
    vac = FockVector.vacuum(p.content)
    assert realize_word(p, ()) == vac
    assert pbw_words(ns, half(3), drop_vacuum_annihilators=True) == [(("G", half(-3)),)]
    assert realize_word(p, (("G", half(-3)),)) == boson_mode(0, -1)(fermion_mode(0, half(-1))(vac))
    # the words dropped there do vanish: L_{-1} and G_{-1/2} kill the vacuum
    assert make_mode(p, "L", half(-2))(vac).is_zero() and make_mode(p, "G", half(-1))(vac).is_zero()
    # a non-vacuum-like cyclic vector keeps the G_{-1/2} word
    assert (("G", half(-1)),) in pbw_words(ns, half(1), drop_vacuum_annihilators=False)
    assert (("G", half(-1)),) not in pbw_words(ns, half(1), drop_vacuum_annihilators=True)


# ---------------------------------------------------------------------------
# reference: the hand-written variant branches the realization table replaced
# ---------------------------------------------------------------------------


def scalar_operator(coeff) -> ModeOperator:
    return ModeOperator.identity().scale(coeff)


def _reference_ns_base(role, index):
    if role == "L":
        return bilinear_mode(BilinearSpec("J", 0, "J", 0), index).scale(Fraction(1, 2)) + bilinear_mode(
            BilinearSpec("dPhi", 0, "Phi", 0), index
        ).scale(Fraction(1, 2))
    return bilinear_mode(BilinearSpec("J", 0, "Phi", 0), index)


def _reference_n2_base(role, index):
    if role == "L":
        op = bilinear_mode(BilinearSpec("J", 0, "J", 0), index).scale(Fraction(1, 2))
        op = op + bilinear_mode(BilinearSpec("J", 1, "J", 1), index).scale(Fraction(1, 2))
        op = op + bilinear_mode(BilinearSpec("dPhi", 0, "Phi", 0), index).scale(Fraction(1, 2))
        op = op + bilinear_mode(BilinearSpec("dPhi", 1, "Phi", 1), index).scale(Fraction(1, 2))
        return op
    if role == "G1":
        return bilinear_mode(BilinearSpec("J", 0, "Phi", 0), index) - bilinear_mode(
            BilinearSpec("J", 1, "Phi", 1), index
        )
    if role == "G2":
        return bilinear_mode(BilinearSpec("J", 0, "Phi", 1), index) + bilinear_mode(
            BilinearSpec("J", 1, "Phi", 0), index
        )
    return bilinear_mode(BilinearSpec("Phi", 0, "Phi", 1), index).scale(-I)


def _reference_make_mode(params, role, index):
    kappa = params.kappa
    if params.family == "ns":
        op = _reference_ns_base(role, index)
        if role == "L":
            m = index.as_int()
            if params.variant == "tilde":
                op = op - (I * (kappa * (1 + m))) * boson_mode(0, m)
            elif params.variant == "bs":
                op = op - (I * (kappa * (1 + m))) * boson_mode(0, m)
                op = op - (I * (2 * kappa)) * tail_sum("J", 0, index)
            else:
                coeff = GaussianRational(params.eta) - I * (kappa * m)
                op = op + coeff * boson_mode(0, m)
                if m == 0:
                    op = op + scalar_operator(params.lowest_weight())
        else:
            n = index.as_fraction()
            if params.variant == "tilde":
                op = op - (I * (kappa * (1 + 2 * n))) * fermion_mode(0, index)
            elif params.variant == "bs":
                op = op - (I * (kappa * (1 + 2 * n))) * fermion_mode(0, index)
                op = op - (I * (2 * kappa)) * tail_sum("Phi", 0, index)
            else:
                coeff = GaussianRational(params.eta) - I * (2 * kappa * n)
                op = op + coeff * fermion_mode(0, index)
        return op
    op = _reference_n2_base(role, index)
    if role == "L":
        m = index.as_int()
        if params.variant == "tilde":
            op = op - (I * (kappa * (1 + m))) * boson_mode(1, m)
        elif params.variant == "bs":
            op = op - (I * (kappa * (1 + m))) * boson_mode(1, m)
            op = op - (I * (2 * kappa)) * tail_sum("J", 1, index)
        else:
            op = op + GaussianRational(params.omega) * boson_mode(0, m)
            op = op + (GaussianRational(params.eta) - I * (kappa * m)) * boson_mode(1, m)
            if m == 0:
                op = op + scalar_operator(params.lowest_weight())
    elif role in ("G1", "G2"):
        n = index.as_fraction()
        ferm = 1 if role == "G1" else 0
        sgn = 1 if role == "G1" else -1
        if params.variant == "tilde":
            op = op + (sgn * I * (kappa * (1 + 2 * n))) * fermion_mode(ferm, index)
        elif params.variant == "bs":
            op = op + (sgn * I * (kappa * (1 + 2 * n))) * fermion_mode(ferm, index)
            op = op + (sgn * I * (2 * kappa)) * tail_sum("Phi", ferm, index)
        elif role == "G1":
            op = op + GaussianRational(params.omega) * fermion_mode(0, index)
            op = op + (-GaussianRational(params.eta) + I * (2 * kappa * n)) * fermion_mode(1, index)
        else:
            op = op + GaussianRational(params.omega) * fermion_mode(1, index)
            op = op + (GaussianRational(params.eta) - I * (2 * kappa * n)) * fermion_mode(0, index)
    else:
        m = index.as_int()
        op = op + GaussianRational(2 * kappa) * boson_mode(0, m)
        if params.variant == "unitary" and m == 0:
            op = op + scalar_operator(params.charge())
    return op


_KAPPAS = (Fraction(1, 2), Fraction(-2, 3), Fraction(1, 3), Fraction(0))
_ETAS = (Fraction(2, 5), Fraction(0))
_OMEGAS = (Fraction(3, 7), Fraction(0))
TABLE_POINTS = [
    params(family, variant, kappa)
    for family in ("ns", "n2")
    for variant in ("tilde", "bs")
    for kappa in _KAPPAS
] + [params("ns", "unitary", kappa, eta) for kappa in _KAPPAS for eta in _ETAS] + [
    params("n2", "unitary", kappa, eta, omega) for kappa in _KAPPAS for eta in _ETAS for omega in _OMEGAS
]


@pytest.mark.parametrize("p", TABLE_POINTS, ids=lambda p: "-".join(map(str, p.to_config().values())))
def test_make_mode_matches_reference_branches(p):
    """The realization table gives, operator by operator, the integer
    columns, parity and weight shift of the hand-written branches: every
    generator with |index| <= 3 on the weight-3 basis, 832 operators over
    the 40 points."""
    table = state_table(p.content)
    ids = [table.id_of(s) for s in enumerate_basis(p.content, half(6))]
    for role in p.roles():
        for index in halfint_range(half(-6), half(6), integer=role in ("L", "J")):
            op, ref = make_mode(p, role, index), _reference_make_mode(p, role, HalfInt(index))
            assert (op.parity, op.weight_shift, op.denom) == (ref.parity, ref.weight_shift, ref.denom), (role, index)
            for sid in ids:
                assert op.column(table, sid) == ref.column(table, sid), (role, index, table.states[sid])
