from fractions import Fraction

import pytest

from supervir import realizations
from supervir.fock import FieldContent, FockState, FockVector, enumerate_basis, state_table
from supervir.halfint import HalfInt, half, halfint_range
from supervir.oscillators import (
    BilinearSpec,
    _Bilinear,
    _BosonMode,
    _FermionMode,
    _TailSum,
    _bilinear_branches,
    _boson,
    _fermion,
    bilinear_mode,
    boson_mode,
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
# weight shifts and parity
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# the primitive layer against its unfiltered reference
# ---------------------------------------------------------------------------


def _reference_branches(spec: BilinearSpec, k: int, w: int):
    """Every branch (first, second, numerator) of mode k on twice-weight w,
    with freshly built, not interned, primitives."""

    def prim(kind, species, t):
        return _BosonMode(species, t // 2) if kind == "J" else _FermionMode(species, t)

    cutoff, coeff_of = {"J": (-2, lambda t: 1), "Phi": (-1, lambda t: 1), "dPhi": (-3, lambda t: -t - 1)}[spec.left_kind]
    left_kind = "J" if spec.left_kind == "J" else "Phi"
    koszul = -1 if spec.left_parity and spec.right_parity else 1
    left = lambda a: prim(left_kind, spec.left_species, a)
    right = lambda a: prim(spec.right_kind, spec.right_species, a)
    branches = [(right(k - a), left(a), coeff_of(a)) for a in range(cutoff, k - w - 1, -2)]
    branches += [(left(a), right(k - a), koszul * coeff_of(a)) for a in range(cutoff + 2, w + 1, 2)]
    return [b for b in branches if b[2]]


def _reference_act(prim, table, sid) -> dict[FockState, Fraction]:
    """The unfiltered bilinear loop and the tail-sum loop, every branch
    and every term acted out without memo or skip, as {state: coefficient}."""
    acc: dict[int, int] = {}
    if isinstance(prim, _Bilinear):
        for first, second, factor in _reference_branches(prim.spec, prim.k_twice, table.twice[sid]):
            for s1, c1 in first.act(table, sid):
                for s2, c2 in second.act(table, s1):
                    acc[s2] = acc.get(s2, 0) + c1 * c2 * factor
    else:
        for l in range(1, (table.twice[sid] - prim.m_twice) // 2 + 1):
            t = prim.m_twice + 2 * l
            term = _BosonMode(prim.species, t // 2) if prim.kind == "J" else _FermionMode(prim.species, t)
            for s, c in term.act(table, sid):
                acc[s] = acc.get(s, 0) + (-c if l % 2 else c)
    return {table.states[s]: Fraction(c, prim.denominator) for s, c in acc.items() if c}


_TABLE_SPECS = sorted({spec for rows in realizations._TABLE.values() for row in rows.values() for spec, _ in row[0]},
                      key=repr)
_CUTOFFS = {C11: half(10), C22: half(8)}


def _assert_matches_reference(content, prims):
    table = state_table(content)
    ids = [table.id_of(s) for s in enumerate_basis(content, _CUTOFFS[content])]
    for prim in prims:
        for sid in ids:
            got = {table.states[s]: Fraction(c, prim.denominator) for s, c in prim.act(table, sid)}
            assert got == _reference_act(prim, table, sid), (prim, table.states[sid])


def test_table_specs_cover_cross_species():
    assert len(_TABLE_SPECS) == 9
    assert any(s.left_species != s.right_species for s in _TABLE_SPECS)


@pytest.mark.parametrize(
    "content,spec",
    [(c, spec) for spec in _TABLE_SPECS for c in (C11, C22) if max(spec.left_species, spec.right_species) < c.bosons],
    ids=lambda x: f"{x.bosons}{x.fermions}" if isinstance(x, FieldContent)
    else f"{x.left_kind}{x.left_species}-{x.right_kind}{x.right_species}",
)
def test_bilinears_match_unfiltered_reference(content, spec):
    """Skipped branches and interned primitives change no column: every
    bilinear of the realization table at |k| <= 4 acts on each state of
    weight <= 5 (one species) or <= 4 (two species) as the unfiltered
    loop does.  Columns are compared as {FockState: coefficient}, so
    state ids do not enter."""
    ks = halfint_range(half(-8), half(8), integer=spec.mode_is_integer)
    _assert_matches_reference(content, [_Bilinear(spec, k.twice) for k in ks])


@pytest.mark.parametrize("content", [C11, C22], ids=["11", "22"])
def test_tails_match_unfiltered_reference(content):
    """The J and Phi tails of every species at |m| <= 3, as above."""
    _assert_matches_reference(content, [
        _TailSum(kind, species, m.twice) for kind in ("J", "Phi") for species in range(content.bosons)
        for m in halfint_range(half(-6), half(6), integer=kind == "J")])


def test_branch_primitives_are_interned():
    """A branch factor is the very primitive of the mode factory, so a memo
    hit matches by identity."""
    for spec in _TABLE_SPECS:
        for first, second, _ in _bilinear_branches(spec, 1 if not spec.mode_is_integer else 0, 6):
            for prim in (first, second):
                if isinstance(prim, _BosonMode):
                    op = boson_mode(prim.species, prim.m)
                else:
                    op = fermion_mode(prim.species, half(prim.n_twice))
                assert op.terms[0][2][0] is prim


def test_interned_current_and_fermion_modes_hash_apart():
    """J_m and Phi_{t/2} with m == t on the same species are different
    memo keys: they neither hash nor compare equal."""
    for species in range(2):
        for index in (-3, -1, 1, 3):
            j, phi = _boson(species, index), _fermion(species, index)
            assert hash(j) != hash(phi) and j != phi
            assert _boson(species, index) is j and _fermion(species, index) is phi
