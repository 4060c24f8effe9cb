import random
from fractions import Fraction

import pytest

from supervir.halfint import half, halfint_range
from supervir.scalars import GaussianRational
from supervir.superalg import (
    LowestWeightData,
    abstract_gram,
    discrete_series,
    free_field_presentation,
    pbw_words,
    presentation_n2,
    presentation_ns,
    presentation_virasoro,
    psd_check,
    vacuum_expectation,
)

VIR = presentation_virasoro()
NS = presentation_ns()
N2 = presentation_n2()


# ---------------------------------------------------------------------------
# vacuum expectations against frozen reductions
# ---------------------------------------------------------------------------


def test_vacuum_expectation_examples():
    lw = LowestWeightData(c=Fraction(7, 3), vacuum_flag=True)
    got = vacuum_expectation((("L", half(-4)),), (("L", half(-4)),), lw, VIR)
    assert got == GaussianRational(Fraction(7, 6))  # c/2
    lwns = LowestWeightData(c=Fraction(3, 2), vacuum_flag=True)
    got = vacuum_expectation((("G", half(-3)),), (("G", half(-3)),), lwns, NS)
    assert got == GaussianRational(1)  # 2c/3
    lwh = LowestWeightData(c=Fraction(1), h=Fraction(5, 11))
    got = vacuum_expectation((("L", half(-2)),), (("L", half(-2)),), lwh, VIR)
    assert got == GaussianRational(Fraction(10, 11))  # 2h


def test_zero_modes_read_h_and_q():
    lw = LowestWeightData(c=Fraction(1), h=Fraction(1, 6), q=Fraction(1, 3))
    assert vacuum_expectation((), (("L", half(0)),), lw, N2) == GaussianRational(Fraction(1, 6))
    assert vacuum_expectation((), (("J", half(0)),), lw, N2) == GaussianRational(Fraction(1, 3))
    assert vacuum_expectation((), (("J", half(0)),), LowestWeightData(c=Fraction(1)), N2) == GaussianRational(0)
    lwh = LowestWeightData(c=Fraction(7, 10), h=Fraction(3, 80))
    # <L_{-1} v, L_0 L_{-1} v> = (h + 1) 2h
    got = vacuum_expectation((("L", half(-2)),), (("L", half(0)), ("L", half(-2))), lwh, VIR)
    assert got == GaussianRational(Fraction(83, 80) * Fraction(3, 40))
    with pytest.raises(ValueError, match="odd family G has no zero mode"):
        vacuum_expectation((), (("G", half(0)),), lw, NS)


def test_free_field_zero_modes_kill_the_vacuum():
    """An even zero mode of the free field kills the Fock vacuum, alone and
    after a creation mode, as J_0 acts on the Fock space."""
    pres, lw = free_field_presentation(1, 1), LowestWeightData(Fraction(0))
    assert vacuum_expectation((), (("J0", half(0)),), lw, pres) == GaussianRational(0)
    assert vacuum_expectation((("J0", half(0)),), (), lw, pres) == GaussianRational(0)
    word = (("J0", half(-2)),)
    assert vacuum_expectation(word, (("J0", half(0)),) + word, lw, pres) == GaussianRational(0)
    assert vacuum_expectation(word, word, lw, pres) == GaussianRational(1)


# ---------------------------------------------------------------------------
# reference: the Gaussian-rational reduction the integer engine replaced
# ---------------------------------------------------------------------------


def _annihilates_vacuum(pres, lw, fam, n):
    if n > 0:
        return True
    if not lw.vacuum_flag:
        return False
    return (fam == "L" and n == -1) or (pres.parity(fam) == 1 and n.twice == -1)


def _ok_before(pres, g, head):
    """Whether generator g may sit immediately left of head in a PBW word."""
    (f1, n1), (f2, n2) = g, head
    r1, r2 = pres.rank(f1), pres.rank(f2)
    if r1 != r2:
        return r1 < r2
    if pres.parity(f1) == 1:
        return n1 < n2  # strictly decreasing labels
    return n1 <= n2


def _add_into(out, vec, factor):
    """out += factor * vec, dropping the words whose coefficient cancels."""
    for word, coeff in vec.items():
        total = coeff * factor
        old = out.get(word)
        if old is not None:
            total = old + total
        if total:
            out[word] = total
        else:
            out.pop(word, None)


def _reference_apply(pres, lw, fam, n, vec, memo):
    out = {}
    for word, coeff in vec.items():
        _add_into(out, _reference_reduce(pres, lw, fam, n, word, memo), coeff)
    return out


def _reference_reduce(pres, lw, fam, n, word, memo):
    """Normal-order (fam, n) applied to a PBW word on the cyclic vector, in
    GaussianRational arithmetic on (family, HalfInt) words; `memo` holds
    the reductions of one (presentation, point)."""
    key = (fam, n, word)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if not word:
        if _annihilates_vacuum(pres, lw, fam, n):
            result = {}
        elif n == 0:
            if fam == "L":
                result = {(): GaussianRational(lw.h)} if lw.h else {}
            elif fam == "J":
                q = lw.q or Fraction(0)
                result = {(): GaussianRational(q)} if q else {}
            else:
                raise ValueError(f"odd family {fam} has no zero mode")
        else:
            result = {((fam, n),): GaussianRational(1)}
    elif n < 0 and _ok_before(pres, (fam, n), word[0]):
        result = {((fam, n),) + word: GaussianRational(1)}
    else:
        (hf, hn), rest = word[0], word[1:]
        result = {}
        if pres.parity(fam) == 1 and (fam, n) == (hf, hn):
            # odd square: A_n A_n = (1/2){A_n, A_n}
            factor = Fraction(1, 2)
        else:
            # move g past the head:  g . head = sign * head . g + [g, head]
            sign = -1 if (pres.parity(fam) and pres.parity(hf)) else 1
            inner = _reference_reduce(pres, lw, fam, n, rest, memo)
            _add_into(result, _reference_apply(pres, lw, hf, hn, inner, memo), sign)
            factor = 1
        terms, central = pres.bracket(fam, n, hf, hn, lw.c)
        for f2, n2, cf in terms:
            _add_into(result, _reference_reduce(pres, lw, f2, n2, rest, memo), cf * factor)
        if central:
            _add_into(result, {rest: central}, factor)
    memo[key] = result
    return result


def _dense_expectation(left, right, lw, pres, memo=None):
    """Reference: the per-entry loop that applies every generator of the
    adjoint left word to the whole reduced right vector, on the reference
    reduction; pass one `memo` dict to share reductions at one point."""
    memo = {} if memo is None else memo
    vec = {(): GaussianRational(1)}
    for fam, n in reversed(right):
        vec = _reference_apply(pres, lw, fam, n, vec, memo)
    for fam, n in left:
        vec = _reference_apply(pres, lw, fam, -n, vec, memo)
    return vec.get((), GaussianRational(0))


@pytest.mark.parametrize("pres,top_twice,lw", [
    (N2, 6, LowestWeightData(c=Fraction(6), h=Fraction(5, 8), q=Fraction(1))),
    (N2, 6, LowestWeightData(c=Fraction(-3), h=Fraction(1, 8), q=Fraction(-1, 8))),
    (N2, 6, LowestWeightData(c=Fraction(7, 3), h=Fraction(1, 5), q=Fraction(-1, 7))),
    (N2, 6, LowestWeightData(c=Fraction(7, 3), h=Fraction(0), q=Fraction(0), vacuum_flag=True)),
    (NS, 8, LowestWeightData(c=Fraction(7, 3), h=Fraction(1, 5))),
    (NS, 8, LowestWeightData(c=Fraction(7, 3), vacuum_flag=True)),
    (VIR, 12, LowestWeightData(c=Fraction(7, 3), h=Fraction(1, 5))),
    (VIR, 12, LowestWeightData(c=Fraction(7, 3), vacuum_flag=True)),
], ids=["lw0", "lw1", "n2-verma-7/3", "n2-vacuum-7/3", "ns-verma-7/3", "ns-vacuum-7/3", "vir-verma-7/3",
        "vir-vacuum-7/3"])
def test_vacuum_expectation_matches_per_entry_reference(pres, top_twice, lw):
    """The integer left-word recursion against the Gaussian-rational
    per-entry loop, entry by entry, on every Gram up to level top_twice/2:
    Verma and vacuum points with nonzero charge and with denominators
    (c = 7/3, h = 1/5, q = -1/7) that the bound denominator must clear."""
    memo = {}
    for twice in range(0, top_twice + 1):
        gram = abstract_gram(pres, lw, half(twice))
        for wi, row in zip(gram.words, gram.entries):
            for wj, entry in zip(gram.words, row):
                assert entry == _dense_expectation(wi, wj, lw, pres, memo), (twice, wi, wj)


def test_memos_hold_one_point():
    a = LowestWeightData(c=Fraction(7, 3), h=Fraction(1, 5))
    b = LowestWeightData(c=Fraction(7, 3), h=Fraction(2, 5))
    abstract_gram(VIR, a, half(6))
    tables = len(VIR._reduce_cache), len(VIR._expect_cache)
    assert all(tables)
    abstract_gram(VIR, LowestWeightData(c=Fraction(7, 3), h=Fraction(1, 5)), half(6))  # equal point: kept
    assert (len(VIR._reduce_cache), len(VIR._expect_cache)) == tables
    abstract_gram(VIR, b, half(2))  # a new point replaces the old tables
    assert len(VIR._reduce_cache) < tables[0] and len(VIR._expect_cache) < tables[1]
    words = pbw_words(VIR, half(6), drop_vacuum_annihilators=False)
    expected = [[_dense_expectation(wi, wj, a, VIR) for wj in words] for wi in words]
    assert abstract_gram(VIR, a, half(6)).entries == expected


def _scaled_bracket(pres, factor):
    """pres.bracket with every term coefficient times `factor`."""
    original = pres.bracket

    def scaled(f1, n1, f2, n2, c):
        terms, central = original(f1, n1, f2, n2, c)
        return tuple((fam, idx, cf * factor) for fam, idx, cf in terms), central

    return scaled


def test_memos_follow_the_bracket(monkeypatch):
    """The memos are bound to the bracket as well as the point: a Gram
    built with a patched bracket must not leak into a Gram built at an
    equal point after the bracket is restored."""
    with monkeypatch.context() as patch:
        patch.setattr(VIR, "bracket", _scaled_bracket(VIR, 2))
        gram = abstract_gram(VIR, LowestWeightData(c=Fraction(1), h=Fraction(1, 3)), half(4))
        assert gram.entries == [[G(Fraction(128, 9)), G(8)], [G(8), G(Fraction(19, 6))]]
    gram = abstract_gram(VIR, LowestWeightData(c=Fraction(1), h=Fraction(1, 3)), half(4))
    assert gram.entries == [[G(Fraction(20, 9)), G(2)], [G(2), G(Fraction(11, 6))]]


def test_non_integral_bracket_value_is_an_internal_defect(monkeypatch):
    """A bracket coefficient 1/11 does not scale to a Gaussian integer over
    D = lcm(4, 12, 3) = 12, so the reduction raises instead of storing a
    rounded value."""
    monkeypatch.setattr(VIR, "bracket", _scaled_bracket(VIR, Fraction(1, 11)))
    lw = LowestWeightData(c=Fraction(1), h=Fraction(1, 3))
    with pytest.raises(AssertionError, match="not integral"):
        vacuum_expectation((("L", half(-2)),), (("L", half(-2)),), lw, VIR)
    with pytest.raises(AssertionError, match="not integral"):
        abstract_gram(VIR, lw, half(4))


def test_vacuum_flag_constraints():
    with pytest.raises(ValueError):
        LowestWeightData(c=Fraction(1), h=Fraction(1), vacuum_flag=True)


def test_conjugate_symmetry():
    lw = LowestWeightData(c=Fraction(4), h=Fraction(0), q=Fraction(0), vacuum_flag=True)
    words = pbw_words(N2, half(4), drop_vacuum_annihilators=True)
    for wi in words:
        for wj in words:
            a = vacuum_expectation(wi, wj, lw, N2)
            b = vacuum_expectation(wj, wi, lw, N2)
            assert a == b.conjugate(), (wi, wj)


# ---------------------------------------------------------------------------
# reduction-order independence: a randomized rewriting oracle
# ---------------------------------------------------------------------------


def _random_reduce(pres, lw, sequence, coeff, rng):
    """Coefficient of the bare vacuum after reducing an arbitrary generator
    string, fixing a RANDOMLY chosen defect at each step."""
    seq = list(sequence)
    if not seq:
        return coeff
    fam, n = seq[-1]
    # rightmost generator hits the vacuum
    if n > 0:
        return GaussianRational(0)
    if n == 0:
        scalar = lw.h if fam == "L" else (lw.q or Fraction(0))
        return _random_reduce(pres, lw, seq[:-1], coeff * GaussianRational(scalar), rng)
    if lw.vacuum_flag and ((fam == "L" and n == -1) or (pres.parity(fam) == 1 and n.twice == -1)):
        return GaussianRational(0)

    def is_defect(i):
        (f1, n1), (f2, n2) = seq[i], seq[i + 1]
        if n1 >= 0:
            return True  # annihilators and zero modes must travel right
        if pres.rank(f1) != pres.rank(f2):
            return pres.rank(f1) > pres.rank(f2)
        return n1 > n2 if pres.parity(f1) == 0 else n1 >= n2

    defects = [i for i in range(len(seq) - 1) if is_defect(i)]
    if not defects:
        # an ordered all-creation word: only the empty one meets the vacuum
        return GaussianRational(0)
    i = rng.choice(defects)
    g1, g2 = seq[i], seq[i + 1]
    (f1, n1), (f2, n2) = g1, g2
    total = GaussianRational(0)
    terms, central = pres.bracket(f1, n1, f2, n2, lw.c)
    if pres.parity(f1) == 1 and g1 == g2:
        # odd square: A A = (1/2){A, A}
        for fam2, idx2, cf in terms:
            total = total + _random_reduce(
                pres, lw, seq[:i] + [(fam2, idx2)] + seq[i + 2 :], coeff * cf * Fraction(1, 2), rng
            )
        if not central.is_zero():
            total = total + _random_reduce(pres, lw, seq[:i] + seq[i + 2 :], coeff * central * Fraction(1, 2), rng)
        return total
    sign = -1 if (pres.parity(f1) and pres.parity(f2)) else 1
    swapped = seq[:i] + [g2, g1] + seq[i + 2 :]
    total = total + _random_reduce(pres, lw, swapped, coeff * GaussianRational(sign), rng)
    for fam2, idx2, cf in terms:
        total = total + _random_reduce(pres, lw, seq[:i] + [(fam2, idx2)] + seq[i + 2 :], coeff * cf, rng)
    if not central.is_zero():
        total = total + _random_reduce(pres, lw, seq[:i] + seq[i + 2 :], coeff * central, rng)
    return total


def test_reduction_order_independence():
    rng = random.Random(20250811)
    lw = LowestWeightData(c=Fraction(9, 2), vacuum_flag=True)
    words = pbw_words(NS, half(4), drop_vacuum_annihilators=True) + pbw_words(
        NS, half(7), drop_vacuum_annihilators=True
    )
    for wi in words:
        for wj in words:
            expected = vacuum_expectation(wi, wj, lw, NS)
            adjoint = [(fam, -n) for fam, n in reversed(wi)]
            for _ in range(3):
                got = _random_reduce(NS, lw, adjoint + list(wj), GaussianRational(1), rng)
                assert got == expected, (wi, wj)


def test_reduction_order_independence_with_complex_constants():
    rng = random.Random(7)
    lw = LowestWeightData(c=Fraction(6), h=Fraction(5, 8), q=Fraction(1))
    words = pbw_words(N2, half(3), drop_vacuum_annihilators=False)
    for wi in words:
        for wj in words:
            expected = vacuum_expectation(wi, wj, lw, N2)
            adjoint = [(fam, -n) for fam, n in reversed(wi)]
            for _ in range(2):
                got = _random_reduce(N2, lw, adjoint + list(wj), GaussianRational(1), rng)
                assert got == expected, (wi, wj)


# ---------------------------------------------------------------------------
# Jacobi identity of the presentations
# ---------------------------------------------------------------------------


def _as_terms(pres, f1, n1, f2, n2, c):
    terms, central = pres.bracket(f1, n1, f2, n2, c)
    out = {}
    for fam, idx, cf in terms:
        if not cf.is_zero():
            out[(fam, idx)] = out.get((fam, idx), GaussianRational(0)) + cf
    return out, central


@pytest.mark.parametrize("pres", [VIR, NS, N2])
@pytest.mark.parametrize("c", [Fraction(0), Fraction(1), Fraction(22, 7)])
def test_jacobi_identity(pres, c):
    gens = []
    for fam in pres.families:
        for n in halfint_range(half(-6), half(6), integer=fam.integer_moded):
            gens.append((fam.name, n))

    brackets = {}  # each pair's bracket, fetched once

    def bracket(f1, n1, f2, n2):
        key = (f1, n1.twice, f2, n2.twice)
        got = brackets.get(key)
        if got is None:
            got = brackets[key] = _as_terms(pres, f1, n1, f2, n2, c)
        return got

    def bracket_with_term(f1, n1, target, coeff):
        (f2, n2) = target
        got, central = bracket(f1, n1, f2, n2)
        return {k: coeff * v for k, v in got.items()}, coeff * central

    for (f1, n1) in gens:
        for (f2, n2) in gens:
            for (f3, n3) in gens:
                # [a,[b,c]] = [[a,b],c] + (-1)^{p(a)p(b)} [b,[a,c]]
                lhs: dict = {}
                lhs_central = GaussianRational(0)
                inner, inner_c = bracket(f2, n2, f3, n3)
                for tgt, cf in inner.items():
                    t, tc = bracket_with_term(f1, n1, tgt, cf)
                    for k, v in t.items():
                        lhs[k] = lhs.get(k, GaussianRational(0)) + v
                    lhs_central = lhs_central + tc
                rhs: dict = {}
                rhs_central = GaussianRational(0)
                ab, ab_c = bracket(f1, n1, f2, n2)
                for tgt, cf in ab.items():
                    (fm, idx) = tgt
                    t, tc = bracket(fm, idx, f3, n3)
                    for k, v in t.items():
                        rhs[k] = rhs.get(k, GaussianRational(0)) + cf * v
                    rhs_central = rhs_central + cf * tc
                sgn = -1 if (pres.parity(f1) and pres.parity(f2)) else 1
                ac, ac_c = bracket(f1, n1, f3, n3)
                for tgt, cf in ac.items():
                    t, tc = bracket_with_term(f2, n2, tgt, cf)
                    for k, v in t.items():
                        rhs[k] = rhs.get(k, GaussianRational(0)) + sgn * v
                    rhs_central = rhs_central + sgn * tc
                keys = set(lhs) | set(rhs)
                for k in keys:
                    assert lhs.get(k, GaussianRational(0)) == rhs.get(k, GaussianRational(0)), (
                        (f1, n1), (f2, n2), (f3, n3), k,
                    )
                assert lhs_central == rhs_central, ((f1, n1), (f2, n2), (f3, n3))


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------


def test_gram_examples():
    g = abstract_gram(VIR, LowestWeightData(c=Fraction(7, 5), vacuum_flag=True), half(4))
    assert g.size == 1 and g.entries[0][0] == GaussianRational(Fraction(7, 10))
    g = abstract_gram(NS, LowestWeightData(c=Fraction(3, 2), vacuum_flag=True), half(3))
    assert g.size == 1 and g.entries[0][0] == GaussianRational(1)
    g = abstract_gram(NS, LowestWeightData(c=Fraction(3, 2), vacuum_flag=True), half(0))
    assert g.size == 1 and g.entries[0][0] == GaussianRational(1)


def test_gram_reality_by_family():
    # one-supercharge and plain conformal Grams are real; the two-supercharge
    # family can have genuinely imaginary entries at nonzero charge
    lw = LowestWeightData(c=Fraction(2), h=Fraction(1, 3))
    for pres in (VIR, NS):
        for twice in range(0, 7):
            g = abstract_gram(pres, lw, half(twice))
            assert all(e.im == 0 for row in g.entries for e in row)
    lwq = LowestWeightData(c=Fraction(6), h=Fraction(5, 8), q=Fraction(1))
    found_imag = False
    for twice in range(0, 4):
        g = abstract_gram(N2, lwq, half(twice))
        assert g.is_hermitian()
        found_imag = found_imag or any(e.im != 0 for row in g.entries for e in row)
    assert found_imag


@pytest.mark.parametrize("c", [Fraction(3, 2), Fraction(2), Fraction(9, 2)])
def test_ns_vacuum_gram_psd(c):
    lw = LowestWeightData(c=c, vacuum_flag=True)
    for twice in range(0, 9):
        g = abstract_gram(NS, lw, half(twice))
        assert psd_check(g).psd, (c, twice)


@pytest.mark.parametrize("c", [Fraction(3), Fraction(4), Fraction(15, 2), Fraction(6)])
def test_n2_vacuum_gram_psd(c):
    lw = LowestWeightData(c=c, h=Fraction(0), q=Fraction(0), vacuum_flag=True)
    for twice in range(0, 7):
        g = abstract_gram(N2, lw, half(twice))
        assert psd_check(g).psd, (c, twice)


# ---------------------------------------------------------------------------
# the exact PSD decision procedure
# ---------------------------------------------------------------------------


def G(x):
    return GaussianRational.coerce(x)


def test_psd_examples():
    r = psd_check([[G(1)]])
    assert r.psd and r.pivots == [Fraction(1)]
    r = psd_check([[G(0), G(0)], [G(0), G(1)]])
    assert r.psd and r.pivots == [Fraction(1), Fraction(0)]
    m = [[G(1), G(2)], [G(2), G(1)]]
    r = psd_check(m)
    assert not r.psd
    assert r.witness_value(m) < 0


def test_psd_rejects_non_hermitian():
    with pytest.raises(ValueError):
        psd_check([[G(0), G(1)], [G(2), G(0)]])


def test_psd_rejects_nearly_hermitian_at_the_first_pair():
    """Pairs that differ by 1/10^30 are caught, at the first (i, j) in
    row-major order, for the real and for the imaginary part."""
    tiny = Fraction(1, 10**30)
    third = G(Fraction(1, 3))
    m = [[G(1), third, G(0)], [third, G(2), third], [G(0), third + tiny, G(3)]]
    with pytest.raises(ValueError, match=r"at \(1,2\)"):
        psd_check(m)
    z = GaussianRational(Fraction(1, 3), Fraction(2, 7))
    m = [[G(1), z], [GaussianRational(z.re, -z.im + tiny), G(1)]]
    with pytest.raises(ValueError, match=r"at \(0,1\)"):
        psd_check(m)
    m = [[GaussianRational(1, tiny)]]
    with pytest.raises(ValueError, match=r"at \(0,0\)"):
        psd_check(m)


def test_psd_complex_witness():
    i = GaussianRational(0, 1)
    m = [[G(0), i], [-i, G(0)]]  # hermitian, indefinite
    r = psd_check(m)
    assert not r.psd
    assert r.witness_value(m) < 0


def test_psd_zero_matrix_and_empty():
    r = psd_check([[G(0), G(0)], [G(0), G(0)]])
    assert r.psd and r.pivots == [Fraction(0), Fraction(0)]
    assert psd_check([]).psd


def _dense_psd(entries):
    """Reference: pivoted Hermitian elimination over Fraction, with the
    same pivot rule, pivots and witness construction as psd_check."""
    n = len(entries)
    a = [[GaussianRational.coerce(entries[i][j]) for j in range(n)] for i in range(n)]
    active = list(range(n))
    pivots = []
    history = []

    def backtransform(seed):
        v = dict(seed)
        for p, mults in reversed(history):
            acc = v.get(p, GaussianRational(0))
            for i, mult in mults.items():
                if i in v:
                    acc = acc - mult.conjugate() * v[i]
            if acc.is_zero():
                v.pop(p, None)
            else:
                v[p] = acc
        return [v.get(i, GaussianRational(0)) for i in range(n)]

    while active:
        diag = [(a[i][i].real_part(), i) for i in active]
        best_val = max(d for d, _ in diag)
        best_idx = min(i for d, i in diag if d == best_val)
        if best_val > 0:
            p = best_idx
            d = a[p][p].real_part()
            pivots.append(d)
            active.remove(p)
            mults = {i: a[i][p] / GaussianRational(d) for i in active if not a[i][p].is_zero()}
            for i in active:
                mi = mults.get(i)
                if mi is not None:
                    for j in active:
                        a[i][j] = a[i][j] - mi * a[p][j]
            for i in active:
                a[i][p] = GaussianRational(0)
            history.append((p, mults))
            continue
        negative = [i for d, i in diag if d < 0]
        if negative:
            i = min(negative)
            pivots.append(a[i][i].real_part())
            return False, pivots, backtransform({i: GaussianRational(1)})
        offdiag = [(i, j) for ii, i in enumerate(active) for j in active[ii + 1 :] if not a[i][j].is_zero()]
        if offdiag:
            r, s = offdiag[0]
            return False, pivots, backtransform({r: -a[r][s], s: GaussianRational(1)})
        return True, pivots + [Fraction(0)] * len(active), None
    return True, pivots, None


def _dense_witness_value(witness, entries):
    n = len(witness)
    total = GaussianRational(0)
    for i in range(n):
        for j in range(n):
            total = total + witness[i].conjugate() * entries[i][j] * witness[j]
    return total.real_part()


def _random_hermitian(rng, kind, n):
    def q():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5, 7)))

    m = [[GaussianRational(0)] * n for _ in range(n)]
    if kind == "rank-deficient":
        # a sum of fewer than n rank-one terms v v^H: PSD and singular
        for _ in range(rng.randint(0, n - 1)):
            v = [GaussianRational(q(), q()) if rng.random() < 0.7 else GaussianRational(0) for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    m[i][j] = m[i][j] + v[i] * v[j].conjugate()
        return m
    for i in range(n):
        m[i][i] = GaussianRational(q() if rng.random() < 0.8 else 0)
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                z = GaussianRational(q(), q() if kind == "complex" else 0)
                m[i][j], m[j][i] = z, z.conjugate()
    return m


def test_psd_matches_dense_reference_on_random_matrices():
    """Fraction-free Z[i] elimination against the Fraction reference on
    300 seeded Hermitian matrices: verdict, pivots, witness and value."""
    rng = random.Random(20261018)
    outcomes = set()
    for kind in ("complex", "indefinite", "rank-deficient"):
        for _ in range(100):
            m = _random_hermitian(rng, kind, rng.randint(1, 7))
            psd, pivots, witness = _dense_psd(m)
            got = psd_check(m)
            assert (got.psd, got.pivots, got.witness) == (psd, pivots, witness), m
            if psd:
                outcomes.add("psd, singular" if Fraction(0) in pivots else "psd")
            else:
                value = got.witness_value(m)
                assert value == _dense_witness_value(witness, m) and value < 0, m
                outcomes.add("negative pivot" if pivots and pivots[-1] < 0 else "off-diagonal")
    assert outcomes == {"psd", "psd, singular", "negative pivot", "off-diagonal"}


def test_psd_matches_dense_reference_on_grams():
    lw = LowestWeightData(c=Fraction(-3), h=Fraction(1, 8), q=Fraction(-1, 8))
    for pres, point, top in ((N2, lw, 6), (NS, LowestWeightData(c=Fraction(-6), h=Fraction(3, 8)), 8)):
        for twice in range(0, top + 1):
            gram = abstract_gram(pres, point, half(twice))
            got = psd_check(gram)
            assert (got.psd, got.pivots, got.witness) == _dense_psd(gram.entries), twice


# ---------------------------------------------------------------------------
# unitarity boundaries, with verdicts from closed forms
# ---------------------------------------------------------------------------


def test_virasoro_ising_point_fails_at_level_2():
    """c = 1/2, h = 1/4 lies off the unitary list (h in {0, 1/16, 1/2}).
    The level-2 determinant 32h(h^2 + (c-5)h/8 + c/16) is -3/8 there,
    while levels 0 and 1 have the positive Grams 1 and 2h."""
    c, h = Fraction(1, 2), Fraction(1, 4)
    assert 32 * h * (h * h + (c - 5) * h / 8 + c / 16) == Fraction(-3, 8)
    lw = LowestWeightData(c=c, h=h)
    assert psd_check(abstract_gram(VIR, lw, half(0))).psd
    assert psd_check(abstract_gram(VIR, lw, half(2))).psd
    gram = abstract_gram(VIR, lw, half(4))
    result = psd_check(gram)
    assert not result.psd
    assert result.witness_value(gram.entries) < 0
    product = Fraction(1)
    for pivot in result.pivots:
        product *= pivot
    assert product == Fraction(-3, 8)


def test_n2_vacuum_at_negative_charge_fails_at_level_1():
    """At c = -3 the only level-1 vacuum word is J_{-1}, of norm c/3 = -1."""
    gram = abstract_gram(N2, LowestWeightData(c=Fraction(-3), h=Fraction(0), q=Fraction(0), vacuum_flag=True), half(2))
    assert gram.entries == [[GaussianRational(-1)]]
    result = psd_check(gram)
    assert not result.psd and result.pivots == [Fraction(-1)]
    assert result.witness_value(gram.entries) == -1


def test_discrete_series():
    assert [discrete_series("vir", p) for p in (3, 4, 5)] == [Fraction(1, 2), Fraction(7, 10), Fraction(4, 5)]
    assert [discrete_series("ns", p) for p in (3, 4, 5)] == [Fraction(7, 10), Fraction(1), Fraction(81, 70)]
    assert [discrete_series("n2", p) for p in (3, 4, 5)] == [Fraction(1), Fraction(3, 2), Fraction(9, 5)]
    with pytest.raises(ValueError):
        discrete_series("vir", 1)
    with pytest.raises(ValueError):
        discrete_series("w3", 3)


# ---------------------------------------------------------------------------
# reference: the hand-written bracket functions the bracket table replaced
# ---------------------------------------------------------------------------

_I = GaussianRational(0, 1)


def _reference_vir_terms(f1, n1, f2, n2, c):
    m, n = n1.as_fraction(), n2.as_fraction()
    terms = (("L", n1 + n2, GaussianRational(m - n)),)
    central = GaussianRational(c * (m**3 - m) / 12) if n1 + n2 == 0 else GaussianRational(0)
    return terms, central


def _reference_ns_bracket(f1, n1, f2, n2, c):
    m, n = n1.as_fraction(), n2.as_fraction()
    zero = GaussianRational(0)
    if (f1, f2) == ("L", "L"):
        return _reference_vir_terms(f1, n1, f2, n2, c)
    if (f1, f2) == ("L", "G"):
        return ((("G", n1 + n2, GaussianRational(m / 2 - n)),), zero)
    if (f1, f2) == ("G", "L"):
        return ((("G", n1 + n2, GaussianRational(m - n / 2)),), zero)
    central = GaussianRational(c / 3 * (m**2 - Fraction(1, 4))) if n1 + n2 == 0 else zero
    return ((("L", n1 + n2, GaussianRational(2)),), central)


def _reference_n2_bracket(f1, n1, f2, n2, c):
    m, n = n1.as_fraction(), n2.as_fraction()
    zero = GaussianRational(0)
    k = n1 + n2
    pair = (f1, f2)
    if pair == ("L", "L"):
        return _reference_vir_terms(f1, n1, f2, n2, c)
    if f1 == "L" and f2 in ("G1", "G2"):
        return (((f2, k, GaussianRational(m / 2 - n)),), zero)
    if f1 in ("G1", "G2") and f2 == "L":
        return (((f1, k, GaussianRational(m - n / 2)),), zero)
    if pair in (("G1", "G1"), ("G2", "G2")):
        central = GaussianRational(c / 3 * (m**2 - Fraction(1, 4))) if k == 0 else zero
        return ((("L", k, GaussianRational(2)),), central)
    if pair == ("G1", "G2"):
        return ((("J", k, _I * (m - n)),), zero)
    if pair == ("G2", "G1"):
        return ((("J", k, _I * (n - m)),), zero)
    if pair == ("G1", "J"):
        return ((("G2", k, -_I),), zero)
    if pair == ("J", "G1"):
        return ((("G2", k, _I),), zero)
    if pair == ("G2", "J"):
        return ((("G1", k, _I),), zero)
    if pair == ("J", "G2"):
        return ((("G1", k, -_I),), zero)
    if pair == ("L", "J"):
        return ((("J", k, GaussianRational(-n)),), zero)
    if pair == ("J", "L"):
        return ((("J", k, GaussianRational(m)),), zero)
    central = GaussianRational(c / 3 * m) if k == 0 else zero
    return ((), central)


@pytest.mark.parametrize("pres,reference", [(VIR, _reference_vir_terms), (NS, _reference_ns_bracket),
                                            (N2, _reference_n2_bracket)], ids=["vir", "ns", "n2"])
def test_bracket_table_matches_reference_functions(pres, reference):
    """Every ordered family pair at |m|, |n| <= 6 and three central charges:
    the table's terms, indices, coefficients and central terms equal the
    hand-written brackets exactly."""
    checked = 0
    for c in (Fraction(7, 3), Fraction(-3), Fraction(0)):
        for fam1 in pres.families:
            for fam2 in pres.families:
                for n1 in halfint_range(half(-12), half(12), integer=fam1.integer_moded):
                    for n2 in halfint_range(half(-12), half(12), integer=fam2.integer_moded):
                        got = pres.bracket(fam1.name, n1, fam2.name, n2, c)
                        assert got == reference(fam1.name, n1, fam2.name, n2, c), (fam1.name, n1, fam2.name, n2, c)
                        assert all(type(z) is GaussianRational for z in (got[1], *(cf for *_, cf in got[0])))
                        checked += 1
    assert checked == {"virasoro": 507, "ns": 1875, "n2": 7500}[pres.name]


def test_bracket_rejects_unknown_family_pairs():
    for pres, pair in ((VIR, ("L", "G")), (NS, ("G", "J")), (N2, ("G", "L"))):
        with pytest.raises(ValueError, match="unknown family pair"):
            pres.bracket(pair[0], half(0 if pair[0] in ("L", "J") else 1), pair[1], half(1), Fraction(1))
