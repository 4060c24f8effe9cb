"""The checking engine: relation residuals, adjoint identities, Gram
matrices computed two independent ways, and mode-commutator consistency
against the weighted binomial expansion of the bracket coefficients.

All residuals are exact rationals; a check passes only when its
residuals are identically zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional

from .fock import FockState, FockVector, StateTable, enumerate_basis, inner_product, state_norm_sq, state_table
from .halfint import HalfInt, half, halfint_range
from .oscillators import ModeOperator
from .realizations import RealizationParams, make_mode, realize_word
from .scalars import ZERO, GaussianRational, binom, format_rational
from .superalg import (
    GramMatrix,
    LowestWeightData,
    abstract_gram,
    family_presentation,
    free_field_presentation,
    pbw_words,
    vacuum_expectation,
)


def _gaussian(re: int, im: int, denom: int) -> GaussianRational:
    return GaussianRational(Fraction(re, denom), Fraction(im, denom))


class _Record:
    """A mutable record over its __slots__: equal when every field is,
    unhashable, with the repr NAME(field=value, ...)."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class ResidualEntry(_Record):
    """One checked identity: indices, exact residual, optional witness."""

    __slots__ = ("name", "indices", "residual", "detail")

    def __init__(self, name: str, indices: tuple, residual: Fraction, detail: Optional[str] = None):
        self.name = name
        self.indices = indices
        self.residual = residual
        self.detail = detail

    @property
    def ok(self) -> bool:
        return self.residual == 0


class CheckReport(_Record):
    __slots__ = ("check", "params", "entries", "expect_failure")

    def __init__(self, check: str, params: dict, entries: Optional[list[ResidualEntry]] = None,
                 expect_failure: bool = False):
        self.check = check
        self.params = params
        self.entries = [] if entries is None else entries
        self.expect_failure = expect_failure

    @property
    def passed(self) -> bool:
        clean = all(e.ok for e in self.entries)
        return (not clean) if self.expect_failure else clean

    def worst(self) -> Fraction:
        return max((e.residual for e in self.entries), default=Fraction(0))

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "status": "PASS" if self.passed else "FAIL",
            "expected_failure_control": self.expect_failure,
            "entries": [
                {
                    "name": e.name,
                    "indices": [str(i) for i in e.indices],
                    "residual": format_rational(e.residual),
                    **({"detail": e.detail} if e.detail else {}),
                }
                for e in self.entries
            ],
        }


def _relation_defect(a: ModeOperator, b: ModeOperator, rhs: list, central, table: StateTable):
    """([a, b] - sum_i c_i C_i - central) on the states of `table`, for the
    super-commutator [a, b] and rhs = [(c_i, C_i), ...].

    Returns (L, defect): defect(sid) maps state ids to the Gaussian-integer
    numerators [re, im] of the defect of state sid over the common
    denominator L.  Every term is added in Python ints straight from the
    memoized integer columns, read from the operators' memos and built
    only on a miss; no intermediate vector is built.
    """
    sign = -1 if (a.parity and b.parity) else 1
    scalars = [GaussianRational.coerce(cf) * Fraction(-1, op.denom) for cf, op in rhs]
    scalars.append(-GaussianRational.coerce(central))
    denom = lcm(a.denom * b.denom, *(x.denominator for z in scalars for x in (z.re, z.im)))
    *rhs_num, (zr, zi) = [(int(z.re * denom), int(z.im * denom)) for z in scalars]
    ab = denom // (a.denom * b.denom)
    memo_a, memo_b = a.memo(table), b.memo(table)
    products = ((b, memo_b, a, memo_a, ab), (a, memo_a, b, memo_b, -sign * ab))

    def defect(sid: int) -> dict[int, list[int]]:
        acc: dict[int, list[int]] = {sid: [zr, zi]}
        for first, first_memo, second, second_memo, k in products:
            column = first_memo.get(sid)
            if column is None:
                column = first.column(table, sid)
            for t, r1, i1 in column:
                r1, i1 = k * r1, k * i1
                image = second_memo.get(t)
                if image is None:
                    image = second.column(table, t)
                for u, r2, i2 in image:
                    entry = acc.setdefault(u, [0, 0])
                    entry[0] += r1 * r2 - i1 * i2
                    entry[1] += r1 * i2 + i1 * r2
        for (mr, mi), (_, op) in zip(rhs_num, rhs):
            for u, r, i in op.column(table, sid):
                entry = acc.setdefault(u, [0, 0])
                entry[0] += mr * r - mi * i
                entry[1] += mr * i + mi * r
        return acc

    return denom, defect


def _relation_residual(a: ModeOperator, b: ModeOperator, rhs: list, central, table: StateTable,
                       ids: list[int]) -> tuple[Fraction, Optional[str]]:
    """Sum over the states `ids` of |defect|^2 (see _relation_defect), and
    the first state, in the order of `ids`, whose defect is nonzero."""
    denom, defect = _relation_defect(a, b, rhs, central, table)
    norms = table.norms
    total = 0
    witness = None
    for sid in ids:
        size = sum((re * re + im * im) * norms[u] for u, (re, im) in defect(sid).items())
        if size:
            total += size
            if witness is None:
                witness = repr(table.states[sid])
    return Fraction(total, denom * denom), witness


def lowest_weight_data(params: RealizationParams) -> LowestWeightData:
    return LowestWeightData(
        c=params.central_charge(),
        h=params.lowest_weight(),
        q=params.charge() if params.family == "n2" else None,
        vacuum_flag=params.is_vacuum_like(),
    )


# ---------------------------------------------------------------------------
# the Fock pairing re-derived from the mode relations
# ---------------------------------------------------------------------------


def fock_pairing_crosscheck(content, max_weight: HalfInt) -> CheckReport:
    """Re-derive the diagonal inner product by adjoint reduction.

    Every basis state is written as its PBW word in the free modes; all
    pairings of words up to the cutoff, also of different weight, are
    reduced with the free-field bracket table alone and compared against
    the diagonal Fock pairing.
    """
    max_weight = HalfInt(max_weight)
    basis = enumerate_basis(content, max_weight)
    pres = free_field_presentation(content.bosons, content.fermions)
    point = LowestWeightData(c=Fraction(0))
    # a state's modes are stored in PBW order, so it is its word as is
    words = [
        tuple((f"J{species}", half(-2 * m)) for species, modes in enumerate(state.bosons) for m in modes)
        + tuple((f"F{species}", half(-t)) for species, modes in enumerate(state.fermions) for t in modes)
        for state in basis
    ]

    report = CheckReport("fock_pairing_crosscheck", {"cutoff": str(max_weight)})
    residual = Fraction(0)
    witness = None
    for s, word_s in zip(basis, words):
        for t, word_t in zip(basis, words):
            direct = state_norm_sq(s) if s == t else 0
            reduced = vacuum_expectation(word_s, word_t, point, pres)
            if reduced != direct:
                residual += (reduced - direct).norm_sq()
                if witness is None:
                    witness = f"{s!r} | {t!r}: diagonal={direct} reduced={reduced}"
    report.entries.append(ResidualEntry("pairing", (), residual, witness))
    return report


# ---------------------------------------------------------------------------
# commutation relations
# ---------------------------------------------------------------------------


def check_relations(
    params: RealizationParams, mode_window: int, weight_cutoff: HalfInt
) -> CheckReport:
    """Residuals of every structural relation on a truncated basis.

    For each pair of generator families and all mode indices with
    |index| <= mode_window, the super-commutator of the realized modes
    is applied to every basis state of weight <= weight_cutoff and
    compared with the right-hand side of the presentation, with the
    central charge instantiated at c(kappa).
    """
    if mode_window < 1:
        raise ValueError("mode_window must be at least 1")
    weight_cutoff = HalfInt(weight_cutoff)
    pres = family_presentation(params.family)
    table = state_table(params.content)
    ids = [table.id_of(s) for s in enumerate_basis(params.content, weight_cutoff)]
    c = params.central_charge()
    report = CheckReport("relations", {**params.to_config(), "window": mode_window, "cutoff": str(weight_cutoff)})
    lo, hi = half(-2 * mode_window), half(2 * mode_window)
    for f1, f2 in pres.family_pairs():
        for n1 in halfint_range(lo, hi, integer=pres.integer_moded(f1)):
            a = make_mode(params, f1, n1)
            for n2 in halfint_range(lo, hi, integer=pres.integer_moded(f2)):
                b = make_mode(params, f2, n2)
                terms, central = pres.bracket(f1, n1, f2, n2, c)
                rhs_ops = [(cf, make_mode(params, fam, idx)) for fam, idx, cf in terms]
                residual, witness = _relation_residual(a, b, rhs_ops, central, table, ids)
                report.entries.append(
                    ResidualEntry(f"[{f1},{f2}]", (n1, n2), residual, witness)
                )
    return report


def measure_central_charge(params: RealizationParams) -> Fraction:
    """2 <vac, ([L_2, L_-2] - 4 L_0) vac>, read off from the realization."""
    table = state_table(params.content)
    vac = table.id_of(FockState.vacuum(params.content))
    l2 = make_mode(params, "L", half(4))
    lm2 = make_mode(params, "L", half(-4))
    l0 = make_mode(params, "L", half(0))
    denom, defect = _relation_defect(l2, lm2, [(4, l0)], 0, table)
    re, im = defect(vac).get(vac, (0, 0))  # <vac, v> = v_vac, the vacuum has norm 1
    return (2 * _gaussian(re, im, denom)).real_part()


# ---------------------------------------------------------------------------
# weak (paired) adjoint identities
# ---------------------------------------------------------------------------


def _adjoint_defect(
    params: RealizationParams,
    role: str,
    pair: tuple[HalfInt, HalfInt] | HalfInt,
    basis: list[FockState],
) -> tuple[Fraction, Optional[str]]:
    """Residual of <D u, v> = <u, D' v> over a basis, where D is either a
    paired difference A_n - (-1)^(n-m) A_m (pair) or a bare mode A_n."""
    if isinstance(pair, tuple):
        n, m = pair
        sgn = -1 if (n - m).as_int() % 2 else 1
        modes, label = ((n, 1), (m, -sgn)), f"{role}({n},{m})"
    else:
        modes, label = ((pair, 1),), f"{role}({pair})"
    d = [(make_mode(params, role, x), sign) for x, sign in modes]
    d_adj = [(make_mode(params, role, -x), sign) for x, sign in modes]
    # only nonzero matrix elements: <D u, v> = conj((D u)_v) N(v) and
    # <u, D' v> = (D' v)_u N(u), summed from the memoized mode columns as
    # Gaussian-integer numerators over denom into pairs[(u, v)] = [lhs, rhs]
    table = state_table(params.content)
    ids = [table.id_of(s) for s in basis]
    index = {sid: i for i, sid in enumerate(ids)}
    norms = table.norms
    denom = lcm(*(op.denom for op, _ in d + d_adj))
    pairs: dict[tuple[int, int], list[int]] = {}
    for ops, side, conj in ((d, 0, -1), (d_adj, 2, 1)):
        for op, sign in ops:
            k = sign * (denom // op.denom)
            for i, w in enumerate(ids):
                for s, re, im in op.column(table, w):
                    j = index.get(s)
                    if j is not None:
                        entry = pairs.setdefault((i, j) if side == 0 else (j, i), [0, 0, 0, 0])
                        entry[side] += k * re * norms[s]
                        entry[side + 1] += conj * k * im * norms[s]
    total = 0
    witness = None
    for (i, j), (lr, li, rr, ri) in sorted(pairs.items()):
        if lr != rr or li != ri:
            total += (lr - rr) ** 2 + (li - ri) ** 2
            if witness is None:
                left, right = _gaussian(lr, li, denom), _gaussian(rr, ri, denom)
                witness = f"{label}: u={basis[i]!r} v={basis[j]!r} lhs={left} rhs={right}"
    return Fraction(total, denom * denom), witness


def check_weak_symmetry(
    params: RealizationParams,
    pairs: list[tuple[HalfInt, HalfInt]],
    weight_cutoff: HalfInt,
) -> CheckReport:
    """Paired adjoint identities for the tail-deformed variant.

    For each (n, m) with n - m an integer, checks exactly that
      <(A_n - (-1)^(n-m) A_m) u, v> = <u, (A_-n - (-1)^(n-m) A_-m) v>
    on all basis u, v up to the cutoff, for A every generator family of
    the realization.  Single modes are NOT symmetric for this variant; see
    single_mode_symmetry_control.
    """
    if params.variant != "bs":
        raise ValueError("weak symmetry pairing is specific to the tail-deformed (bs) variant")
    basis = enumerate_basis(params.content, HalfInt(weight_cutoff))
    pres = family_presentation(params.family)
    report = CheckReport(
        "weak_symmetry", {**params.to_config(), "cutoff": str(HalfInt(weight_cutoff))}
    )
    for role in params.roles():
        integer = pres.integer_moded(role)
        for n, m in pairs:
            n, m = HalfInt(n), HalfInt(m)
            if integer != n.is_integer or integer != m.is_integer:
                continue  # pair lives on the other lattice; a kept pair has n - m integral
            residual, witness = _adjoint_defect(params, role, (n, m), basis)
            report.entries.append(ResidualEntry(f"paired:{role}", (n, m), residual, witness))
    return report


def single_mode_symmetry_control(
    params: RealizationParams, role: str, n: HalfInt, weight_cutoff: HalfInt
) -> CheckReport:
    """Expected-failure control: a bare mode of the tail-deformed variant
    is not symmetric; this check must FAIL (nonzero residual) and the
    report records a violating matrix element."""
    if params.variant != "bs":
        raise ValueError("the symmetry control targets the bs variant")
    if params.kappa == 0:
        raise ValueError("the control needs kappa != 0 (kappa = 0 modes are symmetric)")
    basis = enumerate_basis(params.content, HalfInt(weight_cutoff))
    residual, witness = _adjoint_defect(params, role, HalfInt(n), basis)
    report = CheckReport(
        "single_mode_symmetry_control",
        {**params.to_config(), "role": role, "n": str(HalfInt(n)), "cutoff": str(HalfInt(weight_cutoff))},
        expect_failure=True,
    )
    report.entries.append(ResidualEntry(f"bare:{role}", (HalfInt(n),), residual, witness))
    return report


# ---------------------------------------------------------------------------
# Gram matrices and the oracle comparison
# ---------------------------------------------------------------------------


def gram_freefield(params: RealizationParams, level: HalfInt) -> GramMatrix:
    """Gram matrix of the cyclic words at one level, via the Fock pairing."""
    level = HalfInt(level)
    pres = family_presentation(params.family)
    words = pbw_words(pres, level, drop_vacuum_annihilators=params.is_vacuum_like())
    vectors = [realize_word(params, w) for w in words]
    entries = [[inner_product(vi, vj) for vj in vectors] for vi in vectors]
    gram = GramMatrix(level, list(words), entries)
    if not gram.is_hermitian():
        raise AssertionError("free-field Gram failed its Hermiticity check")
    return gram


def oracle_compare(params: RealizationParams, max_level: HalfInt) -> CheckReport:
    """Word inner products in Fock space vs. the abstract reduction.

    The two computations share nothing but the word list: one applies
    concrete mode operators and the diagonal Fock pairing, the other
    reduces words with the commutation relations, the adjoint rule and
    the lowest-weight data.  Exact equality at every level is the
    computational content of the unitarity statements.
    """
    max_level = HalfInt(max_level)
    pres = family_presentation(params.family)
    lw = lowest_weight_data(params)
    report = CheckReport(
        "oracle_compare", {**params.to_config(), "max_level": str(max_level), "c": str(lw.c), "h": str(lw.h)}
    )
    for twice in range(0, max_level.twice + 1):
        level = half(twice)
        free = gram_freefield(params, level)
        ab = abstract_gram(pres, lw, level)
        if free.words != ab.words:
            raise AssertionError("word enumerations diverged between the two Gram routes")
        residual = Fraction(0)
        witness = None
        for i in range(free.size):
            for j in range(free.size):
                diff = free.entries[i][j] - ab.entries[i][j]
                if not diff.is_zero():
                    residual += diff.norm_sq()
                    if witness is None:
                        witness = f"words {free.words[i]} | {free.words[j]}: fock={free.entries[i][j]} abstract={ab.entries[i][j]}"
        report.entries.append(ResidualEntry("gram", (level,), residual, witness))
    return report


# ---------------------------------------------------------------------------
# mode-commutator consistency with the binomial (state-field) expansion
# ---------------------------------------------------------------------------


def borcherds_consistency(
    params: RealizationParams, m: HalfInt, n: HalfInt, weight_cutoff: HalfInt
) -> CheckReport:
    """[G_m, G_n] against the weighted binomial sum of product vectors.

    The products G_(j) applied to the generator vector are computed
    concretely by mode operators; each resulting vector is recognized as
    an exact multiple of a known generator vector (2*nu at j = 0, a
    multiple of the vacuum at j = 2, zero otherwise), and the commutator
    must equal  sum_j  C(m + 1/2, j) * (that vector's mode at m + n).
    Only the ns family with a vacuum-like cyclic vector supports this
    identification.
    """
    if params.family != "ns":
        raise ValueError("mode-commutator consistency is implemented for the ns family")
    if not params.is_vacuum_like():
        raise ValueError("needs a vacuum-like cyclic vector (tilde/bs variants)")
    m, n = HalfInt(m), HalfInt(n)
    vac = FockVector.vacuum(params.content)
    g = lambda idx: make_mode(params, "G", idx)
    tau = g(half(-3))(vac)
    products = [g(half(2 * j - 1))(tau) for j in range(5)]  # G_(j) tau = G_{j-1/2} tau

    report = CheckReport(
        "borcherds_consistency",
        {**params.to_config(), "m": str(m), "n": str(n), "cutoff": str(HalfInt(weight_cutoff))},
    )

    # recognize the product vectors
    nu = make_mode(params, "L", half(-4))(vac)
    nu_sq = inner_product(nu, nu)
    alpha = inner_product(nu, products[0]) / nu_sq
    rec_residual = (products[0] - nu.scale(alpha)).norm_sq()
    rec_residual += products[1].norm_sq()  # 2 L_{-1} vac = 0 here
    gamma = inner_product(vac, products[2])
    rec_residual += (products[2] - vac.scale(gamma)).norm_sq()
    rec_residual += products[3].norm_sq()  # 2 L_1 vac = 0
    rec_residual += products[4].norm_sq()  # products vanish from j = 3 on
    report.entries.append(ResidualEntry("product_vectors", (), rec_residual))

    table = state_table(params.content)
    ids = [table.id_of(s) for s in enumerate_basis(params.content, HalfInt(weight_cutoff))]
    k = m + n
    rhs_ops = [(alpha, make_mode(params, "L", k))] if k.is_integer else []
    central = gamma * binom(m.as_fraction() + Fraction(1, 2), 2) if k == 0 else ZERO
    residual, witness = _relation_residual(g(m), g(n), rhs_ops, central, table, ids)
    report.entries.append(ResidualEntry("commutator", (m, n), residual, witness))
    return report
