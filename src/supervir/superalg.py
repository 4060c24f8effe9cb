"""Abstract super-Virasoro presentations and lowest-weight Gram matrices.

A Presentation stores generator families with their mode lattices and
parities plus the structural bracket.  Everything downstream is exact:
vacuum expectations reduce interned words with the relations and the
adjoint rule A_n^dagger = A_{-n} in Python ints; Gram matrices are
tested for positive semidefiniteness by pivoted fraction-free
elimination over Z[i].
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterator, NamedTuple, Optional

from .halfint import HalfInt, half
from .scalars import ONE, ZERO, GaussianRational

_I = GaussianRational(0, 1)

# a word is a tuple of (family, index) pairs with negative indices,
# canonically ordered (family blocks in order, labels weakly/strictly
# decreasing within even/odd blocks)
Word = tuple[tuple[str, HalfInt], ...]


class GeneratorFamily(NamedTuple):
    name: str
    parity: int  # 0 even, 1 odd
    integer_moded: bool


class LowestWeightData(NamedTuple("LowestWeightData", [("c", Fraction), ("h", Fraction), ("q", Optional[Fraction]),
                                                        ("vacuum_flag", bool)])):
    """Central charge, lowest weight, optional charge, and whether the
    cyclic vector is also killed by L_{-1} and the G_{-1/2} modes."""

    __slots__ = ()

    def __new__(cls, c: Fraction, h: Fraction = Fraction(0), q: Optional[Fraction] = None,
                vacuum_flag: bool = False):
        if vacuum_flag and (h != 0 or (q or 0) != 0):
            raise ValueError("vacuum_flag requires h = 0 (and q = 0)")
        return super().__new__(cls, c, h, q, vacuum_flag)


class Presentation:
    """Generator families plus the structural super-bracket.

    The bracket is a table keyed by the ordered family pair, each row
    (target family or None, coefficient(m, n), central(c, m) or None).
    bracket(f1, n1, f2, n2, c) reads it as (terms, central), where terms
    is a tuple of (family, index, coefficient) and central multiplies
    the identity.

    The reduction works on interned words: each generator (family, twice
    its index) gets a small int id the first time it is met, with its
    family name, parity, family rank, twice-index and the id of its
    adjoint A_{-n} kept in arrays, so a word is a tuple of ints.

    The memos hold the tables of one binding at a time, a binding being
    the LowestWeightData together with the bracket the reduction calls
    (`self.bracket`, compared with ==): a call at another point or with
    another bracket drops the old tables, so a parameter sweep keeps one
    point in memory.  Every memoized coefficient is a Gaussian integer
    (re, im) over an implicit power of the binding's denominator D (see
    _bind and _reduce).
    """

    def __init__(self, name: str, families: tuple[GeneratorFamily, ...], brackets: dict):
        self.name = name
        self.families = families
        self._rank = {fam.name: i for i, fam in enumerate(families)}
        self._parity = {fam.name: fam.parity for fam in families}
        self._integer = {fam.name: fam.integer_moded for fam in families}
        self._brackets = brackets
        # interned generators: (family, twice) -> id, and per-id arrays
        self._ids: dict[tuple[str, int], int] = {}
        self._gen_family: list[str] = []
        self._gen_parity: list[int] = []
        self._gen_rank: list[int] = []
        self._gen_twice: list[int] = []
        self._gen_adjoint: list[int] = []
        self._memo_lw: Optional[LowestWeightData] = None
        self._memo_bracket = None
        self._denominator = 1  # D of the bound point
        self._bracket_cache: dict = {}  # (generator, head) -> scaled bracket of the pair
        self._reduce_cache: dict = {}  # (generator, word) -> {word': (re, im)}
        self._right_cache: dict = {}  # word -> {word': (re, im)}, the word on the cyclic vector
        self._expect_cache: dict = {}  # (left word, reduced word) -> (re, im) of <left.vac, word.vac>

    def _bind(self, lw: LowestWeightData) -> None:
        """Make the memos those of `lw` and the current bracket.

        On a new binding the old tables are dropped and D becomes
        lcm(4, 12 den c, den h, den q): for the four built-in tables
        (three algebras and the free field), D times a bracket
        coefficient (halved for an odd square), D^2 times a central term,
        and D times h or q are Gaussian integers.  The free field is bound
        at c = 0, where D = 12 clears its central terms m D^2 and D^2.
        """
        bracket = self.bracket
        if (lw is self._memo_lw or lw == self._memo_lw) and bracket == self._memo_bracket:
            return
        for memo in (self._bracket_cache, self._reduce_cache, self._right_cache, self._expect_cache):
            memo.clear()
        self._memo_lw, self._memo_bracket = lw, bracket
        self._denominator = lcm(4, 12 * lw.c.denominator, lw.h.denominator, (lw.q or 0).denominator)

    def _gen(self, family: str, twice: int) -> int:
        """The id of generator (family, twice/2), interned with its adjoint."""
        gid = self._ids.get((family, twice))
        if gid is None:
            gid = self._ids[(family, twice)] = len(self._gen_family)
            self._gen_family.append(family)
            self._gen_parity.append(self._parity[family])
            self._gen_rank.append(self._rank[family])
            self._gen_twice.append(twice)
            self._gen_adjoint.append(gid)
            self._gen_adjoint[gid] = self._gen(family, -twice)
        return gid

    def _word_ids(self, word: Word) -> tuple[int, ...]:
        ids = self._ids
        try:
            return tuple([ids[fam, n.twice] for fam, n in word])
        except KeyError:
            return tuple([self._gen(fam, n.twice) for fam, n in word])

    def parity(self, family: str) -> int:
        return self._parity[family]

    def integer_moded(self, family: str) -> bool:
        return self._integer[family]

    def rank(self, family: str) -> int:
        return self._rank[family]

    def bracket(self, f1: str, n1: HalfInt, f2: str, n2: HalfInt, c: Fraction):
        row = self._brackets.get((f1, f2))
        if row is None:
            raise ValueError(f"unknown family pair {(f1, f2)}")
        target, coefficient, central = row
        m, n = n1.as_fraction(), n2.as_fraction()
        k = n1 + n2
        terms = ((target, k, GaussianRational.coerce(coefficient(m, n))),) if target else ()
        return terms, GaussianRational(central(c, m) if central and k == 0 else 0)

    def family_pairs(self) -> Iterator[tuple[str, str]]:
        for i, fam1 in enumerate(self.families):
            for fam2 in self.families[i:]:
                yield fam1.name, fam2.name


# ---------------------------------------------------------------------------
# the three presentations
# ---------------------------------------------------------------------------


# (family, family) -> (target family or None, coefficient(m, n), central(c, m)
# or None): [A_m, B_n] = coefficient * T_{m+n} + delta(m+n, 0) central
_VIR_ROWS = {("L", "L"): ("L", lambda m, n: m - n, lambda c, m: c * (m**3 - m) / 12)}


def _superconformal_rows(odd: tuple[str, ...]) -> dict:
    """The Virasoro row plus the L-G and G-G rows of each odd family."""
    rows = dict(_VIR_ROWS)
    for g in odd:
        rows[("L", g)] = (g, lambda m, n: m / 2 - n, None)
        rows[(g, "L")] = (g, lambda m, n: m - n / 2, None)
        rows[(g, g)] = ("L", lambda m, n: 2, lambda c, m: c / 3 * (m**2 - Fraction(1, 4)))
    return rows


_NS_ROWS = _superconformal_rows(("G",))
_N2_ROWS = {
    **_superconformal_rows(("G1", "G2")),
    ("G1", "G2"): ("J", lambda m, n: _I * (m - n), None),
    ("G2", "G1"): ("J", lambda m, n: _I * (n - m), None),
    ("G1", "J"): ("G2", lambda m, n: -_I, None),
    ("J", "G1"): ("G2", lambda m, n: _I, None),
    ("G2", "J"): ("G1", lambda m, n: _I, None),
    ("J", "G2"): ("G1", lambda m, n: -_I, None),
    ("L", "J"): ("J", lambda m, n: -n, None),
    ("J", "L"): ("J", lambda m, n: m, None),
    ("J", "J"): (None, None, lambda c, m: c / 3 * m),
}

_VIRASORO = Presentation("virasoro", (GeneratorFamily("L", 0, True),), _VIR_ROWS)
_NS = Presentation(
    "ns",
    (GeneratorFamily("L", 0, True), GeneratorFamily("G", 1, False)),
    _NS_ROWS,
)
_N2 = Presentation(
    "n2",
    (
        GeneratorFamily("L", 0, True),
        GeneratorFamily("G1", 1, False),
        GeneratorFamily("G2", 1, False),
        GeneratorFamily("J", 0, True),
    ),
    _N2_ROWS,
)


def presentation_virasoro() -> Presentation:
    return _VIRASORO


def presentation_ns() -> Presentation:
    return _NS


def presentation_n2() -> Presentation:
    return _N2


def free_field_presentation(bosons: int, fermions: int) -> Presentation:
    """The free modes of `bosons` boson and `fermions` fermion species.

    Even families J<s> are integer-moded with [J_m, J_n] = m delta(m, -n),
    odd families F<s> half-odd-moded with {F_m, F_n} = delta(m, -n), and
    every other ordered pair (anti)commutes.  Built fresh on each call, so
    its memos are dropped with it.
    """
    families = tuple(GeneratorFamily(f"J{s}", 0, True) for s in range(bosons))
    families += tuple(GeneratorFamily(f"F{s}", 1, False) for s in range(fermions))
    rows = {(a.name, b.name): (None, None, None) for a in families for b in families}
    for s in range(bosons):
        rows[f"J{s}", f"J{s}"] = (None, None, lambda c, m: m)
    for s in range(fermions):
        rows[f"F{s}", f"F{s}"] = (None, None, lambda c, m: 1)
    return Presentation("free", families, rows)


def family_presentation(family: str) -> Presentation:
    if family == "ns":
        return _NS
    if family == "n2":
        return _N2
    if family in ("vir", "virasoro"):
        return _VIRASORO
    raise ValueError(f"unknown algebra family {family!r}")


# ---------------------------------------------------------------------------
# word reduction against a lowest-weight vector
# ---------------------------------------------------------------------------


def _as_gaussian_integer(value) -> tuple[int, int]:
    """(re, im) of a value scaled by the bound denominator.

    A value that does not scale to a Gaussian integer means D does not
    clear the bracket's denominators; storing a rounded value would be
    silently wrong, so it is an internal defect.
    """
    value = GaussianRational.coerce(value)
    if value.re.denominator != 1 or value.im.denominator != 1:
        raise AssertionError(f"bracket value {value} is not integral over the bound denominator")
    return value.re.numerator, value.im.numerator


def _on_vacuum(pres: Presentation, g: int) -> dict:
    """Generator g applied to the cyclic vector, over D^(1 - len(word'))."""
    lw, fam, twice = pres._memo_lw, pres._gen_family[g], pres._gen_twice[g]
    if twice > 0:
        return {}
    if lw.vacuum_flag and ((fam == "L" and twice == -2) or (pres._gen_parity[g] and twice == -1)):
        return {}
    if twice < 0:
        return {(g,): (1, 0)}
    if pres._gen_parity[g]:
        raise ValueError(f"odd family {fam} has no zero mode")
    # the zero modes L_0 and J_0 read h and q; every other even zero mode
    # (a free boson's J<s>_0) kills the cyclic vector
    value = lw.h if fam == "L" else (lw.q or 0) if fam == "J" else 0
    if not value:
        return {}
    return {(): _as_gaussian_integer(Fraction(value) * pres._denominator)}


def _bracket(pres: Presentation, g: int, head: int) -> tuple:
    """(sign, terms, central) for moving g past head, scaled for the binding.

    g.head = sign head.g + [g, head]; for an odd square g = head the
    swap term is absent (sign 0) and the bracket is halved,
    A_n A_n = (1/2){A_n, A_n}.  terms holds (id, re, im) over D and
    central is (re, im) over D^2, or None.
    """
    key = (g, head)
    cached = pres._bracket_cache.get(key)
    if cached is not None:
        return cached
    parity = pres._gen_parity
    if g == head and parity[g]:
        sign, factor = 0, Fraction(pres._denominator, 2)
    else:
        sign, factor = (-1 if parity[g] and parity[head] else 1), Fraction(pres._denominator)
    terms, central = pres._memo_bracket(
        pres._gen_family[g], half(pres._gen_twice[g]),
        pres._gen_family[head], half(pres._gen_twice[head]), pres._memo_lw.c,
    )
    scaled = tuple(
        (pres._gen(fam, n.twice), *_as_gaussian_integer(cf * factor)) for fam, n, cf in terms if cf
    )
    central_scaled = _as_gaussian_integer(central * (factor * pres._denominator)) if central else None
    cached = pres._bracket_cache[key] = (sign, scaled, central_scaled)
    return cached


def _ok_before(pres: Presentation, g: int, head: int) -> bool:
    """Whether generator g may sit immediately left of head in a PBW word."""
    r1, r2 = pres._gen_rank[g], pres._gen_rank[head]
    if r1 != r2:
        return r1 < r2
    if pres._gen_parity[g]:
        return pres._gen_twice[g] < pres._gen_twice[head]  # strictly decreasing labels
    return pres._gen_twice[g] <= pres._gen_twice[head]


def _accumulate(acc: dict, vec: dict, x: int, y: int) -> None:
    """acc += (x + iy) vec on Gaussian-integer pairs."""
    for word, (a, b) in vec.items():
        re, im = x * a - y * b, x * b + y * a
        old = acc.get(word)
        acc[word] = (re, im) if old is None else (old[0] + re, old[1] + im)


def _nonzero(acc: dict) -> dict:
    return {word: v for word, v in acc.items() if v[0] or v[1]}


def _reduce(pres: Presentation, g: int, word: tuple[int, ...]) -> dict:
    """Normal-order generator g applied to a PBW word on the cyclic vector.

    Returns {word': (re, im)} meaning sum (re + i im) / D^e word' with
    e = len(word) + 1 - len(word'): every generator a bracket or a
    zero mode consumes brings one factor 1/D, so the products of the
    recursion below stay Gaussian integers.
    """
    key = (g, word)
    cached = pres._reduce_cache.get(key)
    if cached is not None:
        return cached
    if not word:
        result = _on_vacuum(pres, g)
    else:
        head = word[0]
        if pres._gen_twice[g] < 0 and _ok_before(pres, g, head):
            result = {(g,) + word: (1, 0)}
        else:
            rest = word[1:]
            sign, terms, central = _bracket(pres, g, head)
            acc: dict = {}
            if sign:
                # g.head.rest = sign head.(g.rest) + [g, head].rest
                for w1, (a, b) in _reduce(pres, g, rest).items():
                    _accumulate(acc, _reduce(pres, head, w1), sign * a, sign * b)
            for f, x, y in terms:
                _accumulate(acc, _reduce(pres, f, rest), x, y)
            if central is not None:
                _accumulate(acc, {rest: central}, 1, 0)
            result = _nonzero(acc)
    pres._reduce_cache[key] = result
    return result


def _right_vector(pres: Presentation, word: tuple[int, ...]) -> dict:
    """word.vac reduced, {word': (re, im)} over D^(len(word) - len(word'))."""
    if not word:
        return {(): (1, 0)}
    cached = pres._right_cache.get(word)
    if cached is None:
        acc: dict = {}
        for w1, (a, b) in _right_vector(pres, word[1:]).items():
            _accumulate(acc, _reduce(pres, word[0], w1), a, b)
        cached = pres._right_cache[word] = _nonzero(acc)
    return cached


def vacuum_expectation(left: Word, right: Word, lw: LowestWeightData, pres: Presentation) -> GaussianRational:
    """<left.vac, right.vac> from the relations and A_n^dagger = A_{-n}."""
    pres._bind(lw)
    left_ids = pres._word_ids(left)
    re = im = 0
    for word, (a, b) in _right_vector(pres, pres._word_ids(right)).items():
        x, y = _expectation(pres, left_ids, word)
        re += a * x - b * y
        im += a * y + b * x
    denominator = pres._denominator ** (len(left) + len(right))
    return GaussianRational(Fraction(re, denominator) if re else 0, Fraction(im, denominator) if im else 0)


def _expectation(pres: Presentation, left: tuple[int, ...], word: tuple[int, ...]) -> tuple[int, int]:
    """<left.vac, word.vac> for a reduced word, by recursion on the left word.

    With g the leftmost generator of left = g.u,  <g.u, w> = <u, g^dagger w>
    and g^dagger w = sum c_w' w' is one reduction, so the value is
    sum c_w' <u, w'>: pairs one level down, memoized per binding.  The
    value is (re, im) over D^(len(left) + len(word)).  The caller's own
    pair is not stored: a Gram entry's pair is not looked up again.
    """
    if not left:
        return (0, 0) if word else (1, 0)
    reduced = _reduce(pres, pres._gen_adjoint[left[0]], word)
    rest = left[1:]
    if not rest:
        return reduced.get((), (0, 0))
    memo = pres._expect_cache
    re = im = 0
    for w2, (a, b) in reduced.items():
        key = (rest, w2)
        value = memo.get(key)
        if value is None:
            value = memo[key] = _expectation(pres, rest, w2)
        x, y = value
        if x or y:
            re += a * x - b * y
            im += a * y + b * x
    return re, im


# ---------------------------------------------------------------------------
# PBW word enumeration and Gram matrices
# ---------------------------------------------------------------------------


def pbw_words(pres: Presentation, level: HalfInt, *, drop_vacuum_annihilators: bool) -> list[Word]:
    """All PBW words of weight exactly `level`, canonically ordered.

    With drop_vacuum_annihilators, words whose rightmost generator is
    L_{-1} or an odd G_{-1/2} are omitted (they vanish on a vacuum-like
    cyclic vector).
    """
    level = HalfInt(level)
    words: list[Word] = []

    def block(fam_idx: int, remaining: int, acc: list[tuple[str, HalfInt]]):
        if fam_idx == len(pres.families):
            if remaining == 0:
                words.append(tuple(acc))
            return
        fam = pres.families[fam_idx]
        smallest = 2 if fam.integer_moded else 1  # label in twice-units

        def labels(remaining2: int, max_label: int, acc2: list[int]):
            # acc2 holds labels (positive weights, twice-units) already
            # chosen for this family, largest first
            block(fam_idx + 1, remaining2, acc + [(fam.name, half(-lab)) for lab in acc2])
            lab = min(remaining2, max_label)
            if lab % 2 != smallest % 2:
                lab -= 1
            while lab >= smallest:
                acc2.append(lab)
                next_max = lab if fam.parity == 0 else lab - 2
                labels(remaining2 - lab, next_max, acc2)
                acc2.pop()
                lab -= 2

        labels(remaining, remaining, [])

    block(0, level.twice, [])
    if drop_vacuum_annihilators:
        def keep(word: Word) -> bool:
            if not word:
                return True
            fam, n = word[-1]
            if fam == "L" and n == -1:
                return False
            if pres.parity(fam) == 1 and n.twice == -1:
                return False
            return True

        words = [w for w in words if keep(w)]
    words.sort(key=lambda w: tuple((pres.rank(f), -n.twice) for f, n in w))
    return words


class GramMatrix(NamedTuple):
    level: HalfInt
    words: list[Word]
    entries: list[list[GaussianRational]]

    def is_hermitian(self) -> bool:
        n = len(self.words)
        return all(
            self.entries[i][j] == self.entries[j][i].conjugate() for i in range(n) for j in range(n)
        )

    @property
    def size(self) -> int:
        return len(self.words)


def abstract_gram(pres: Presentation, lw: LowestWeightData, level: HalfInt) -> GramMatrix:
    """Gram matrix of the PBW spanning words at one weight level."""
    level = HalfInt(level)
    words = pbw_words(pres, level, drop_vacuum_annihilators=lw.vacuum_flag)
    entries = [[vacuum_expectation(wi, wj, lw, pres) for wj in words] for wi in words]
    return GramMatrix(level, words, entries)


# ---------------------------------------------------------------------------
# exact positive-semidefiniteness
# ---------------------------------------------------------------------------


class PsdResult(NamedTuple):
    psd: bool
    pivots: list[Fraction]
    witness: Optional[list[GaussianRational]] = None

    def witness_value(self, entries: list[list[GaussianRational]]) -> Optional[Fraction]:
        if self.witness is None:
            return None
        support = [(i, w) for i, w in enumerate(self.witness) if w]
        total = ZERO
        for i, wi in support:
            row, ci = entries[i], wi.conjugate()
            for j, wj in support:
                total = total + ci * row[j] * wj
        return total.real_part()


def psd_check(gram: GramMatrix | list[list[GaussianRational]]) -> PsdResult:
    """Exact pivoted Hermitian elimination deciding positive semidefiniteness.

    Pivots are the eliminated diagonal entries in pivot order (largest
    remaining diagonal first, ties to the lowest index).  Rank
    deficiency is admissible: zero pivots with identically zero residual
    rows pass.  On failure a witness vector v with <v, Gv> < 0 is
    produced.

    The elimination is fraction-free (Bareiss) over Z[i]: with L the
    common denominator of the entries, B = L*G, and M the last pivot's
    minor, every active entry holds M times the Schur complement entry,
    and the step through pivot p divides (B_pp B_ij - B_ip B_pj) exactly
    by M.  M > 0 scales every remaining diagonal alike, so the pivot
    order is that of the Schur complement; the pivot itself is
    B_pp / (M L).
    """
    entries = gram.entries if isinstance(gram, GramMatrix) else gram
    n = len(entries)
    a = [[GaussianRational.coerce(entries[i][j]) for j in range(n)] for i in range(n)]
    scale = lcm(*(x.denominator for row in a for z in row for x in (z.re, z.im)))
    re = [[z.re.numerator * (scale // z.re.denominator) for z in row] for row in a]
    im = [[z.im.numerator * (scale // z.im.denominator) for z in row] for row in a]
    for i in range(n):
        re_i, im_i = re[i], im[i]
        for j in range(n):
            if re_i[j] != re[j][i] or im_i[j] != -im[j][i]:
                raise ValueError(f"matrix is not Hermitian at ({i},{j})")
    minor = 1  # the pivot minor M of the steps taken so far
    active = list(range(n))
    pivots: list[Fraction] = []
    # elimination history: (pivot row, B_pp, [(row, re B_ip, im B_ip)]) in
    # original indices; the multiplier of row i is B_ip / B_pp
    history: list[tuple[int, int, list[tuple[int, int, int]]]] = []

    def backtransform(seed: dict[int, GaussianRational]) -> list[GaussianRational]:
        # apply adjoints of the elimination steps in reverse:
        # E = I - sum mult[i] e_i e_p^T  =>  E^dagger v adds -conj(mult[i]) v_i to v_p
        v = dict(seed)
        for p, d, column in reversed(history):
            acc = v.get(p, ZERO)
            for i, x, y in column:
                if i in v:
                    acc = acc - GaussianRational(Fraction(x, d), Fraction(-y, d)) * v[i]
            if acc.is_zero():
                v.pop(p, None)
            else:
                v[p] = acc
        return [v.get(i, ZERO) for i in range(n)]

    while active:
        p = max(active, key=lambda i: re[i][i])  # the first maximum: ties to the lowest index
        d = re[p][p]
        if d > 0:
            pivots.append(Fraction(d, minor * scale))
            active.remove(p)
            history.append((p, d, [(i, re[i][p], im[i][p]) for i in active if re[i][p] or im[i][p]]))
            re_p, im_p = re[p], im[p]
            for k, i in enumerate(active):
                re_i, im_i = re[i], im[i]
                x0, y0 = re_i[p], im_i[p]
                # the upper triangle, mirrored:  B_ij <- (B_pp B_ij - B_ip B_pj) / M
                for j in active[k:]:
                    x, rx = divmod(d * re_i[j] - x0 * re_p[j] + y0 * im_p[j], minor)
                    y, ry = divmod(d * im_i[j] - x0 * im_p[j] - y0 * re_p[j], minor)
                    if rx or ry:
                        raise AssertionError(f"inexact Bareiss division at ({i},{j})")
                    re_i[j], im_i[j] = x, y
                    re[j][i], im[j][i] = x, -y
            minor = d
            continue
        # all remaining diagonals <= 0
        negative = [i for i in active if re[i][i] < 0]
        if negative:
            i = negative[0]
            pivots.append(Fraction(re[i][i], minor * scale))
            return PsdResult(False, pivots, backtransform({i: ONE}))
        offdiag = [
            (i, j)
            for ii, i in enumerate(active)
            for j in active[ii + 1 :]
            if re[i][j] or im[i][j]
        ]
        if offdiag:
            r, s = offdiag[0]
            b = GaussianRational(Fraction(re[r][s], minor * scale), Fraction(im[r][s], minor * scale))
            witness = backtransform({r: -b, s: ONE})
            return PsdResult(False, pivots, witness)
        pivots.extend(Fraction(0) for _ in active)
        return PsdResult(True, pivots)
    return PsdResult(True, pivots)


# ---------------------------------------------------------------------------
# unitary discrete series
# ---------------------------------------------------------------------------


def discrete_series(algebra: str, p: int) -> Fraction:
    """Central charge of the p-th member of the unitary discrete series."""
    if p < 2:
        raise ValueError("the discrete series starts at p = 2")
    if algebra in ("vir", "virasoro"):
        return 1 - Fraction(6, p * (p + 1))
    if algebra == "ns":
        return Fraction(3, 2) * (1 - Fraction(8, p * (p + 2)))
    if algebra == "n2":
        return 3 * (1 - Fraction(2, p))
    raise ValueError(f"unknown algebra {algebra!r}")
