"""Abstract super-Virasoro presentations and lowest-weight Gram matrices.

A Presentation stores generator families with their mode lattices and
parities plus the structural bracket.  Everything downstream is exact:
vacuum expectations reduce words with the relations and the adjoint rule
A_n^dagger = A_{-n}; Gram matrices are tested for positive
semidefiniteness by pivoted fraction-free elimination over Z[i].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, Optional

from .halfint import HalfInt, half
from .scalars import ONE, ZERO, GaussianRational

_I = GaussianRational(0, 1)

# a word is a tuple of (family, index) pairs with negative indices,
# canonically ordered (family blocks in order, labels weakly/strictly
# decreasing within even/odd blocks)
Word = tuple[tuple[str, HalfInt], ...]

BracketTerms = tuple[tuple[str, HalfInt, GaussianRational], ...]


@dataclass(frozen=True)
class GeneratorFamily:
    name: str
    parity: int  # 0 even, 1 odd
    integer_moded: bool


@dataclass(frozen=True)
class LowestWeightData:
    """Central charge, lowest weight, optional charge, and whether the
    cyclic vector is also killed by L_{-1} and the G_{-1/2} modes."""

    c: Fraction
    h: Fraction = Fraction(0)
    q: Optional[Fraction] = None
    vacuum_flag: bool = False

    def __post_init__(self):
        if self.vacuum_flag and (self.h != 0 or (self.q or 0) != 0):
            raise ValueError("vacuum_flag requires h = 0 (and q = 0)")


class Presentation:
    """Generator families plus the structural super-bracket.

    bracket_fn(f1, n1, f2, n2, c) returns (terms, central) where terms
    is a tuple of (family, index, coefficient) and central multiplies
    the identity.

    The reduction and expectation memos hold the tables of one
    LowestWeightData at a time: reducing at a new point drops the old
    point's tables, so a parameter sweep keeps one point in memory.
    """

    def __init__(self, name: str, families: tuple[GeneratorFamily, ...], bracket_fn):
        self.name = name
        self.families = families
        self._rank = {fam.name: i for i, fam in enumerate(families)}
        self._parity = {fam.name: fam.parity for fam in families}
        self._integer = {fam.name: fam.integer_moded for fam in families}
        self._bracket_fn = bracket_fn
        self._memo_lw: Optional[LowestWeightData] = None
        self._reduce_cache: dict = {}  # (family, index, word) -> reduced vector
        self._expect_cache: dict = {}  # (left word, reduced word) -> <left.vac, word.vac>

    def _bind(self, lw: LowestWeightData) -> None:
        """Make the memos those of `lw`, dropping another point's tables."""
        if lw is not self._memo_lw:
            if lw != self._memo_lw:
                self._reduce_cache.clear()
                self._expect_cache.clear()
            self._memo_lw = lw

    def parity(self, family: str) -> int:
        return self._parity[family]

    def integer_moded(self, family: str) -> bool:
        return self._integer[family]

    def rank(self, family: str) -> int:
        return self._rank[family]

    def bracket(self, f1: str, n1: HalfInt, f2: str, n2: HalfInt, c: Fraction):
        return self._bracket_fn(f1, n1, f2, n2, c)

    def family_pairs(self) -> Iterator[tuple[str, str]]:
        for i, fam1 in enumerate(self.families):
            for fam2 in self.families[i:]:
                yield fam1.name, fam2.name


# ---------------------------------------------------------------------------
# the three presentations
# ---------------------------------------------------------------------------


def _vir_terms(f1, n1, f2, n2, c):
    m, n = n1.as_fraction(), n2.as_fraction()
    terms = (("L", n1 + n2, GaussianRational(m - n)),)
    central = GaussianRational(c * (m**3 - m) / 12) if n1 + n2 == 0 else GaussianRational(0)
    return terms, central


def _ns_bracket(f1, n1, f2, n2, c):
    m, n = n1.as_fraction(), n2.as_fraction()
    zero = GaussianRational(0)
    if (f1, f2) == ("L", "L"):
        return _vir_terms(f1, n1, f2, n2, c)
    if (f1, f2) == ("L", "G"):
        return ((("G", n1 + n2, GaussianRational(m / 2 - n)),), zero)
    if (f1, f2) == ("G", "L"):
        return ((("G", n1 + n2, GaussianRational(m - n / 2)),), zero)
    if (f1, f2) == ("G", "G"):
        central = GaussianRational(c / 3 * (m**2 - Fraction(1, 4))) if n1 + n2 == 0 else zero
        return ((("L", n1 + n2, GaussianRational(2)),), central)
    raise ValueError(f"unknown family pair {(f1, f2)}")


def _n2_bracket(f1, n1, f2, n2, c):
    m, n = n1.as_fraction(), n2.as_fraction()
    zero = GaussianRational(0)
    k = n1 + n2
    pair = (f1, f2)
    if pair == ("L", "L"):
        return _vir_terms(f1, n1, f2, n2, c)
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
    if pair == ("J", "J"):
        central = GaussianRational(c / 3 * m) if k == 0 else zero
        return ((), central)
    raise ValueError(f"unknown family pair {pair}")


_VIRASORO = Presentation(
    "virasoro", (GeneratorFamily("L", 0, True),), _vir_terms
)
_NS = Presentation(
    "ns",
    (GeneratorFamily("L", 0, True), GeneratorFamily("G", 1, False)),
    _ns_bracket,
)
_N2 = Presentation(
    "n2",
    (
        GeneratorFamily("L", 0, True),
        GeneratorFamily("G1", 1, False),
        GeneratorFamily("G2", 1, False),
        GeneratorFamily("J", 0, True),
    ),
    _n2_bracket,
)


def presentation_virasoro() -> Presentation:
    return _VIRASORO


def presentation_ns() -> Presentation:
    return _NS


def presentation_n2() -> Presentation:
    return _N2


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


def _annihilates_vacuum(pres: Presentation, lw: LowestWeightData, fam: str, n: HalfInt) -> bool:
    if n > 0:
        return True
    if not lw.vacuum_flag:
        return False
    if fam == "L" and n == -1:
        return True
    if pres.parity(fam) == 1 and n.twice == -1:
        return True
    return False


def _ok_before(pres: Presentation, g: tuple[str, HalfInt], head: tuple[str, HalfInt]) -> bool:
    """Whether generator g may sit immediately left of head in a PBW word."""
    (f1, n1), (f2, n2) = g, head
    r1, r2 = pres.rank(f1), pres.rank(f2)
    if r1 != r2:
        return r1 < r2
    if pres.parity(f1) == 1:
        return n1 < n2  # strictly decreasing labels
    return n1 <= n2


def _add_into(out: dict[Word, GaussianRational], vec: dict[Word, GaussianRational], factor) -> None:
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


def _apply_generator(
    pres: Presentation, lw: LowestWeightData, fam: str, n: HalfInt, vec: dict[Word, GaussianRational]
) -> dict[Word, GaussianRational]:
    out: dict[Word, GaussianRational] = {}
    for word, coeff in vec.items():
        _add_into(out, _reduce(pres, lw, fam, n, word), coeff)
    return out


def _reduce(
    pres: Presentation, lw: LowestWeightData, fam: str, n: HalfInt, word: Word
) -> dict[Word, GaussianRational]:
    """Normal-order (fam, n) applied to a PBW word acting on the vacuum."""
    if lw is not pres._memo_lw:
        pres._bind(lw)
    key = (fam, n, word)
    cached = pres._reduce_cache.get(key)
    if cached is not None:
        return cached
    result: dict[Word, GaussianRational]
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
            result = {((fam, n),): ONE}
    elif n < 0 and _ok_before(pres, (fam, n), word[0]):
        result = {((fam, n),) + word: ONE}
    else:
        (hf, hn), rest = word[0], word[1:]
        result = {}
        if pres.parity(fam) == 1 and (fam, n) == (hf, hn):
            # odd square: A_n A_n = (1/2){A_n, A_n}
            factor = Fraction(1, 2)
        else:
            # move g past the head:  g . head = sign * head . g + [g, head]
            sign = -1 if (pres.parity(fam) and pres.parity(hf)) else 1
            _add_into(result, _apply_generator(pres, lw, hf, hn, _reduce(pres, lw, fam, n, rest)), sign)
            factor = 1
        terms, central = pres.bracket(fam, n, hf, hn, lw.c)
        for f2, n2, cf in terms:
            _add_into(result, _reduce(pres, lw, f2, n2, rest), cf * factor)
        if central:
            _add_into(result, {rest: central}, factor)
    pres._reduce_cache[key] = result
    return result


def word_weight(word: Word) -> HalfInt:
    return half(sum(-(idx.twice) for _, idx in word))


def vacuum_expectation(left: Word, right: Word, lw: LowestWeightData, pres: Presentation) -> GaussianRational:
    """<left.vac, right.vac> from the relations and A_n^dagger = A_{-n}."""
    pres._bind(lw)
    vec: dict[Word, GaussianRational] = {(): ONE}
    for fam, n in reversed(right):
        vec = _apply_generator(pres, lw, fam, n, vec)
    total = ZERO
    for word, coeff in vec.items():
        value = _expectation(pres, lw, left, word)
        if value:
            total = total + coeff * value
    return total


def _expectation(pres: Presentation, lw: LowestWeightData, left: Word, word: Word) -> GaussianRational:
    """<left.vac, word.vac> for a reduced word, by recursion on the left word.

    With g the leftmost generator of left = g.u,  <g.u, w> = <u, g^dagger w>
    and g^dagger w = sum c_w' w' is one reduction, so the value is
    sum c_w' <u, w'>: pairs one level down, memoized per point.
    """
    if not left:
        return ZERO if word else ONE
    key = (left, word)
    cached = pres._expect_cache.get(key)
    if cached is not None:
        return cached
    (fam, n), rest = left[0], left[1:]
    total = ZERO
    for w2, c2 in _reduce(pres, lw, fam, -n, word).items():
        value = _expectation(pres, lw, rest, w2)
        if value:
            total = total + c2 * value
    pres._expect_cache[key] = total
    return total


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


@dataclass
class GramMatrix:
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

    def to_serializable(self) -> dict:
        """Report form with every exact value rendered as a string."""
        from .scalars import format_gaussian

        return {
            "level": str(self.level),
            "words": [[f"{fam}({idx})" for fam, idx in word] for word in self.words],
            "entries": [[format_gaussian(e) for e in row] for row in self.entries],
        }


def abstract_gram(pres: Presentation, lw: LowestWeightData, level: HalfInt) -> GramMatrix:
    """Gram matrix of the PBW spanning words at one weight level."""
    level = HalfInt(level)
    words = pbw_words(pres, level, drop_vacuum_annihilators=lw.vacuum_flag)
    entries = [[vacuum_expectation(wi, wj, lw, pres) for wj in words] for wi in words]
    return GramMatrix(level, words, entries)


# ---------------------------------------------------------------------------
# exact positive-semidefiniteness
# ---------------------------------------------------------------------------


@dataclass
class PsdResult:
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
    for i in range(n):
        for j in range(n):
            if a[i][j] != a[j][i].conjugate():
                raise ValueError(f"matrix is not Hermitian at ({i},{j})")

    scale = lcm(*(x.denominator for row in a for z in row for x in (z.re, z.im)))
    re = [[z.re.numerator * (scale // z.re.denominator) for z in row] for row in a]
    im = [[z.im.numerator * (scale // z.im.denominator) for z in row] for row in a]
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
