"""Mode operators of the free fields as exact endomorphisms.

A ModeOperator is a finite sum of scalar multiples of composition
chains of primitive actions.  Every primitive maps a basis state to a
finite vector, so applying any operator to a finite vector terminates
with an exact result; there is no truncation anywhere.

Primitives:
  * single boson modes J_m and fermion modes Phi_n,
  * the k-th Fourier modes of the four shifted normal powers
    :J^2:, :dPhi Phi:, :J Phi:, :Phi Phi'": (BilinearSpec),
  * the alternating tail sums  sum_{l>=1} (-1)^l A_{m+l}.

Arithmetic is in Python ints: primitives act on the state ids of a
StateTable with integer coefficients over a fixed denominator, and a
ModeOperator's memoized columns are Gaussian-integer (id, re, im)
triples over one common denominator.

Only single-mode actions are memoized process-wide (`_act_cached`); a
bilinear or tail sum acts afresh into the column of its operator.

Sign convention: a state stores fermion modes per species in strictly
decreasing order, species blocks concatenated left to right; applying a
fermion mode counts the transpositions needed to reach its canonical
slot.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Callable, Literal, NamedTuple, Optional

from .fock import FockState, FockVector, StateTable, state_table
from .halfint import HalfInt, half
from .scalars import GaussianRational


# ---------------------------------------------------------------------------
# primitive actions on single basis states
# ---------------------------------------------------------------------------


class _Primitive:
    """One primitive action, with a parity and a weight_shift.  `act` maps
    the state with id `sid` of a state table to its integer column
    ((id, numerator), ...); the coefficients are numerator / denominator.

    `need` is None, or (0 for bosons | 1 for fermions, species, index)
    of a mode that a state must hold for the action not to vanish.

    A primitive is immutable and compares by identity: the factories
    below make one object per mode, so a memo hit on a primitive is a
    pointer compare.  Its fields are the names in `_fields`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    denominator = 1
    need = None

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def act(self, table: StateTable, sid: int) -> tuple[tuple[int, int], ...]:
        raise NotImplementedError

    def image(self, table: StateTable, sid: int) -> tuple[tuple[int, int], ...]:
        """`act` as a column reads it: memoized here, afresh for composites."""
        return _act_cached(self, table, sid)


@lru_cache(maxsize=None)
def _act_cached(prim: _Primitive, table: StateTable, sid: int):
    return prim.act(table, sid)


class _BosonMode(_Primitive):
    __slots__ = ("species", "m", "need")
    _fields = ("species", "m")
    parity = 0

    def __init__(self, species: int, m: int):
        super().__init__(species, m)
        # J_m with m >= 0 needs the mode m held; J_0 needs mode 0, never held
        object.__setattr__(self, "need", (0, species, m) if m >= 0 else None)

    @property
    def weight_shift(self) -> HalfInt:
        return half(2 * self.m)

    def act(self, table, sid):
        state = table.states[sid]
        if self.species >= len(state.bosons):
            raise ValueError(f"boson species {self.species} out of range")
        modes = state.bosons[self.species]
        m = self.m
        if m == 0:
            return ()
        if m < 0:
            new = tuple(sorted(modes + (-m,), reverse=True))
            coeff = 1
        else:
            mult = modes.count(m)
            if mult == 0:
                return ()
            idx = modes.index(m)
            new = modes[:idx] + modes[idx + 1 :]
            coeff = m * mult
        bos = state.bosons[: self.species] + (new,) + state.bosons[self.species + 1 :]
        return ((table.id_of(FockState(bos, state.fermions)), coeff),)


class _FermionMode(_Primitive):
    __slots__ = ("species", "n_twice", "need")  # n_twice odd
    _fields = ("species", "n_twice")
    parity = 1

    def __init__(self, species: int, n_twice: int):
        super().__init__(species, n_twice)
        object.__setattr__(self, "need", (1, species, n_twice) if n_twice > 0 else None)

    @property
    def weight_shift(self) -> HalfInt:
        return half(self.n_twice)

    def act(self, table, sid):
        state = table.states[sid]
        if self.species >= len(state.fermions):
            raise ValueError(f"fermion species {self.species} out of range")
        modes = state.fermions[self.species]
        t = self.n_twice
        if t < 0:
            created = -t
            if created in modes:
                return ()
            pos = 0
            while pos < len(modes) and modes[pos] > created:
                pos += 1
            new = modes[:pos] + (created,) + modes[pos:]
        else:
            if t not in modes:
                return ()
            pos = modes.index(t)
            new = modes[:pos] + modes[pos + 1 :]
        crossings = sum(len(modes) for modes in state.fermions[: self.species]) + pos
        sign = -1 if crossings % 2 else 1
        fer = state.fermions[: self.species] + (new,) + state.fermions[self.species + 1 :]
        return ((table.id_of(FockState(state.bosons, fer)), sign),)


# One interned object per (species, index), so that memo hits on a
# primitive match by identity, and J_m and Phi_{t/2} never share a key.


@lru_cache(maxsize=None)
def _boson(species: int, m: int) -> _BosonMode:
    return _BosonMode(species, m)


@lru_cache(maxsize=None)
def _fermion(species: int, n_twice: int) -> _FermionMode:
    return _FermionMode(species, n_twice)


FactorKind = Literal["J", "Phi", "dPhi"]


class BilinearSpec(NamedTuple("BilinearSpec", [("left_kind", FactorKind), ("left_species", int),
                                                ("right_kind", Literal["J", "Phi"]), ("right_species", int)])):
    """The two factors of a shifted normal power, left one first.

    left_kind "dPhi" is the reweighted derivative factor of :dPhi Phi:.
    The four supported shapes are (J,J), (dPhi,Phi), (J,Phi), (Phi,Phi).
    """

    __slots__ = ()

    def __new__(cls, left_kind, left_species, right_kind, right_species):
        shape = (left_kind, right_kind)
        if shape not in {("J", "J"), ("dPhi", "Phi"), ("J", "Phi"), ("Phi", "Phi")}:
            raise ValueError(f"unsupported bilinear shape {shape}")
        return super().__new__(cls, left_kind, left_species, right_kind, right_species)

    @property
    def left_parity(self) -> int:
        return 0 if self.left_kind == "J" else 1

    @property
    def right_parity(self) -> int:
        return 0 if self.right_kind == "J" else 1

    @property
    def mode_is_integer(self) -> bool:
        return (self.left_parity + self.right_parity) % 2 == 0


def _left_factor_data(spec: BilinearSpec):
    """(cutoff_twice, coefficient(a_twice), primitive factory) for the left
    slot; coefficients are over _Bilinear.denominator.

    cutoff is the largest index in the creation branch of the normal
    ordering, on the grading of the underlying unshifted series; the
    boundary terms that the two natural gradings disagree on all carry
    zero operators or zero coefficients.
    """
    if spec.left_kind == "J":
        return -2, lambda t: 1, lambda t: _boson(spec.left_species, t // 2)
    if spec.left_kind == "Phi":
        return -1, lambda t: 1, lambda t: _fermion(spec.left_species, t)
    # dPhi: coefficient (-a - 1/2) on Phi_a, creation branch a <= -3/2
    return -3, lambda t: -t - 1, lambda t: _fermion(spec.left_species, t)


def _right_factor(spec: BilinearSpec) -> Callable[[int], _Primitive]:
    if spec.right_kind == "J":
        return lambda t: _boson(spec.right_species, t // 2)
    return lambda t: _fermion(spec.right_species, t)


def _nonzero(acc: dict[int, int]) -> tuple[tuple[int, int], ...]:
    return tuple((s, c) for s, c in acc.items() if c)


class _Bilinear(_Primitive):
    __slots__ = _fields = ("spec", "k_twice")

    @property
    def denominator(self) -> int:
        return 2 if self.spec.left_kind == "dPhi" else 1

    @property
    def parity(self) -> int:
        return (self.spec.left_parity + self.spec.right_parity) % 2

    @property
    def weight_shift(self) -> HalfInt:
        return half(self.k_twice)

    def act(self, table, sid):
        state = table.states[sid]
        held = (state.bosons, state.fermions)
        acc: dict[int, int] = {}
        for first, second, factor in _bilinear_branches(self.spec, self.k_twice, table.twice[sid]):
            need = first.need
            if need is not None and need[2] not in held[need[0]][need[1]]:
                continue  # the first factor annihilates the state
            for s1, c1 in _act_cached(first, table, sid):
                for s2, c2 in _act_cached(second, table, s1):
                    acc[s2] = acc.get(s2, 0) + c1 * c2 * factor
        return _nonzero(acc)

    image = act


@lru_cache(maxsize=None)
def _bilinear_branches(spec: BilinearSpec, k: int, w: int) -> tuple[tuple[_Primitive, _Primitive, int], ...]:
    """The nonzero terms (first, second, numerator) of mode k of a bilinear
    on states of twice-weight w: second o first, times numerator."""
    cutoff, coeff_of, left_prim = _left_factor_data(spec)
    right_prim = _right_factor(spec)
    koszul = -1 if spec.left_parity and spec.right_parity else 1
    # creation branch: X_a (Y_{k-a} state), a <= cutoff, k - a <= w;
    # annihilation branch: koszul * Y_{k-a} (X_a state), cutoff < a <= w
    branches = [(right_prim(k - a), left_prim(a), coeff_of(a)) for a in range(cutoff, k - w - 1, -2)]
    branches += [(left_prim(a), right_prim(k - a), koszul * coeff_of(a)) for a in range(cutoff + 2, w + 1, 2)]
    return tuple(b for b in branches if b[2])


class _TailSum(_Primitive):
    __slots__ = _fields = ("kind", "species", "m_twice")

    @property
    def parity(self) -> int:
        return 0 if self.kind == "J" else 1

    weight_shift = None  # mixes weights by construction

    def act(self, table, sid):
        acc: dict[int, int] = {}
        for l in range(1, (table.twice[sid] - self.m_twice) // 2 + 1):
            t = self.m_twice + 2 * l
            prim = _boson(self.species, t // 2) if self.kind == "J" else _fermion(self.species, t)
            for s, c in _act_cached(prim, table, sid):
                acc[s] = acc.get(s, 0) + (-c if l % 2 else c)
        return _nonzero(acc)

    image = act


# ---------------------------------------------------------------------------
# the operator algebra
# ---------------------------------------------------------------------------


class ModeOperator:
    """A finite sum  (1/denom) sum_i (re_i + im_i i) P_{i,1} o P_{i,2} o ...
    of primitives, with integer re_i, im_i and the primitives' integer
    actions, so every column is a Gaussian-integer vector over denom.

    Chains apply right to left.  Each operator carries a parity shift
    and, when all terms shift weight uniformly, a declared weight shift
    (None otherwise, e.g. for tail sums), and None or the parameter
    `point` of a realized mode (see `memo`).
    """

    __slots__ = ("terms", "denom", "parity", "weight_shift", "point", "_columns", "_state_cache")
    _held: list = [None]  # shared: the point whose operators hold memos, then those operators

    def __init__(
        self,
        terms: tuple[tuple[int, int, tuple[_Primitive, ...]], ...],
        parity: int,
        weight_shift: Optional[HalfInt],
        denom: int = 1,
    ):
        terms = tuple(t for t in terms if t[0] or t[1])
        g = gcd(denom, *(x for re, im, _ in terms for x in (re, im)))
        self.terms = tuple((re // g, im // g, chain) for re, im, chain in terms)
        self.denom = denom // g
        self.parity = parity
        self.weight_shift = weight_shift
        self.point = None
        self._columns: dict[StateTable, dict[int, tuple]] = {}
        self._state_cache: dict[FockState, FockVector] = {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "ModeOperator":
        return ModeOperator((), 0, half(0))

    @staticmethod
    def identity() -> "ModeOperator":
        return ModeOperator(((1, 0, ()),), 0, half(0))

    @staticmethod
    def from_primitive(prim: _Primitive) -> "ModeOperator":
        return ModeOperator(((1, 0, (prim,)),), prim.parity, prim.weight_shift, prim.denominator)

    # -- algebra -------------------------------------------------------------

    def scale(self, coeff) -> "ModeOperator":
        coeff = GaussianRational.coerce(coeff)
        if coeff.is_zero():
            return ModeOperator.zero()
        q = lcm(coeff.re.denominator, coeff.im.denominator)
        a, b = int(coeff.re * q), int(coeff.im * q)
        terms = tuple((re * a - im * b, re * b + im * a, chain) for re, im, chain in self.terms)
        return ModeOperator(terms, self.parity, self.weight_shift, self.denom * q)

    def __rmul__(self, coeff):
        return self.scale(coeff)

    def __add__(self, other: "ModeOperator") -> "ModeOperator":
        if not self.terms:
            return other
        if not other.terms:
            return self
        if self.parity != other.parity:
            raise AssertionError("cannot add operators of different parity")
        shift = self.weight_shift if self.weight_shift == other.weight_shift else None
        denom = lcm(self.denom, other.denom)
        terms = tuple((re * (denom // op.denom), im * (denom // op.denom), chain)
                      for op in (self, other) for re, im, chain in op.terms)
        return ModeOperator(terms, self.parity, shift, denom)

    def __sub__(self, other: "ModeOperator") -> "ModeOperator":
        return self + other.scale(-1)

    def compose(self, other: "ModeOperator") -> "ModeOperator":
        """self applied after other."""
        terms = tuple(
            (r1 * r2 - i1 * i2, r1 * i2 + i1 * r2, chain1 + chain2)
            for r1, i1, chain1 in self.terms
            for r2, i2, chain2 in other.terms
        )
        if self.weight_shift is None or other.weight_shift is None:
            shift = None
        else:
            shift = self.weight_shift + other.weight_shift
        return ModeOperator(terms, (self.parity + other.parity) % 2, shift, self.denom * other.denom)

    def __mul__(self, other):
        if isinstance(other, ModeOperator):
            return self.compose(other)
        return self.scale(other)

    def commutator(self, other: "ModeOperator") -> "ModeOperator":
        """The super-commutator: anticommutator when both factors are odd."""
        sign = -1 if (self.parity and other.parity) else 1
        return self.compose(other) - other.compose(self).scale(sign)

    # -- action ---------------------------------------------------------------

    def memo(self, table: StateTable) -> dict[int, tuple]:
        """The memoized columns on `table`, keyed by state id; `column`
        fills it.  Memos hold one point: when an operator of a new point
        makes one, those of the previous point's operators are dropped."""
        memo = self._columns.get(table)
        if memo is None:
            if self.point is not None:
                if self.point != self._held[0]:
                    for old in self._held[1:]:
                        old._columns.clear()
                        old._state_cache.clear()
                    self._held[:] = [self.point]
                self._held.append(self)
            memo = self._columns[table] = {}
        return memo

    def column(self, table: StateTable, sid: int) -> tuple[tuple[int, int, int], ...]:
        """The image of state sid of `table` as ((id, re, im), ...), numerators
        over self.denom; memoized per table."""
        memo = self.memo(table)
        column = memo.get(sid)
        if column is None:
            total: dict[int, list[int]] = {}
            for re, im, chain in self.terms:
                if len(chain) == 1:
                    vec = chain[0].image(table, sid)
                else:
                    img = {sid: 1}
                    for prim in reversed(chain):
                        nxt: dict[int, int] = {}
                        for s, c in img.items():
                            for s2, c2 in prim.image(table, s):
                                nxt[s2] = nxt.get(s2, 0) + c * c2
                        img = {s: c for s, c in nxt.items() if c}
                    vec = img.items()
                for s, c in vec:
                    acc = total.get(s)
                    if acc is None:
                        total[s] = [re * c, im * c]
                    else:
                        acc[0] += re * c
                        acc[1] += im * c
            column = memo[sid] = tuple((s, re, im) for s, (re, im) in total.items() if re or im)
        return column

    def apply_state(self, state: FockState) -> FockVector:
        cached = self._state_cache.get(state)
        if cached is not None:
            return cached
        table = state_table(state.content)
        d = self.denom
        result = FockVector.__new__(FockVector)
        result.terms = {
            table.states[s]: GaussianRational(Fraction(re, d), Fraction(im, d))
            for s, re, im in self.column(table, table.id_of(state))
        }
        self._state_cache[state] = result
        return result

    def __call__(self, vec: FockVector) -> FockVector:
        out = FockVector.zero()
        for state, coeff in vec.terms.items():
            out = out + self.apply_state(state).scale(coeff)
        return out


# ---------------------------------------------------------------------------
# public factories
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def boson_mode(species: int, m: int) -> ModeOperator:
    """The current mode J_m of one boson species; J_0 acts as zero."""
    if species < 0:
        raise ValueError("species index must be nonnegative")
    return ModeOperator.from_primitive(_boson(species, m))


@lru_cache(maxsize=None)
def fermion_mode(species: int, n: HalfInt) -> ModeOperator:
    """The fermion mode Phi_n; n must be half-odd."""
    if species < 0:
        raise ValueError("species index must be nonnegative")
    n = HalfInt(n)
    if n.is_integer:
        raise ValueError(f"fermion mode index must be half-odd, got {n}")
    return ModeOperator.from_primitive(_fermion(species, n.twice))


@lru_cache(maxsize=None)
def bilinear_mode(spec: BilinearSpec, k: HalfInt) -> ModeOperator:
    """The k-th Fourier mode of a shifted normal power."""
    k = HalfInt(k)
    if spec.mode_is_integer != k.is_integer:
        raise ValueError(f"mode {k} has the wrong parity for {spec}")
    return ModeOperator.from_primitive(_Bilinear(spec, k.twice))


@lru_cache(maxsize=None)
def tail_sum(kind: Literal["J", "Phi"], species: int, m: HalfInt) -> ModeOperator:
    """The alternating tail  sum_{j<0} (-1)^j A_{m-j}  of one mode family.

    Applied to any finite vector only finitely many terms act, so the
    result is exact.
    """
    m = HalfInt(m)
    if kind == "J" and not m.is_integer:
        raise ValueError("boson tail needs an integer base index")
    if kind == "Phi" and m.is_integer:
        raise ValueError("fermion tail needs a half-odd base index")
    return ModeOperator.from_primitive(_TailSum(kind, species, m.twice))
