"""Graded boson-fermion Fock superspaces over exact scalars.

States are monomials in boson creation modes J_{-m} (m a positive
integer, any multiplicity) and fermion creation modes Phi_{-n} (n a
positive half-odd, each at most once per species).  The inner product is
diagonal on this basis; its diagonal is fixed by the commutation
relations [J_m, J_n] = m delta_{m,-n} and {Phi_m, Phi_n} = delta_{m,-n}
together with a normalized vacuum.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterable, Iterator, NamedTuple

from .halfint import HalfInt, half
from .scalars import GaussianRational


class FieldContent(NamedTuple("FieldContent", [("bosons", int), ("fermions", int)])):
    """How many boson and fermion species span the space."""

    __slots__ = ()

    def __new__(cls, bosons: int, fermions: int):
        if bosons < 0 or fermions < 0:
            raise ValueError("species counts must be nonnegative")
        return super().__new__(cls, bosons, fermions)


class ContentMismatch(ValueError):
    """Raised when vectors over different field contents are combined."""


class FockState(NamedTuple):
    """A basis monomial of creation modes applied to the vacuum.

    bosons: per species, the created modes as a descending tuple of
        positive ints (multiset, repeats allowed).
    fermions: per species, strictly descending tuple of positive
        half-odd mode values, stored as odd `twice` integers.

    A state is a tuple: it hashes and compares as its two fields.
    """

    bosons: tuple[tuple[int, ...], ...]
    fermions: tuple[tuple[int, ...], ...]

    @staticmethod
    def vacuum(content: FieldContent) -> "FockState":
        return FockState(((),) * content.bosons, ((),) * content.fermions)

    @property
    def content(self) -> FieldContent:
        return FieldContent(len(self.bosons), len(self.fermions))

    @property
    def weight(self) -> HalfInt:
        t = 2 * sum(m for species in self.bosons for m in species)
        t += sum(n for species in self.fermions for n in species)
        return half(t)

    @property
    def parity(self) -> int:
        return sum(len(species) for species in self.fermions) % 2

    def sort_key(self):
        return (self.weight.twice, self.bosons, self.fermions)

    def __repr__(self):
        parts = []
        for s, species in enumerate(self.bosons):
            parts.extend(f"J{s}[-{m}]" for m in species)
        for s, species in enumerate(self.fermions):
            parts.extend(f"F{s}[-{t}/2]" for t in species)
        return "|" + " ".join(parts) + ">" if parts else "|0>"


def _boson_partitions(budget: int) -> Iterator[tuple[int, ...]]:
    """Partitions with parts <= budget, descending, by total weight."""

    def rec(remaining: int, max_part: int, acc: list[int]):
        yield tuple(acc)
        for part in range(min(remaining, max_part), 0, -1):
            acc.append(part)
            yield from rec(remaining - part, part, acc)
            acc.pop()

    yield from rec(budget, budget, [])


def _fermion_subsets(budget_twice: int) -> Iterator[tuple[int, ...]]:
    """Strictly descending tuples of odd twice-values with bounded sum."""

    def rec(remaining: int, max_t: int, acc: list[int]):
        yield tuple(acc)
        top = min(remaining, max_t)
        for t in range(top - 1 + top % 2, 0, -2):
            acc.append(t)
            yield from rec(remaining - t, t - 2, acc)
            acc.pop()

    yield from rec(budget_twice, budget_twice, [])


def enumerate_basis(content: FieldContent, max_weight: HalfInt) -> list[FockState]:
    """Every FockState of weight <= max_weight, in canonical order.

    Canonical order is (weight, boson multisets, fermion mode lists),
    all compared lexicographically, so reports are deterministic.
    """
    if max_weight < 0:
        raise ValueError("max_weight must be nonnegative")
    budget = max_weight.twice

    def per_species(parts, scale: int, remaining: int, count: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        """The modes of `count` species; a mode m costs scale * m of the twice-weight."""
        if not count:
            yield ()
            return
        for part in parts(remaining // scale):
            for tail in per_species(parts, scale, remaining - scale * sum(part), count - 1):
                yield (part,) + tail

    states = []
    for bos in per_species(_boson_partitions, 2, budget, content.bosons):
        used = 2 * sum(m for sp in bos for m in sp)
        for fer in per_species(_fermion_subsets, 1, budget - used, content.fermions):
            states.append(FockState(bos, fer))
    states.sort(key=FockState.sort_key)
    return states


@lru_cache(maxsize=None)
def state_norm_sq(state: FockState) -> int:
    """Squared norm of a basis state: products of m^k * k! over boson modes.

    Fermion modes contribute a factor 1 each.
    """
    result = 1
    for species in state.bosons:
        for m in set(species):
            k = species.count(m)
            result *= m**k * factorial(k)
    return result


class StateTable:
    """Integer ids for the basis states of one field content.

    A state gets the next free id the first time it is met, so the table
    grows with the states the operators reach and holds no scalars of any
    realization.  Per id it keeps the state, its twice-weight and its
    integer squared norm.
    """

    __slots__ = ("states", "twice", "norms", "_ids")

    def __init__(self):
        self.states: list[FockState] = []
        self.twice: list[int] = []
        self.norms: list[int] = []
        self._ids: dict[FockState, int] = {}

    def id_of(self, state: FockState) -> int:
        sid = self._ids.get(state)
        if sid is None:
            sid = self._ids[state] = len(self.states)
            self.states.append(state)
            self.twice.append(state.weight.twice)
            self.norms.append(state_norm_sq(state))
        return sid


@lru_cache(maxsize=None)
def state_table(content: FieldContent) -> StateTable:
    """The one state table of a field content, made on first use."""
    return StateTable()


class FockVector:
    """A finite linear combination of FockStates with exact coefficients.

    Zero coefficients are never stored.  Instances are treated as
    immutable by convention; all operations return fresh vectors.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[FockState, GaussianRational] | None = None):
        self.terms: dict[FockState, GaussianRational] = {}
        if terms:
            for state, coeff in terms.items():
                coeff = GaussianRational.coerce(coeff)
                if not coeff.is_zero():
                    self.terms[state] = coeff

    @staticmethod
    def basis(state: FockState) -> "FockVector":
        return FockVector({state: GaussianRational(1)})

    @staticmethod
    def vacuum(content: FieldContent) -> "FockVector":
        return FockVector.basis(FockState.vacuum(content))

    @staticmethod
    def zero() -> "FockVector":
        return FockVector()

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "FockVector") -> "FockVector":
        merged = dict(self.terms)
        for state, coeff in other.terms.items():
            acc = merged.get(state)
            total = coeff if acc is None else acc + coeff
            if total.is_zero():
                merged.pop(state, None)
            else:
                merged[state] = total
        out = FockVector.__new__(FockVector)
        out.terms = merged
        return out

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scale(GaussianRational(-1))

    def scale(self, coeff) -> "FockVector":
        coeff = GaussianRational.coerce(coeff)
        if coeff.is_zero():
            return FockVector.zero()
        if coeff.re == 1 and coeff.im == 0:
            return self
        out = FockVector.__new__(FockVector)
        out.terms = {s: c * coeff for s, c in self.terms.items()}
        return out

    def states(self) -> Iterable[FockState]:
        return self.terms.keys()

    def norm_sq(self) -> Fraction:
        """Exact squared norm with respect to the Fock inner product."""
        return sum(
            (c.norm_sq() * state_norm_sq(s) for s, c in self.terms.items()),
            Fraction(0),
        )

    def __eq__(self, other):
        if not isinstance(other, FockVector):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = [f"({c})*{s}" for s, c in sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())]
        return " + ".join(bits)


def inner_product(u: FockVector, v: FockVector) -> GaussianRational:
    """Sesquilinear pairing, conjugate-linear in the first argument.

    Distinct basis states are orthogonal; diagonal entries are
    state_norm_sq.  Raises ContentMismatch if the supports live in
    different spaces.
    """
    contents = {s.content for s in u.states()} | {s.content for s in v.states()}
    if len(contents) > 1:
        raise ContentMismatch(f"incompatible field contents: {contents}")
    small, big = (u, v) if len(u.terms) <= len(v.terms) else (v, u)
    total = GaussianRational(0)
    for state, _ in small.terms.items():
        cu = u.terms.get(state)
        cv = v.terms.get(state)
        if cu is None or cv is None:
            continue
        total = total + cu.conjugate() * cv * state_norm_sq(state)
    return total
