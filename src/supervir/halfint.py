"""Half-integers stored exactly as twice their value.

Mode indices of the realized fields live on either the integer lattice
(boson currents, L, J) or the half-odd lattice (fermions, G-type).  The
`twice` representation keeps both lattices in one hashable type without
any floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from typing import Union

HalfIntLike = Union["HalfInt", int]


@total_ordering
class HalfInt:
    __slots__ = ("twice",)

    def __init__(self, value: HalfIntLike = 0, *, twice: int | None = None):
        if twice is None:
            if isinstance(value, HalfInt):
                twice = value.twice
            elif isinstance(value, int):
                twice = 2 * value
            elif isinstance(value, Fraction) and value.denominator in (1, 2):
                twice = value.numerator * (2 // value.denominator)
            else:
                raise TypeError(f"{value!r} is not a half-integer")
        object.__setattr__(self, "twice", twice)

    def __setattr__(self, name, value):
        raise AttributeError("HalfInt is immutable")

    # -- predicates ------------------------------------------------------

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    # -- conversions -----------------------------------------------------

    def as_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    def as_int(self) -> int:
        if self.twice % 2:
            raise ValueError(f"{self} is not an integer")
        return self.twice // 2

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: HalfIntLike) -> "HalfInt":
        return HalfInt(twice=self.twice + HalfInt(other).twice)

    __radd__ = __add__

    def __sub__(self, other: HalfIntLike) -> "HalfInt":
        return HalfInt(twice=self.twice - HalfInt(other).twice)

    def __rsub__(self, other: HalfIntLike) -> "HalfInt":
        return HalfInt(other) - self

    def __neg__(self) -> "HalfInt":
        return HalfInt(twice=-self.twice)

    def __mul__(self, other: int) -> "HalfInt":
        if not isinstance(other, int):
            return NotImplemented
        return HalfInt(twice=self.twice * other)

    __rmul__ = __mul__

    def __abs__(self) -> "HalfInt":
        return HalfInt(twice=abs(self.twice))

    # -- ordering / hashing ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, HalfInt):
            return self.twice == other.twice
        if isinstance(other, int):
            return self.twice == 2 * other
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, HalfInt):
            return self.twice < other.twice
        if isinstance(other, int):
            return self.twice < 2 * other
        return NotImplemented

    def __hash__(self):
        # an integer value hashes as the equal int, as __eq__ requires;
        # half-odd values equal no int, so any spread of them will do
        twice = self.twice
        return hash(twice >> 1) if not twice & 1 else hash((twice,))

    def __repr__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


def half(twice: int) -> HalfInt:
    """Shorthand: half(3) is the half-integer 3/2."""
    if not isinstance(twice, int):
        raise TypeError(f"half() takes twice the value as an int, got {twice!r}")
    return HalfInt(twice=twice)


ZERO = half(0)


def halfint_range(low: HalfInt, high: HalfInt, *, integer: bool) -> list[HalfInt]:
    """All lattice points in [low, high] on the chosen mode lattice."""
    start = low.twice
    step_parity = 0 if integer else 1
    if start % 2 != step_parity:
        start += 1
    return [half(t) for t in range(start, high.twice + 1, 2)]
