"""Exact complex scalars with rational real and imaginary parts.

Every coefficient in the engine lives in Q(i).  Arithmetic is closed and
exact; there is no floating point anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]


_ZERO_FRACTION = Fraction(0)


class GaussianRational:
    """A complex number re + im*i with re, im exact rationals."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, re: Fraction, im: Fraction) -> "GaussianRational":
        # internal fast path: both components are known Fractions
        out = object.__new__(cls)
        object.__setattr__(out, "re", re)
        object.__setattr__(out, "im", im)
        return out

    @staticmethod
    def coerce(value: "GaussianRational | RationalLike") -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational._raw(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return GaussianRational._raw(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational._raw(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return GaussianRational._raw(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return GaussianRational._raw(other - self.re, -self.im)

    def __neg__(self):
        return GaussianRational._raw(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            if other.im == 0:
                other = other.re
            else:
                if self.im == 0:
                    r = self.re
                    return GaussianRational._raw(r * other.re, r * other.im)
                return GaussianRational._raw(
                    self.re * other.re - self.im * other.im,
                    self.re * other.im + self.im * other.re,
                )
        if isinstance(other, (int, Fraction)):
            if other == 1:
                return self
            return GaussianRational._raw(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational._raw(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * GaussianRational.coerce(other).inverse()

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) * self.inverse()

    def conjugate(self) -> "GaussianRational":
        if self.im == 0:
            return self
        return GaussianRational._raw(self.re, -self.im)

    def norm_sq(self) -> Fraction:
        """|z|^2, always a nonnegative rational."""
        return self.re * self.re + self.im * self.im

    # -- predicates / hashing ------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def real_part(self) -> Fraction:
        """The real part, insisting the value is actually real."""
        if self.im != 0:
            raise ValueError(f"{self} is not real")
        return self.re

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.re == other and self.im == 0
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def parse_rational(text: str) -> Fraction:
    """Parse a "p/q" string into an exact Fraction.

    Rejects zero denominators and anything Fraction itself cannot parse.
    """
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {text!r}") from None
    except ValueError:
        raise ValueError(f"malformed rational {text!r}") from None


def binom(x: Fraction, j: int) -> Fraction:
    """Generalized binomial coefficient C(x, j) for rational x."""
    out = Fraction(1)
    for i in range(j):
        out *= (x - i) / (i + 1)
    return out


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)
