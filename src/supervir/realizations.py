"""Concrete mode-operator families realizing the superconformal algebras.

Two families act on boson-fermion Fock spaces:

  * "ns": one boson and one fermion species carry the N=1 algebra
    {L_m, G_n} with central charge c(kappa) = 3/2 + 12 kappa^2.
  * "n2": two bosons and two fermions carry the N=2 algebra
    {L_m, G1_r, G2_s, J_n} with c(kappa) = 3 + 12 kappa^2.

Each family comes in three variants built from the same base fields:

  * "tilde"   -- the one-parameter deformation with purely imaginary
                 shift; a representation but not a unitary one.
  * "bs"      -- the deformation by the alternating tail sums; its
                 modes are not individually symmetric, yet the cyclic
                 module is unitary (the paired adjoint identities hold).
  * "unitary" -- symmetric fields with lowest weight (kappa^2+eta^2)/2
                 (plus omega^2/2 and charge 2*kappa*omega for "n2").

Normalization note: the odd "n2" generators are fixed so that the
anticommutators close on 2*L with the standard central term; the
relation checker in `verify` pins this scale (and all signs).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .fock import FieldContent, FockVector
from .halfint import HalfInt
from .oscillators import (
    BilinearSpec,
    ModeOperator,
    bilinear_mode,
    boson_mode,
    fermion_mode,
    tail_sum,
)
from .scalars import GaussianRational, format_rational
from .superalg import family_presentation

FAMILIES = ("ns", "n2")
VARIANTS = ("tilde", "bs", "unitary")

_I = GaussianRational(0, 1)


class RealizationParams(NamedTuple("RealizationParams", [("family", str), ("variant", str), ("kappa", Fraction),
                                                          ("eta", Fraction), ("omega", Fraction)])):
    __slots__ = ()

    def __new__(cls, family: str, variant: str, kappa: Fraction = Fraction(0), eta: Fraction = Fraction(0),
                omega: Fraction = Fraction(0)):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if variant != "unitary" and (eta or omega):
            raise ValueError("eta/omega only parameterize the unitary variant")
        if family == "ns" and omega:
            raise ValueError("omega only parameterizes the n2 family")
        return super().__new__(cls, family, variant, kappa, eta, omega)

    # -- derived data -----------------------------------------------------

    @property
    def content(self) -> FieldContent:
        return FieldContent(1, 1) if self.family == "ns" else FieldContent(2, 2)

    def central_charge(self) -> Fraction:
        base = Fraction(3, 2) if self.family == "ns" else Fraction(3)
        return base + 12 * self.kappa**2

    def lowest_weight(self) -> Fraction:
        if self.variant != "unitary":
            return Fraction(0)
        return (self.kappa**2 + self.eta**2 + self.omega**2) / 2

    def charge(self) -> Fraction:
        """The J_0 eigenvalue on the cyclic vector (n2 only)."""
        if self.family != "n2":
            raise ValueError("charge is defined for the n2 family only")
        if self.variant != "unitary":
            return Fraction(0)
        return 2 * self.kappa * self.omega

    def is_vacuum_like(self) -> bool:
        """Whether L_{-1} and the G_{-1/2} modes annihilate the cyclic vector."""
        if self.family == "ns":
            return self.lowest_weight() == 0
        return self.lowest_weight() == 0 and self.charge() == 0

    def roles(self) -> tuple[str, ...]:
        return tuple(fam.name for fam in family_presentation(self.family).families)

    # -- serialization ------------------------------------------------------

    def to_config(self) -> dict:
        cfg = {"family": self.family, "variant": self.variant, "kappa": format_rational(self.kappa)}
        if self.variant == "unitary":
            cfg["eta"] = format_rational(self.eta)
            if self.family == "n2":
                cfg["omega"] = format_rational(self.omega)
        return cfg


# ---------------------------------------------------------------------------
# the realizations as data
# ---------------------------------------------------------------------------
#
# One row per (family, role): the base bilinears with their coefficients
# (the kappa = eta = omega = 0 point, common to all variants), the
# deformed mode (kind, species, sign s) or None, the species of the
# unitary variant's omega partner, and the species of a 2 kappa J_m
# term that every variant adds.  With w = m for a J mode and w = 2n
# for a Phi mode, every variant follows from three rules:
#
#   tilde    adds  s (-i kappa)(1 + w) A_n;
#   bs       is tilde plus  s (-2i kappa) tail(A)_n;
#   unitary  is tilde plus  s (eta + i kappa) A_n,  plus omega A_n on the
#            partner species, plus h (for L) or q (for J) at the zero mode.
#
# Boson and fermion species 0 and 1 of "n2" are its "+" and "-" fields.

_HALF = Fraction(1, 2)
_JJ = tuple(BilinearSpec("J", s, "J", s) for s in (0, 1))
_DPP = tuple(BilinearSpec("dPhi", s, "Phi", s) for s in (0, 1))

_TABLE = {
    "ns": {
        "L": (((_JJ[0], _HALF), (_DPP[0], _HALF)), ("J", 0, 1), None, None),
        "G": (((BilinearSpec("J", 0, "Phi", 0), 1),), ("Phi", 0, 1), None, None),
    },
    "n2": {
        "L": (((_JJ[0], _HALF), (_JJ[1], _HALF), (_DPP[0], _HALF), (_DPP[1], _HALF)), ("J", 1, 1), 0, None),
        "G1": (((BilinearSpec("J", 0, "Phi", 0), 1), (BilinearSpec("J", 1, "Phi", 1), -1)), ("Phi", 1, -1), 0, None),
        "G2": (((BilinearSpec("J", 0, "Phi", 1), 1), (BilinearSpec("J", 1, "Phi", 0), 1)), ("Phi", 0, 1), 1, None),
        "J": (((BilinearSpec("Phi", 0, "Phi", 1), -_I),), None, None, 0),
    },
}

# the constant a zero mode of the unitary variant adds on the cyclic vector
_ZERO_MODE = {"L": RealizationParams.lowest_weight, "J": RealizationParams.charge}


@lru_cache(maxsize=None)
def make_mode(params: RealizationParams, role: str, index: HalfInt) -> ModeOperator:
    """The exact mode operator of one generator of the realized family."""
    index = HalfInt(index)
    if role not in params.roles():
        raise ValueError(f"role {role!r} not in family {params.family!r}")
    if family_presentation(params.family).integer_moded(role) != index.is_integer:
        lattice = "half-odd" if index.is_integer else "integer"
        raise ValueError(f"role {role} lives on the {lattice} lattice, got {index}")
    base, deformed, partner, current = _TABLE[params.family][role]
    kappa, variant = params.kappa, params.variant
    terms = [(bilinear_mode(spec, index), cf) for spec, cf in base]
    if current is not None:
        terms.append((boson_mode(current, index.as_int()), 2 * kappa))
    if deformed is not None:
        kind, species, s = deformed
        if kind == "J":
            w = index.as_int()
            mode = lambda sp: boson_mode(sp, w)
        else:
            w = index.twice
            mode = lambda sp: fermion_mode(sp, index)
        coeff = -_I * (kappa * (1 + w))
        if variant == "unitary":
            coeff = coeff + params.eta + _I * kappa
            if params.omega:
                terms.append((mode(partner), params.omega))
        terms.append((mode(species), s * coeff))
        if variant == "bs":
            terms.append((tail_sum(kind, species, index), -2 * s * _I * kappa))
    if variant == "unitary" and index == 0:
        terms.append((ModeOperator.identity(), _ZERO_MODE[role](params)))
    op = ModeOperator.zero()
    for term, cf in terms:
        op = op + term.scale(cf)
    op.point = params  # its memos hold one point at a time (ModeOperator.memo)
    return op


# ---------------------------------------------------------------------------
# cyclic subspace
# ---------------------------------------------------------------------------

Word = tuple[tuple[str, HalfInt], ...]


def realize_word(params: RealizationParams, word: Word) -> FockVector:
    """Apply a word of negative modes, rightmost first, to the vacuum."""
    vec = FockVector.vacuum(params.content)
    for role, index in reversed(word):
        vec = make_mode(params, role, index)(vec)
    return vec
