"""Energy-bound diagnostics.

The exact layer verifies, with rational arithmetic, the anticommutator
identity behind the square-root trick for odd generators and the
per-vector inequality it implies.  A separate floating-point layer
estimates restricted operator norms; the two never mix, and acceptance
rests on the exact layer plus the fermion-norm estimate alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, sqrt
from typing import Optional

import numpy as np

from .fock import FockVector, enumerate_basis, inner_product, state_norm_sq
from .halfint import HalfInt
from .oscillators import ModeOperator
from .realizations import RealizationParams, make_mode
from .superalg import family_presentation
from .verify import CheckReport, ResidualEntry


def anticommutator_identity(
    params: RealizationParams, role: str, n: HalfInt, weight_cutoff: HalfInt
) -> CheckReport:
    """||G_n c||^2 + ||G_{-n} c||^2 = <c, {G_n, G_{-n}} c>, exactly.

    Holds because the unitary-variant fields are symmetric; it is the
    identity that converts anticommutator bounds into mode bounds.
    """
    if role not in params.roles() or not family_presentation(params.family).parity(role):
        raise ValueError(f"the anticommutator identity concerns odd generators, not {role}")
    if params.variant != "unitary":
        raise ValueError("identity requires the symmetric (unitary) variant")
    n = HalfInt(n)
    basis = enumerate_basis(params.content, HalfInt(weight_cutoff))
    up = make_mode(params, role, n)
    down = make_mode(params, role, -n)
    report = CheckReport(
        "anticommutator_identity",
        {**params.to_config(), "role": role, "n": str(n), "cutoff": str(HalfInt(weight_cutoff))},
    )
    residual = Fraction(0)
    witness = None
    for state in basis:
        c = FockVector.basis(state)
        lhs = up.apply_state(state).norm_sq() + down.apply_state(state).norm_sq()
        anti = up(down.apply_state(state)) + down(up.apply_state(state))
        rhs = inner_product(c, anti)
        diff = (rhs - lhs).norm_sq()
        if diff:
            residual += diff
            if witness is None:
                witness = f"{state!r}: lhs={lhs} rhs={rhs}"
    report.entries.append(ResidualEntry("anticommutator", (n,), residual, witness))
    return report


@dataclass
class BoundReport:
    """Per-mode record: exact identity residual, the tightest constant
    that makes the squared bound hold on the basis, and (separately)
    any floating-point norm estimate."""

    role: str
    n: HalfInt
    identity_residual: Fraction
    tightest_constant: Optional[Fraction]
    implication_holds: bool
    float_norm: Optional[float] = None
    float_tolerance: Optional[float] = None


def _power_compare(lhs: Fraction, scale: Fraction, base1: Fraction, e1: Fraction,
                   base2: Fraction, e2: Fraction) -> bool:
    """lhs <= scale * base1^e1 * base2^e2 with rational exponents, exactly.

    All quantities are nonnegative; raising to the common denominator of
    the exponents keeps the comparison in the rationals.
    """
    if lhs <= 0:
        return True
    if scale <= 0:
        return False
    t = lcm(Fraction(e1).denominator, Fraction(e2).denominator)
    return lhs**t <= scale**t * base1 ** int(e1 * t) * base2 ** int(e2 * t)


def derived_bound_check(
    params: RealizationParams,
    role: str,
    n: HalfInt,
    weight_cutoff: HalfInt,
    M: Fraction,
    s: Fraction,
    k: Fraction,
) -> BoundReport:
    """Check that the anticommutator hypothesis forces the mode bound.

    On every basis vector c of weight w (eigenvalue w + h of the
    realized L_0):
      hypothesis:  ||{G_n, G_{-n}} c|| <= M (|n|+1)^s (w+h+1)^k ||c||
      conclusion:  ||G_n c||^2 <= M (|n|+1)^s (w+h+1)^k ||c||^2
    The check asserts hypothesis => conclusion vector by vector (both
    sides squared, exact) and reports the smallest constant that makes
    the conclusion hold across the whole basis.
    """
    n = HalfInt(n)
    basis = enumerate_basis(params.content, HalfInt(weight_cutoff))
    up = make_mode(params, role, n)
    down = make_mode(params, role, -n)
    hshift = params.lowest_weight()
    npow = abs(n.as_fraction()) + 1
    identity_residual = Fraction(0)
    tightest: Optional[Fraction] = None
    implication = True
    for state in basis:
        w = state.weight.as_fraction() + hshift
        cnorm = state_norm_sq(state)
        anti_vec = up(down.apply_state(state)) + down(up.apply_state(state))
        anti_norm = anti_vec.norm_sq()
        mode_norm = up.apply_state(state).norm_sq()
        lhs_sq = mode_norm + down.apply_state(state).norm_sq()
        rhs = inner_product(FockVector.basis(state), anti_vec)
        identity_residual += (rhs - lhs_sq).norm_sq()
        hyp = _power_compare(anti_norm, M * M * cnorm, npow, 2 * s, w + 1, 2 * k)
        concl = _power_compare(mode_norm, M * cnorm, npow, s, w + 1, k)
        if hyp and not concl:
            implication = False
        # tightest constant: mode_norm <= C * (|n|+1)^s (w+1)^k ||c||^2,
        # recorded only for integer exponents where C stays rational
        if s.denominator == 1 and k.denominator == 1 and cnorm:
            ratio = mode_norm / (npow ** int(s) * (w + 1) ** int(k) * cnorm)
            if tightest is None or ratio > tightest:
                tightest = ratio
    return BoundReport(role, n, identity_residual, tightest, implication)


def norm_estimate(op: ModeOperator, content, weight_cutoff: HalfInt,
                  tol: float = 1e-9, max_iter: int = 10_000) -> float:
    """Largest singular value of the operator between truncated spaces.

    The matrix is assembled exactly in the orthonormalized state basis
    and only then converted to floating point; the top singular value
    comes from power iteration on the normal matrix with relative
    tolerance `tol`.  Raises on non-convergence.
    """
    weight_cutoff = HalfInt(weight_cutoff)
    if op.weight_shift is not None and abs(op.weight_shift.twice) > weight_cutoff.twice:
        raise ValueError("cutoff smaller than the operator's weight shift")
    basis = enumerate_basis(content, weight_cutoff)
    index = {s: i for i, s in enumerate(basis)}
    dim = len(basis)
    mat = np.zeros((dim, dim), dtype=complex)
    norms = [state_norm_sq(s) for s in basis]
    for j, s in enumerate(basis):
        image = op.apply_state(s)
        for t, coeff in image.terms.items():
            i = index.get(t)
            if i is None:
                continue  # outside the truncation window
            scale = sqrt(float(norms[i]) / float(norms[j]))
            mat[i, j] = complex(float(coeff.re), float(coeff.im)) * scale
    if not np.any(mat):
        return 0.0
    normal = mat.conj().T @ mat
    v = np.array([1.0 + i / dim for i in range(dim)], dtype=complex)
    v /= np.linalg.norm(v)
    lam = 0.0
    # converge the eigenvalue two orders tighter than the advertised
    # tolerance so the singular value is reliable at `tol`
    lam_tol = tol * 1e-2
    for _ in range(max_iter):
        w = normal @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        new_lam = float(np.real(np.vdot(v, normal @ v)))
        if lam and abs(new_lam - lam) <= lam_tol * abs(new_lam):
            return float(np.sqrt(new_lam))
        lam = new_lam
    raise RuntimeError(f"power iteration did not converge within {max_iter} iterations")
