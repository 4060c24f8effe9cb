"""Energy-bound diagnostics, exact over the Gaussian rationals.

`anticommutator_identity` verifies the identity behind the square-root
trick for odd generators; the per-vector mode bound
||G_n c||^2 <= <c, {G_n, G_{-n}} c> follows from it.
`restricted_norm_sq` gives the squared norm of a single-mode operator
on a truncated Fock space, read from its integer columns.
"""

from __future__ import annotations

from fractions import Fraction

from .fock import FockVector, enumerate_basis, inner_product, state_table
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


def restricted_norm_sq(op: ModeOperator, content, weight_cutoff: HalfInt) -> Fraction:
    """||P A P||^2, exactly, for P the projection onto weights <= cutoff.

    The basis states are orthogonal with integer norms N, so when no two
    basis states send weight to the same basis state, A^H N A is
    diagonal and the norm squared is max_u sum_t |A_tu|^2 N(t) / N(u).
    That covers every J_m and Phi_n, their multiples and the diagonal
    operators.  Images outside the basis are dropped; images of two
    basis states that overlap raise ValueError.
    """
    weight_cutoff = HalfInt(weight_cutoff)
    if op.weight_shift is not None and abs(op.weight_shift.twice) > weight_cutoff.twice:
        raise ValueError("cutoff smaller than the operator's weight shift")
    table = state_table(content)
    basis = [table.id_of(s) for s in enumerate_basis(content, weight_cutoff)]
    inside = set(basis)
    source: dict[int, int] = {}
    best = Fraction(0)
    for u in basis:
        total = 0
        for t, re, im in op.column(table, u):
            if t not in inside:
                continue
            if source.setdefault(t, u) != u:
                raise ValueError(f"images of {table.states[source[t]]!r} and {table.states[u]!r} overlap")
            total += (re * re + im * im) * table.norms[t]
        best = max(best, Fraction(total, op.denom**2 * table.norms[u]))
    return best
