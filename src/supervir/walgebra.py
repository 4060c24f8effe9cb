"""Minimal nilpotent structure data for basic Lie superalgebras.

Loads structure-constant files, validates them (Jacobi, invariance,
triple normalization), computes the eigenspace decomposition of ad x,
the centralizer subalgebra with its dual bases, dual Coxeter numbers via
the Casimir, the level-dependent central charge, the bracket
coefficients of the strong generators as polynomials in the level, their
mode commutators via the weighted binomial expansion, and the catalog of
unitary ranges and collapsing levels.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from pathlib import Path
from typing import Optional, Union

from .halfint import HalfInt
from .ratfunc import RationalFunction
from .scalars import binom, parse_rational

DATA_ENV_VAR = "SUPERVIR_ALGEBRA_DIR"
_BUNDLED = {
    "sl2": "sl2.alg",
    "spo(2|1)": "spo2_1.alg",
    "spo(2|2)": "spo2_2.alg",
    "spo(2|3)": "spo2_3.alg",
    "psl(2|2)": "psl2_2.alg",
}


class StructureDataError(ValueError):
    """A structure file failed validation; the message names the defect."""


Vec = dict[int, Fraction]  # sparse coordinates in the algebra basis


@dataclass
class LieSuperalgebra:
    name: str
    symbols: list[str]
    parities: list[int]
    brackets: dict[tuple[int, int], Vec]
    form: dict[tuple[int, int], Fraction]
    e: int
    x: int
    f: int
    p_poly: Optional[tuple[Fraction, Fraction, Fraction]] = None  # monic: k^2 + a k + b
    real_form: str = "conjugation"

    @property
    def dim(self) -> int:
        return len(self.symbols)

    @property
    def sdim(self) -> int:
        return sum(1 if p == 0 else -1 for p in self.parities)

    def bracket(self, u: Vec, v: Vec) -> Vec:
        out: Vec = {}
        for i, ci in u.items():
            for j, cj in v.items():
                for k, c in self.brackets.get((i, j), {}).items():
                    out[k] = out.get(k, Fraction(0)) + ci * cj * c
        return {k: v2 for k, v2 in out.items() if v2}

    def B(self, u: Vec, v: Vec) -> Fraction:
        total = Fraction(0)
        for i, ci in u.items():
            for j, cj in v.items():
                val = self.form.get((i, j))
                if val is not None:
                    total += ci * cj * val
        return total

    def basis_vec(self, i: int) -> Vec:
        return {i: Fraction(1)}


# ---------------------------------------------------------------------------
# loading and validation
# ---------------------------------------------------------------------------


def _parse_structure_text(text: str, origin: str) -> LieSuperalgebra:
    name = origin
    symbols: list[str] = []
    parities: list[int] = []
    triple: Optional[tuple[int, int, int]] = None
    brackets: dict[tuple[int, int], Vec] = {}
    form: dict[tuple[int, int], Fraction] = {}
    p_poly = None
    real_form = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kw, args = fields[0], fields[1:]
        try:
            if kw == "name":
                name = " ".join(args)
            elif kw == "symbols":
                symbols = list(args)
            elif kw == "parity":
                parities = [int(a) for a in args]
                if any(p not in (0, 1) for p in parities):
                    raise ValueError("parity bits must be 0 or 1")
            elif kw == "triple":
                triple = (int(args[0]), int(args[1]), int(args[2]))
            elif kw == "bracket":
                i, j, k = int(args[0]), int(args[1]), int(args[2])
                brackets.setdefault((i, j), {})[k] = parse_rational(args[3])
            elif kw == "form":
                form[(int(args[0]), int(args[1]))] = parse_rational(args[2])
            elif kw == "p_poly":
                coeffs = [parse_rational(a) for a in args]
                if len(coeffs) != 3 or coeffs[0] != 1:
                    raise ValueError("p_poly expects the three coefficients of a monic quadratic")
                p_poly = (coeffs[0], coeffs[1], coeffs[2])
            elif kw == "real_form":
                real_form = args[0]
            else:
                raise ValueError(f"unknown keyword {kw!r}")
        except (IndexError, ValueError) as exc:
            raise StructureDataError(f"{origin}:{lineno}: {exc}") from None
    if not symbols:
        raise StructureDataError(f"{origin}: no symbols line")
    if len(parities) != len(symbols):
        raise StructureDataError(f"{origin}: parity list does not match the basis")
    if triple is None:
        raise StructureDataError(f"{origin}: missing sl2-triple data (triple line)")
    if real_form is None:
        raise StructureDataError(f"{origin}: missing real_form declaration")
    return LieSuperalgebra(
        name, symbols, parities, brackets, form, triple[0], triple[1], triple[2],
        p_poly=p_poly, real_form=real_form,
    )


def _validate(g: LieSuperalgebra):
    dim = g.dim
    par = g.parities

    def brk(i, j) -> Vec:
        return g.brackets.get((i, j), {})

    for (i, j) in g.brackets:
        if not (0 <= i < dim and 0 <= j < dim):
            raise StructureDataError(f"{g.name}: bracket index out of range ({i},{j})")
    # super-antisymmetry
    for (i, j), entries in g.brackets.items():
        sign = -1 if (par[i] and par[j]) else 1
        other = brk(j, i)
        for k, c in entries.items():
            if other.get(k, Fraction(0)) != -sign * c:
                raise StructureDataError(f"{g.name}: bracket not super-antisymmetric at ({i},{j})->{k}")
        # parity compatibility of the bracket
        for k in entries:
            if par[k] != (par[i] + par[j]) % 2:
                raise StructureDataError(f"{g.name}: bracket parity violation at ({i},{j})->{k}")
    # Jacobi superidentity: [a,[b,c]] = [[a,b],c] + (-1)^{p(a)p(b)} [b,[a,c]]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                lhs = g.bracket({i: Fraction(1)}, brk(j, k))
                rhs = g.bracket(brk(i, j), {k: Fraction(1)})
                sgn = -1 if (par[i] and par[j]) else 1
                for t, c in g.bracket({j: Fraction(1)}, brk(i, k)).items():
                    rhs[t] = rhs.get(t, Fraction(0)) + sgn * c
                for t in set(lhs) | set(rhs):
                    if lhs.get(t, Fraction(0)) != rhs.get(t, Fraction(0)):
                        raise StructureDataError(
                            f"{g.name}: Jacobi identity fails on triple "
                            f"({g.symbols[i]},{g.symbols[j]},{g.symbols[k]})"
                        )
    # form: even, supersymmetric, invariant
    for (i, j), v in g.form.items():
        if par[i] != par[j]:
            raise StructureDataError(f"{g.name}: form pairs different parities at ({i},{j})")
        sgn = -1 if (par[i] and par[j]) else 1
        if g.form.get((j, i), Fraction(0)) != sgn * v:
            raise StructureDataError(f"{g.name}: form not supersymmetric at ({i},{j})")
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                lhs = g.B(brk(i, j), {k: Fraction(1)})
                rhs = g.B({i: Fraction(1)}, brk(j, k))
                if lhs != rhs:
                    raise StructureDataError(
                        f"{g.name}: form not invariant on ({g.symbols[i]},{g.symbols[j]},{g.symbols[k]})"
                    )
    # triple relations
    if brk(g.x, g.e) != {g.e: Fraction(1)}:
        raise StructureDataError(f"{g.name}: [x,e] != e")
    if brk(g.x, g.f) != {g.f: Fraction(-1)}:
        raise StructureDataError(f"{g.name}: [x,f] != -f")
    if brk(g.e, g.f) != {g.x: Fraction(2)}:
        raise StructureDataError(f"{g.name}: [e,f] != 2x")
    # real form: rational structure constants realize the declared
    # conjugation form; anything else is not supported
    if g.real_form != "conjugation":
        raise StructureDataError(f"{g.name}: unsupported real_form {g.real_form!r}")


def _normalize_form(g: LieSuperalgebra):
    bxx = g.form.get((g.x, g.x), Fraction(0))
    if bxx == 0:
        raise StructureDataError(f"{g.name}: B(x,x) = 0; cannot normalize")
    if bxx != Fraction(1, 2):
        factor = Fraction(1, 2) / bxx
        g.form = {k: v * factor for k, v in g.form.items()}


def load_superalgebra(source: Union[str, Path]) -> LieSuperalgebra:
    """Load and fully validate a structure file (path or bundled name).

    The invariant form is rescaled so that B(x,x) = 1/2.
    """
    path = Path(source)
    if not path.exists():
        bundled = _BUNDLED.get(str(source))
        if bundled is None:
            raise StructureDataError(f"no such structure file or bundled algebra: {source}")
        data_dir = os.environ.get(DATA_ENV_VAR)
        path = (Path(data_dir) if data_dir else Path(__file__).parent / "data") / bundled
        if not path.exists():
            raise StructureDataError(f"structure file missing: {path}")
    g = _parse_structure_text(path.read_text(), str(source))
    _normalize_form(g)
    _validate(g)
    return g


def bundled_names() -> list[str]:
    return sorted(_BUNDLED)


# ---------------------------------------------------------------------------
# gradation, centralizer, Casimir
# ---------------------------------------------------------------------------


@dataclass
class MinimalGradation:
    """Basis indices of the ad x eigenspaces, keyed by twice the eigenvalue."""

    eigenspaces: dict[int, list[int]]

    def dims(self) -> tuple[int, int, int, int, int]:
        return tuple(len(self.eigenspaces.get(t, [])) for t in (-2, -1, 0, 1, 2))


def minimal_gradation(g: LieSuperalgebra) -> MinimalGradation:
    """Eigenspace decomposition of ad x with eigenvalues in {0, +-1/2, +-1}.

    Requires every basis vector to be an eigenvector (the bundled bases
    are), dim g_{+-1} = 1, and, for the unitary setting, parities
    compatible with the gradation.
    """
    spaces: dict[int, list[int]] = {}
    for i in range(g.dim):
        image = g.bracket(g.basis_vec(g.x), g.basis_vec(i))
        if not image:
            spaces.setdefault(0, []).append(i)
            continue
        if set(image) != {i}:
            raise StructureDataError(f"{g.name}: basis vector {g.symbols[i]} is not an ad x eigenvector")
        lam = image[i]
        if lam.denominator not in (1, 2) or abs(lam) > 1:
            raise StructureDataError(f"{g.name}: ad x eigenvalue {lam} outside {{0,±1/2,±1}}")
        spaces.setdefault(int(2 * lam), []).append(i)
    if len(spaces.get(2, [])) != 1 or len(spaces.get(-2, [])) != 1:
        raise StructureDataError(f"{g.name}: gradation is not minimal (dim g_±1 != 1)")
    for t, idxs in spaces.items():
        want = abs(t) % 2
        for i in idxs:
            if g.parities[i] != want:
                raise StructureDataError(
                    f"{g.name}: parity of {g.symbols[i]} incompatible with its ad x eigenvalue"
                )
    return MinimalGradation(spaces)


@dataclass
class Centralizer:
    """g-natural: the centralizer of the triple inside the zero eigenspace."""

    basis: list[Vec]
    dual_basis: list[Vec]
    grading: MinimalGradation

    @property
    def dim(self) -> int:
        return len(self.basis)


def g_natural(g: LieSuperalgebra, grading: Optional[MinimalGradation] = None) -> Centralizer:
    """Basis of {a in g_0 : B(a,x) = 0}, with B-dual bases and projection."""
    grading = grading or minimal_gradation(g)
    zero = grading.eigenspaces.get(0, [])
    bx = g.basis_vec(g.x)
    basis: list[Vec] = []
    for i in zero:
        v = g.basis_vec(i)
        coeff = g.B(v, bx)
        if coeff != 0:
            v = dict(v)
            v[g.x] = v.get(g.x, Fraction(0)) - 2 * coeff  # B(x,x) = 1/2
            v = {k: c for k, c in v.items() if c}
        if v and set(v) != {g.x}:
            basis.append(v)
    # remove linear dependence (the x-line may have been hit twice)
    basis = _independent(basis, g.dim)
    n = len(basis)
    gram = [[g.B(basis[i], basis[j]) for j in range(n)] for i in range(n)]
    inv = _invert(gram, f"{g.name}: form degenerate on the centralizer")
    dual = []
    for j in range(n):
        v: Vec = {}
        for k in range(n):
            if inv[k][j]:
                for idx, c in basis[k].items():
                    v[idx] = v.get(idx, Fraction(0)) + inv[k][j] * c
        dual.append({k: c for k, c in v.items() if c})
    return Centralizer(basis, dual, grading)


def natural_projection(g: LieSuperalgebra, v: Vec) -> Vec:
    """Project g_0 onto the centralizer along the x-line."""
    coeff = g.B(v, g.basis_vec(g.x))
    out = dict(v)
    out[g.x] = out.get(g.x, Fraction(0)) - 2 * coeff
    return {k: c for k, c in out.items() if c}


def _independent(vecs: list[Vec], dim: int) -> list[Vec]:
    rows: list[list[Fraction]] = []
    keep = []
    for v in vecs:
        row = [v.get(i, Fraction(0)) for i in range(dim)]
        work = row[:]
        for r in rows:
            lead = next((i for i, c in enumerate(r) if c), None)
            if lead is not None and work[lead]:
                factor = work[lead] / r[lead]
                work = [a - factor * b for a, b in zip(work, r)]
        if any(work):
            rows.append(work)
            keep.append(v)
    return keep


def _invert(mat: list[list[Fraction]], errmsg: str) -> list[list[Fraction]]:
    n = len(mat)
    aug = [row[:] + [Fraction(1) if r == c else Fraction(0) for c in range(n)] for r, row in enumerate(mat)]
    for col in range(n):
        sel = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if sel is None:
            raise StructureDataError(errmsg)
        aug[col], aug[sel] = aug[sel], aug[col]
        piv = aug[col][col]
        aug[col] = [v / piv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [[aug[r][n + c] for c in range(n)] for r in range(n)]


def dual_coxeter(g: LieSuperalgebra) -> Fraction:
    """Half the (scalar) adjoint Casimir eigenvalue of (g, B)."""
    dim = g.dim
    gram = [[g.form.get((i, j), Fraction(0)) for j in range(dim)] for i in range(dim)]
    inv = _invert(gram, f"{g.name}: invariant form is degenerate")
    eig: Optional[Fraction] = None
    for a in range(dim):
        acc: Vec = {}
        for i in range(dim):
            sgn = -1 if g.parities[i] else 1
            dual_i: Vec = {k: inv[k][i] for k in range(dim) if inv[k][i]}
            inner = g.bracket(dual_i, g.basis_vec(a))
            for t, c in g.bracket(g.basis_vec(i), inner).items():
                acc[t] = acc.get(t, Fraction(0)) + sgn * c
        acc = {k: v for k, v in acc.items() if v}
        lam = acc.get(a, Fraction(0))
        if set(acc) - {a}:
            raise StructureDataError(f"{g.name}: adjoint Casimir is not scalar")
        if eig is None:
            eig = lam
        elif lam != eig:
            raise StructureDataError(f"{g.name}: adjoint Casimir is not scalar")
    return (eig or Fraction(0)) / 2


# ---------------------------------------------------------------------------
# central charge
# ---------------------------------------------------------------------------


def central_charge_data(h_dual: Fraction, sdim: int, k=None):
    """c(k) = k*d/(k+h_dual) - 6k + h_dual - 4, numeric or symbolic."""
    if k is None:
        kk = RationalFunction.variable()
        return (kk * sdim) / (kk + h_dual) - 6 * kk + (h_dual - 4)
    k = Fraction(k)
    if k == -h_dual:
        raise ValueError(f"central charge has a pole at k = {k}")
    return k * sdim / (k + h_dual) - 6 * k + h_dual - 4


def central_charge(g: LieSuperalgebra, k=None):
    return central_charge_data(dual_coxeter(g), g.sdim, k)


# ---------------------------------------------------------------------------
# generator brackets as polynomials in the level
# ---------------------------------------------------------------------------

# WElement symbols: ("omega",) the vacuum, ("nu",) the conformal vector,
# ("J", i), ("G", i), ("JJ", i, j) a normally ordered current pair,
# ("TJ", i) a translated current; i, j index the centralizer bases.
WSymbol = tuple
WElement = dict[WSymbol, RationalFunction]
LambdaPolynomial = dict[int, WElement]


def _wadd(a: WElement, key: WSymbol, coeff: RationalFunction):
    if coeff.is_zero():
        return
    cur = a.get(key)
    total = coeff if cur is None else cur + coeff
    if total.is_zero():
        a.pop(key, None)
    else:
        a[key] = total


def killing_form_zero_part(g: LieSuperalgebra, grading: MinimalGradation, u: Vec, v: Vec) -> Fraction:
    """Supertrace of ad(u) ad(v) restricted to the zero eigenspace."""
    zero = grading.eigenspaces.get(0, [])
    total = Fraction(0)
    for i in zero:
        w = g.bracket(v, g.basis_vec(i))
        w = g.bracket(u, w)
        sgn = -1 if g.parities[i] else 1
        total += sgn * w.get(i, Fraction(0))
    return total


def pairing_odd(g: LieSuperalgebra, u: Vec, v: Vec) -> Fraction:
    """<u, v> = B(e, [u, v]) on the -1/2 eigenspace.

    The grading forces the pairing through e (the +1 root vector): the
    anticommutator [u, v] lies on the f-line and only B(e, .) sees it.
    """
    return g.B(g.basis_vec(g.e), g.bracket(u, v))


def _expand_in(cz: Centralizer, g: LieSuperalgebra, v: Vec) -> list[Fraction]:
    """Coordinates of a centralizer element in the centralizer basis."""
    coords = []
    for a, dual in enumerate(cz.dual_basis):
        coords.append(g.B(dual, v))
    # residual check
    residual = dict(v)
    for a, c in enumerate(coords):
        for idx, bc in cz.basis[a].items():
            residual[idx] = residual.get(idx, Fraction(0)) - c * bc
    if any(residual.values()):
        raise ValueError(f"{g.name}: vector leaves the centralizer span")
    return coords


def lambda_bracket(
    g: LieSuperalgebra,
    kind: str,
    u: Vec,
    v: Vec,
    *,
    centralizer: Optional[Centralizer] = None,
    p_poly: Optional[tuple[Fraction, Fraction, Fraction]] = None,
) -> LambdaPolynomial:
    """The bracket coefficients of two strong generators, by kind.

    Entry j of the result is the coefficient of lambda^j, a WElement
    with level-dependent coefficients.  kinds: "JJ", "JG", "GG".  For
    "GG" the monic quadratic p(k) is required configuration (from the
    structure file's p_poly line or the p_poly argument).
    """
    cz = centralizer or g_natural(g)
    grading = cz.grading
    hd = dual_coxeter(g)
    kvar = RationalFunction.variable()
    out: LambdaPolynomial = {}

    def in_span(vec: Vec, indices: list[int], what: str):
        if set(vec) - set(indices):
            raise ValueError(f"{g.name}: {what} argument outside its declared subspace")

    minus_half = grading.eigenspaces.get(-1, [])
    zero = grading.eigenspaces.get(0, [])

    if kind == "JJ":
        if cz.dim == 0:
            raise ValueError(f"{g.name}: no currents (the centralizer is zero)")
        in_span(u, zero, "JJ")
        in_span(v, zero, "JJ")
        lvl0: WElement = {}
        coords = _expand_in(cz, g, g.bracket(u, v))
        for a, c in enumerate(coords):
            _wadd(lvl0, ("J", a), RationalFunction.constant(c))
        if lvl0:
            out[0] = lvl0
        gamma = (kvar + hd / 2) * g.B(u, v) - Fraction(1, 4) * killing_form_zero_part(g, grading, u, v)
        if not gamma.is_zero():
            out[1] = {("omega",): gamma}
        return out

    if kind == "JG":
        in_span(u, zero, "JG current")
        in_span(v, minus_half, "JG odd")
        w = g.bracket(u, v)
        lvl0 = {}
        coords = _coords_in_indices(g, w, minus_half)
        for i, c in coords.items():
            _wadd(lvl0, ("G", i), RationalFunction.constant(c))
        if lvl0:
            out[0] = lvl0
        return out

    if kind == "GG":
        in_span(u, minus_half, "GG")
        in_span(v, minus_half, "GG")
        pk = p_poly or g.p_poly
        uv = pairing_odd(g, u, v)
        lvl0: WElement = {}
        _wadd(lvl0, ("nu",), RationalFunction.constant(-2 * uv) * (kvar + hd))
        # <u,v> sum_a :J^{u^a} J^{u_a}:  -- symbol ("JJ", a, b) is the
        # normally ordered pair with the first factor in the dual basis
        for a in range(cz.dim):
            _wadd(lvl0, ("JJ", a, a), RationalFunction.constant(uv))
        # cross terms 2 <[u_a, u], [v, u^b]> :J^{u^a} J^{u_b}:
        for a in range(cz.dim):
            ua_u = g.bracket(cz.basis[a], u)
            for b in range(cz.dim):
                v_ub = g.bracket(v, cz.dual_basis[b])
                c = 2 * pairing_odd(g, ua_u, v_ub)
                if c:
                    _wadd(lvl0, ("JJ", a, b), RationalFunction.constant(c))
        core = natural_projection(g, g.bracket(g.bracket(g.basis_vec(g.e), u), v))
        core_coords = _expand_in(cz, g, core) if cz.dim else []
        for a, c in enumerate(core_coords):
            _wadd(lvl0, ("TJ", a), RationalFunction.constant(2 * c) * (kvar + 1))
        if lvl0:
            out[0] = lvl0
        lvl1: WElement = {}
        for a, c in enumerate(core_coords):
            _wadd(lvl1, ("J", a), RationalFunction.constant(2 * c))
        for a in range(cz.dim):
            ua_u = g.bracket(cz.basis[a], u)
            for b in range(cz.dim):
                v_ub = g.bracket(v, cz.dual_basis[b])
                c = 2 * pairing_odd(g, ua_u, v_ub)
                if c:
                    comm = g.bracket(cz.dual_basis[a], cz.basis[b])
                    for idx, cc in enumerate(_expand_in(cz, g, comm)):
                        _wadd(lvl1, ("J", idx), RationalFunction.constant(c * cc))
        if lvl1:
            out[1] = lvl1
        if uv:
            if pk is None:
                raise ValueError(
                    f"{g.name}: the GG bracket needs the monic quadratic p(k); "
                    "supply it via the structure file's p_poly line or the p_poly argument"
                )
            pfun = RationalFunction.from_poly([pk[2], pk[1], pk[0]])
            out[2] = {("omega",): RationalFunction.constant(2 * uv) * pfun}
        return out

    raise ValueError(f"unknown bracket kind {kind!r}")


def _coords_in_indices(g: LieSuperalgebra, v: Vec, indices: list[int]) -> dict[int, Fraction]:
    extra = set(v) - set(indices)
    if extra:
        raise ValueError(f"{g.name}: vector has components outside the expected eigenspace")
    return {i: c for i, c in v.items() if c}


# ---------------------------------------------------------------------------
# mode commutators via the weighted binomial expansion
# ---------------------------------------------------------------------------


@dataclass
class ModeCombination:
    """Symbolic combination of generator modes plus a central scalar."""

    terms: dict[tuple, RationalFunction] = field(default_factory=dict)
    scalar: RationalFunction = field(default_factory=RationalFunction)

    def add_term(self, key: tuple, coeff: RationalFunction):
        if coeff.is_zero():
            return
        cur = self.terms.get(key)
        total = coeff if cur is None else cur + coeff
        if total.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = total

    def __eq__(self, other):
        if not isinstance(other, ModeCombination):
            return NotImplemented
        return self.terms == other.terms and self.scalar == other.scalar

    def negated(self) -> "ModeCombination":
        out = ModeCombination()
        out.scalar = -self.scalar
        out.terms = {k: -v for k, v in self.terms.items()}
        return out


_WEIGHTS = {"nu": 2, "J": 1, "G": Fraction(3, 2), "JJ": 2, "TJ": 2, "omega": 0}


def borcherds_modes(a_weight: HalfInt, lp: LambdaPolynomial, p: HalfInt, q: HalfInt) -> ModeCombination:
    """[a_p, b_q] = sum_j C(p + wt(a) - 1, j) * j! * (lambda^j coefficient) at mode p+q.

    The vacuum symbol becomes a central delta_{p+q,0} scalar; a
    translated current TJ resolves to -(mode+1) times the current mode.
    Unsupported symbols are rejected.
    """
    p, q = HalfInt(p), HalfInt(q)
    mode = p + q
    out = ModeCombination()
    x = p.as_fraction() + HalfInt(a_weight).as_fraction() - 1
    for j, element in sorted(lp.items()):
        weight = binom(x, j) * factorial(j)
        if weight == 0:
            continue
        for sym, coeff in element.items():
            head = sym[0]
            if head not in _WEIGHTS:
                raise ValueError(f"unsupported field symbol {sym!r} in mode expansion")
            total = coeff * weight
            if head == "omega":
                if mode == 0:
                    out.scalar = out.scalar + total
            elif head == "nu":
                out.add_term(("L", mode), total)
            elif head == "J":
                out.add_term(("J", sym[1], mode), total)
            elif head == "G":
                out.add_term(("G", sym[1], mode), total)
            elif head == "JJ":
                out.add_term(("JJ", sym[1], sym[2], mode), total)
            elif head == "TJ":
                out.add_term(("J", sym[1], mode), total * (-(mode.as_fraction() + 1)))
    return out


# ---------------------------------------------------------------------------
# unitary ranges and collapsing levels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RangeData:
    """k in step * Z_{<= bound}, or a finite list of isolated levels."""

    name: str
    h_dual: Fraction
    sdim: int
    step: Optional[Fraction] = None
    bound: Optional[int] = None
    isolated: tuple[Fraction, ...] = ()
    note: str = ""

    def describe(self) -> str:
        if self.step is not None:
            return f"k in ({self.step})*Z_<={self.bound}"
        if self.isolated:
            return "k in {" + ", ".join(str(k) for k in self.isolated) + "}"
        return self.note

    def contains(self, k: Fraction) -> bool:
        if self.step is not None:
            ratio = Fraction(k) / self.step
            return ratio.denominator == 1 and ratio <= self.bound
        return Fraction(k) in self.isolated


@dataclass(frozen=True)
class CollapsingLevel:
    k: Fraction
    target: str
    central_charge: Optional[Fraction] = None


def _parse_name(name: str):
    name = name.replace(" ", "")
    m = re.fullmatch(r"sl\(2\|(\d+)\)", name)
    if m:
        return ("sl2m", int(m.group(1)))
    m = re.fullmatch(r"sl\((\d+)\|(\d+)\)", name)
    if m:
        return ("slmn", int(m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"spo\(2\|(\d+)\)", name)
    if m:
        return ("spo2m", int(m.group(1)))
    m = re.fullmatch(r"osp\((\d+)\|(\d+)\)", name)
    if m:
        return ("ospmn", int(m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"D\(2,1;(-?\d+(?:/\d+)?)\)", name)
    if m:
        return ("d21", Fraction(m.group(1)))
    if name == "psl(2|2)":
        return ("psl22",)
    if name in ("F(4)", "F4"):
        return ("f4",)
    if name == "G(3)":
        return ("g3",)
    if name in ("G2", "G(2)"):
        return ("g2lie",)
    if name == "sl2":
        return ("sl2",)
    return None


def canonical_d21_parameter(a: Fraction) -> tuple[int, int]:
    """Canonical (m, n) for the one-parameter family: the orbit of a under
    a -> 1/a and a -> -1-a contains exactly one rational >= 1 (for valid a);
    return it as a coprime pair."""
    a = Fraction(a)
    if a in (0, -1):
        raise ValueError("parameter must avoid 0 and -1")
    orbit = set()
    frontier = {a}
    while frontier:
        b = frontier.pop()
        if b in orbit:
            continue
        orbit.add(b)
        for img in (1 / b, -1 - b):
            if img not in (0, -1) and img not in orbit:
                frontier.add(img)
    positives = sorted(b for b in orbit if b >= 1)
    if not positives:
        raise ValueError(f"no canonical representative for {a}")
    rep = positives[0]
    return rep.numerator, rep.denominator


def unitary_range(g_name: str) -> RangeData:
    """Exact unitary-range data for the catalog of minimal-nilpotent algebras."""
    parsed = _parse_name(g_name)
    if parsed is None:
        raise ValueError(f"unknown algebra name {g_name!r}")
    kind = parsed[0]
    if kind == "sl2m":
        m = parsed[1]
        if m < 3:
            raise ValueError("the sl(2|m) range data starts at m = 3")
        return RangeData(g_name, Fraction(2 - m), m * m - 4 * m + 3, isolated=(Fraction(-1),))
    if kind == "psl22":
        return RangeData(g_name, Fraction(0), -2, step=Fraction(1), bound=-2)
    if kind == "spo2m":
        m = parsed[1]
        if m == 3:
            return RangeData(g_name, Fraction(1, 2), 0, step=Fraction(1, 4), bound=-3)
        if m >= 4:
            return RangeData(g_name, Fraction(2) - Fraction(m, 2), 3 + m * (m - 5) // 2,
                             step=Fraction(1, 2), bound=-2)
        # the three small cases carry the classical series instead
        series = {0: "virasoro", 1: "ns", 2: "n2"}
        hd = {0: Fraction(2), 1: Fraction(3, 2), 2: Fraction(1)}[m]
        d = {0: 3, 1: 1, 2: 0}[m]
        return RangeData(g_name, hd, d,
                         note=f"discrete series k = 1/p - 1 plus the continuum (see {series!r} series)")
    if kind == "sl2":
        return RangeData(g_name, Fraction(2), 3,
                         note="discrete series k = 1/p - 1 plus the continuum ('virasoro' series)")
    if kind == "d21":
        m, n = canonical_d21_parameter(parsed[1])
        if (m, n) == (1, 1):
            raise ValueError("D(2,1;1) is isomorphic to spo(2|4); use that name")
        return RangeData(g_name, Fraction(0), 1, step=Fraction(m * n, m + n), bound=-1)
    if kind == "f4":
        return RangeData(g_name, Fraction(-2), 8, step=Fraction(2, 3), bound=-2)
    if kind == "g3":
        return RangeData(g_name, Fraction(-3, 2), 3, step=Fraction(3, 4), bound=-2)
    raise ValueError(f"no unitary-range data for {g_name!r}")


def collapsing_levels(g_name: str) -> list[CollapsingLevel]:
    """Collapsing levels with unitary targets, per catalog name."""
    parsed = _parse_name(g_name)
    if parsed is None:
        raise ValueError(f"unknown algebra name {g_name!r}")
    kind = parsed[0]
    if kind == "sl2m":
        return [CollapsingLevel(Fraction(-1), "heisenberg M(1)", Fraction(1))]
    if kind == "slmn":
        m, n = parsed[1], parsed[2]
        if m > 2 and n >= 1 and m not in (n, n + 1, n + 2):
            return [CollapsingLevel(Fraction(-1), "heisenberg M(1)", Fraction(1))]
        raise ValueError(f"no collapsing data for {g_name!r}")
    if kind == "psl22":
        return [CollapsingLevel(Fraction(-1), "trivial")]
    if kind == "spo2m":
        m = parsed[1]
        if m == 3:
            return [
                CollapsingLevel(Fraction(-1, 2), "trivial"),
                CollapsingLevel(Fraction(-3, 4), "affine sl2 level 1", Fraction(1)),
            ]
        if m >= 4:
            return [CollapsingLevel(Fraction(-1, 2), "trivial")]
        raise ValueError(f"no collapsing data for {g_name!r}")
    if kind == "d21":
        m, n = canonical_d21_parameter(parsed[1])
        out = []
        if n == 1 and m >= 2:
            out.append(
                CollapsingLevel(Fraction(-m, m + 1), f"affine sl2 level {m - 1}", Fraction(3 * (m - 1), m + 1))
            )
        return out
    if kind == "f4":
        return [CollapsingLevel(Fraction(-2, 3), "trivial")]
    if kind == "g3":
        return [CollapsingLevel(Fraction(-3, 4), "trivial")]
    if kind == "g2lie":
        return [CollapsingLevel(Fraction(-4, 3), "affine sl2 level 1", Fraction(1))]
    if kind == "ospmn":
        m, n = parsed[1], parsed[2]
        if m - n >= 10 and (m - n) % 2 == 0:
            lvl = Fraction(m - n - 8, 2)
            return [CollapsingLevel(Fraction(-2), f"affine sl2 level {lvl}", Fraction(3 * (m - n - 8), m - n - 4))]
        raise ValueError(f"no collapsing data for {g_name!r}")
    raise ValueError(f"no collapsing data for {g_name!r}")
