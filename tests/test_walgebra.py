import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from supervir import walgebra
from supervir.halfint import half
from supervir.ratfunc import RationalFunction
from supervir.walgebra import (
    CollapsingLevel,
    StructureDataError,
    borcherds_modes,
    bundled_names,
    canonical_d21_parameter,
    central_charge,
    central_charge_data,
    collapsing_levels,
    dual_coxeter,
    g_natural,
    lambda_bracket,
    load_superalgebra,
    minimal_gradation,
    unitary_range,
)

K = RationalFunction.variable()


@pytest.fixture(scope="module")
def algebras():
    return {name: load_superalgebra(name) for name in bundled_names()}


# ---------------------------------------------------------------------------
# loading, validation and structural data
# ---------------------------------------------------------------------------


def test_bundled_load_and_sdim(algebras):
    assert algebras["sl2"].sdim == 3
    assert algebras["spo(2|1)"].sdim == 1
    assert algebras["spo(2|2)"].sdim == 0
    assert algebras["spo(2|3)"].sdim == 0
    assert algebras["psl(2|2)"].sdim == -2


def _data_path(fname):
    from pathlib import Path

    import supervir.walgebra

    return Path(supervir.walgebra.__file__).parent / "data" / fname


def test_corrupted_bracket_fails_antisymmetry(tmp_path):
    broken = []
    for line in _data_path("sl2.alg").read_text().splitlines():
        if line.startswith("bracket 0 2 1 2"):
            line = "bracket 0 2 1 3"  # perturb one side of [e,f]
        broken.append(line)
    bad = tmp_path / "bad.alg"
    bad.write_text("\n".join(broken) + "\n")
    with pytest.raises(StructureDataError, match="antisymmetric"):
        load_superalgebra(bad)


def test_corrupted_bracket_fails_jacobi_naming_the_triple(tmp_path):
    # perturb [x, u0] consistently on both sides so antisymmetry survives
    broken = []
    for line in _data_path("spo2_1.alg").read_text().splitlines():
        if line.startswith("bracket 1 3 3 1/2"):
            line = "bracket 1 3 3 1"
        elif line.startswith("bracket 3 1 3 -1/2"):
            line = "bracket 3 1 3 -1"
        broken.append(line)
    bad = tmp_path / "bad.alg"
    bad.write_text("\n".join(broken) + "\n")
    with pytest.raises(StructureDataError, match="Jacobi") as err:
        load_superalgebra(bad)
    assert "triple (" in str(err.value)  # the diagnostic names the witnesses


def test_missing_triple_is_diagnosed(tmp_path):
    bad = tmp_path / "no_triple.alg"
    bad.write_text("symbols a\nparity 0\nreal_form conjugation\n")
    with pytest.raises(StructureDataError, match="triple"):
        load_superalgebra(bad)


def test_unknown_name_rejected():
    with pytest.raises(StructureDataError):
        load_superalgebra("e8")


def test_gradations(algebras):
    expected = {
        "sl2": (1, 0, 1, 0, 1),
        "spo(2|1)": (1, 1, 1, 1, 1),
        "spo(2|2)": (1, 2, 2, 2, 1),
        "spo(2|3)": (1, 3, 4, 3, 1),
        "psl(2|2)": (1, 4, 4, 4, 1),
    }
    for name, dims in expected.items():
        assert minimal_gradation(algebras[name]).dims() == dims, name


def test_g_natural(algebras):
    dims = {"sl2": 0, "spo(2|1)": 0, "spo(2|2)": 1, "spo(2|3)": 3, "psl(2|2)": 3}
    for name, d in dims.items():
        g = algebras[name]
        cz = g_natural(g)
        assert cz.dim == d, name
        for a in range(cz.dim):
            for b in range(cz.dim):
                want = Fraction(1) if a == b else Fraction(0)
                assert g.B(cz.basis[a], cz.dual_basis[b]) == want, (name, a, b)
        # the projection of x vanishes
        from supervir.walgebra import natural_projection

        assert natural_projection(g, g.basis_vec(g.x)) == {}


def test_dual_coxeter(algebras):
    expected = {
        "sl2": Fraction(2),
        "spo(2|1)": Fraction(3, 2),
        "spo(2|2)": Fraction(1),
        "spo(2|3)": Fraction(1, 2),
        "psl(2|2)": Fraction(0),
    }
    for name, value in expected.items():
        assert dual_coxeter(algebras[name]) == value, name


# ---------------------------------------------------------------------------
# central charges
# ---------------------------------------------------------------------------


def test_central_charge_values(algebras):
    assert central_charge(algebras["sl2"], Fraction(-2, 3)) == Fraction(1, 2)
    assert central_charge(algebras["spo(2|3)"], Fraction(-3, 4)) == Fraction(1)
    assert central_charge(algebras["psl(2|2)"], Fraction(-2)) == Fraction(6)
    with pytest.raises(ValueError):
        central_charge(algebras["sl2"], Fraction(-2))


def test_central_charge_symbolic(algebras):
    assert central_charge(algebras["sl2"]) == 1 - 6 * (K + 1) * (K + 1) / (K + 2)
    assert central_charge(algebras["spo(2|1)"]) == Fraction(3, 2) - 12 * (K + 1) * (K + 1) / (2 * K + 3)
    assert central_charge(algebras["spo(2|2)"]) == -3 * (2 * K + 1)
    assert central_charge(algebras["spo(2|3)"]) + Fraction(1, 2) == -(6 * K + 3)
    assert central_charge_data(Fraction(0), 1) + 3 == -6 * K
    assert central_charge(algebras["psl(2|2)"]) == -6 * (K + 1)


def test_discrete_series_crosscheck(algebras):
    # the closed series forms agree with the structural formula at k = 1/p - 1
    from supervir.superalg import discrete_series

    for p in range(2, 8):
        k = Fraction(1, p) - 1
        assert central_charge(algebras["sl2"], k) == discrete_series("vir", p)
        assert central_charge(algebras["spo(2|1)"], k) == discrete_series("ns", p)
        assert central_charge(algebras["spo(2|2)"], k) == discrete_series("n2", p)


# ---------------------------------------------------------------------------
# bracket coefficients of the strong generators
# ---------------------------------------------------------------------------


def test_gg_bracket_rank_one(algebras):
    g = algebras["spo(2|1)"]
    cz = g_natural(g)
    v = g.basis_vec(cz.grading.eigenspaces[-1][0])
    p_cfg = (Fraction(1), Fraction(7, 4), Fraction(5, 8))
    lb = lambda_bracket(g, "GG", v, v, p_poly=p_cfg)
    from supervir.walgebra import pairing_odd

    uv = pairing_odd(g, v, v)
    assert uv != 0
    assert set(lb) == {0, 2}  # no currents: the lambda^1 part vanishes
    assert lb[0] == {("nu",): RationalFunction.constant(-2 * uv) * (K + Fraction(3, 2))}
    pfun = RationalFunction.from_poly([p_cfg[2], p_cfg[1], p_cfg[0]])
    assert lb[2] == {("omega",): RationalFunction.constant(2 * uv) * pfun}


def test_gg_bracket_requires_p(algebras):
    g = algebras["spo(2|1)"]
    cz = g_natural(g)
    v = g.basis_vec(cz.grading.eigenspaces[-1][0])
    with pytest.raises(ValueError, match="p\\(k\\)"):
        lambda_bracket(g, "GG", v, v)


def test_jg_bracket_single_term(algebras):
    g = algebras["spo(2|2)"]
    cz = g_natural(g)
    u = cz.basis[0]
    v = g.basis_vec(cz.grading.eigenspaces[-1][0])
    lb = lambda_bracket(g, "JG", u, v)
    assert set(lb) == {0}
    assert all(sym[0] == "G" for sym in lb[0])


def test_jj_bracket_needs_currents(algebras):
    g = algebras["sl2"]
    x = g.basis_vec(g.x)
    with pytest.raises(ValueError):
        lambda_bracket(g, "JJ", x, x)


def test_arguments_outside_subspace_rejected(algebras):
    g = algebras["spo(2|2)"]
    cz = g_natural(g)
    with pytest.raises(ValueError):
        lambda_bracket(g, "JG", g.basis_vec(g.e), cz.basis[0])


# ---------------------------------------------------------------------------
# mode commutators
# ---------------------------------------------------------------------------


def test_borcherds_jj_modes(algebras):
    g = algebras["spo(2|3)"]
    cz = g_natural(g)
    hd = dual_coxeter(g)
    for a in range(cz.dim):
        for b in range(cz.dim):
            u, v = cz.basis[a], cz.basis[b]
            lb = lambda_bracket(g, "JJ", u, v)
            for m in (-2, 1, 3):
                for n in (-3, -1, 2):
                    mc = borcherds_modes(half(2), lb, half(2 * m), half(2 * n))
                    mc_swapped = borcherds_modes(half(2), lambda_bracket(g, "JJ", v, u), half(2 * n), half(2 * m))
                    assert mc == mc_swapped.negated(), (a, b, m, n)
                    # central term: m * gamma(k) * delta_{m,-n}
                    if m == -n:
                        from supervir.walgebra import killing_form_zero_part

                        gamma = (K + hd / 2) * g.B(u, v) - Fraction(1, 4) * killing_form_zero_part(
                            g, cz.grading, u, v
                        )
                        assert mc.scalar == m * gamma
                    else:
                        assert mc.scalar.is_zero()


def test_borcherds_jg_modes(algebras):
    g = algebras["spo(2|3)"]
    cz = g_natural(g)
    u = cz.basis[0]
    v = g.basis_vec(cz.grading.eigenspaces[-1][0])
    lb = lambda_bracket(g, "JG", u, v)
    mc = borcherds_modes(half(2), lb, half(2), half(-1))
    # a single G term at the summed mode, no central part
    assert mc.scalar.is_zero()
    assert all(key[0] == "G" and key[-1] == half(1) for key in mc.terms)
    # exchange antisymmetry against the odd-even bracket
    neg = {j: {sym: -c for sym, c in el.items()} for j, el in lb.items()}
    mc_swapped = borcherds_modes(half(3), neg, half(-1), half(2))
    assert mc == mc_swapped.negated()


def test_borcherds_rejects_unknown_symbols():
    bad = {0: {("Tnu",): RationalFunction.constant(1)}}
    with pytest.raises(ValueError):
        borcherds_modes(half(4), bad, half(2), half(-2))


def test_gg_borcherds_reduces_to_one_supercharge(algebras):
    """For the rank-one case the GG mode commutator is the familiar
    {G_m, G_n} = 2 L_{m+n}-type relation with central term."""
    g = algebras["spo(2|1)"]
    cz = g_natural(g)
    v = g.basis_vec(cz.grading.eigenspaces[-1][0])
    from supervir.walgebra import pairing_odd

    uv = pairing_odd(g, v, v)
    p_cfg = (Fraction(1), Fraction(0), Fraction(0))
    lb = lambda_bracket(g, "GG", v, v, p_poly=p_cfg)
    mc = borcherds_modes(half(3), lb, half(3), half(-3))  # m = n = 3/2 paired
    assert mc.terms == {("L", half(0)): RationalFunction.constant(-2 * uv) * (K + Fraction(3, 2))}
    # central: C(m+1/2, 2) * 2! * 2<v,v>p(k) at m = 3/2 -> binom(2,2)*2 = 2
    assert mc.scalar == RationalFunction.constant(4 * uv) * RationalFunction([0, 0, 1])


def test_gg_borcherds_matches_presentation_bracket(algebras):
    """With the quadratic that closes the rank-one reduction, the assembled
    mode commutators equal alpha^2 times the one-supercharge presentation
    bracket, alpha^2 = -(k + h_dual) <v,v>, at every sampled mode pair."""
    from supervir.superalg import presentation_ns
    from supervir.walgebra import pairing_odd

    g = algebras["spo(2|1)"]
    cz = g_natural(g)
    hd = dual_coxeter(g)
    v = g.basis_vec(cz.grading.eigenspaces[-1][0])
    uv = pairing_odd(g, v, v)
    cfun = central_charge(g)
    p_derived = -cfun * (K + hd) / 6
    assert p_derived.den == (Fraction(1),) and p_derived.num[-1] == 1  # monic quadratic
    p_cfg = (p_derived.num[2], p_derived.num[1], p_derived.num[0])
    lb = lambda_bracket(g, "GG", v, v, p_poly=p_cfg)
    alpha_sq = RationalFunction.constant(-uv) * (K + hd)
    pres = presentation_ns()
    for mt in (-3, -1, 1, 3, 5):
        for nt in (-5, -3, -1, 1, 3):
            mc = borcherds_modes(half(3), lb, half(mt), half(nt))
            # the presentation is evaluated at the symbolic central charge by
            # splitting off its c-linear central part (bracket at c=0 and c=1)
            terms, central0 = pres.bracket("G", half(mt), "G", half(nt), Fraction(0))
            _, central1 = pres.bracket("G", half(mt), "G", half(nt), Fraction(1))
            want_terms = {
                (fam, idx): alpha_sq * coeff.real_part() for fam, idx, coeff in terms
            }
            assert mc.terms == want_terms, (mt, nt)
            c_slope = (central1 - central0).real_part()
            want_central = alpha_sq * (central0.real_part() + cfun * c_slope)
            assert mc.scalar == want_central, (mt, nt)


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------


def test_unitary_ranges():
    r = unitary_range("spo(2|3)")
    assert (r.h_dual, r.sdim) == (Fraction(1, 2), 0)
    assert r.describe() == "k in (1/4)*Z_<=-3"
    assert r.contains(Fraction(-3, 4)) and r.contains(Fraction(-1))
    assert not r.contains(Fraction(-1, 2))
    r = unitary_range("F(4)")
    assert (r.h_dual, r.sdim) == (Fraction(-2), 8)
    assert r.describe() == "k in (2/3)*Z_<=-2"
    r = unitary_range("G(3)")
    assert (r.h_dual, r.sdim, r.step) == (Fraction(-3, 2), 3, Fraction(3, 4))
    r = unitary_range("sl(2|5)")
    assert (r.h_dual, r.sdim, r.isolated) == (Fraction(-3), 8, (Fraction(-1),))
    r = unitary_range("spo(2|6)")
    assert (r.h_dual, r.sdim, r.step, r.bound) == (Fraction(-1), 6, Fraction(1, 2), -2)
    r = unitary_range("psl(2|2)")
    assert (r.h_dual, r.sdim, r.step, r.bound) == (Fraction(0), -2, Fraction(1), -2)
    with pytest.raises(ValueError):
        unitary_range("sl(2|2)")


def test_collapsing_levels():
    assert collapsing_levels("G2") == [CollapsingLevel(Fraction(-4, 3), "affine sl2 level 1", Fraction(1))]
    got = collapsing_levels("spo(2|3)")
    assert got[0].k == Fraction(-1, 2) and got[0].target == "trivial"
    assert got[1].k == Fraction(-3, 4) and got[1].central_charge == Fraction(1)
    assert collapsing_levels("sl(5|2)")[0].target.startswith("heisenberg")
    osp = collapsing_levels("osp(12|2)")[0]
    assert osp.k == Fraction(-2) and osp.central_charge == Fraction(3 * 2, 6)
    d = collapsing_levels("D(2,1;3)")
    assert d == [CollapsingLevel(Fraction(-3, 4), "affine sl2 level 2", Fraction(3, 2))]


def test_d21_canonicalization():
    assert canonical_d21_parameter(Fraction(2, 3)) == (3, 2)
    assert canonical_d21_parameter(Fraction(3, 2)) == (3, 2)
    assert canonical_d21_parameter(Fraction(-5, 2)) == (3, 2)  # -1-a orbit member
    with pytest.raises(ValueError):
        canonical_d21_parameter(Fraction(0))
    with pytest.raises(ValueError):
        unitary_range("D(2,1;1)")


def test_range_consistency_with_collapse():
    # collapsing levels sit inside (or at the boundary of) the stated ranges
    r = unitary_range("spo(2|3)")
    for cl in collapsing_levels("spo(2|3)"):
        if cl.central_charge is not None:
            assert r.contains(cl.k)


def test_data_dir_override(tmp_path, monkeypatch):
    import shutil

    from supervir.walgebra import DATA_ENV_VAR

    custom = tmp_path / "algdata"
    custom.mkdir()
    shutil.copy(_data_path("sl2.alg"), custom / "sl2.alg")
    monkeypatch.setenv(DATA_ENV_VAR, str(custom))
    g = load_superalgebra("sl2")
    assert g.dim == 3
    # the override directory is authoritative: a missing file is an error
    with pytest.raises(StructureDataError, match="missing"):
        load_superalgebra("spo(2|1)")


def test_bundled_structure_data_regenerates_byte_for_byte(tmp_path):
    """tools/gen_structure_data.py rebuilds every bundled .alg file from
    supermatrices, byte for byte."""
    tool = Path(__file__).parent.parent / "tools" / "gen_structure_data.py"
    spec = importlib.util.spec_from_file_location("gen_structure_data", tool)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.OUT_DIR = tmp_path
    gen.main()
    bundled = Path(walgebra.__file__).parent / "data"
    names = sorted(p.name for p in bundled.glob("*.alg"))
    assert sorted(p.name for p in tmp_path.iterdir()) == names and len(names) == 5
    for name in names:
        assert (tmp_path / name).read_bytes() == (bundled / name).read_bytes(), name
