import json

import pytest

from supervir import verify
from supervir.cli import main
from supervir.fock import inner_product
from supervir.scalars import GaussianRational
from supervir.superalg import family_presentation


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_unitary_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "check", "--family", "ns", "--variant", "unitary", "--kappa", "1/2",
        "--eta", "0", "--window", "2", "--cutoff", "3", "--output", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "check"
    assert doc["version"]
    assert all(c["status"] == "PASS" for c in doc["checks"])
    names = {c["check"] for c in doc["checks"]}
    assert {"relations", "central_charge", "lowest_weight", "oracle_compare"} <= names


def test_check_bs_records_control(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "check", "--family", "ns", "--variant", "bs", "--kappa", "1/2",
        "--controls", "strict", "--output", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    controls = [c for c in doc["checks"] if c["expected_failure_control"]]
    assert controls, "the symmetry control must be present"
    for c in controls:
        assert c["status"] == "PASS"  # the control PASSES because symmetry FAILS
        assert any(e["residual"] != "0" for e in c["entries"])


def test_malformed_rational_is_usage_error(capsys):
    code, _, err = run(["check", "--family", "ns", "--kappa", "1/0"], capsys)
    assert code == 2
    assert "denominator" in err


def test_negative_cutoff_is_usage_error(capsys):
    code, _, err = run(["bounds", "--cutoff", "-1"], capsys)
    assert code == 2


def test_negative_levels_is_usage_error(capsys):
    code, out, err = run(["check", "--family", "ns", "--levels", "-1"], capsys)
    assert code == 2
    assert out == "" and "--levels" in err


def test_failed_check_exits_1(monkeypatch, capsys):
    """A wrong structure constant is a failed check, reported with exit 1."""
    pres = family_presentation("ns")
    bracket = pres.bracket

    def perturbed(f1, n1, f2, n2, c):
        terms, central = bracket(f1, n1, f2, n2, c)
        if (f1, f2) == ("L", "L") and n1 + n2 == 0 and n1 > 0:
            central = central + 1
        return terms, central

    # the tilde variant runs no abstract Gram, so the perturbed bracket
    # reaches no memo of the presentation
    monkeypatch.setattr(pres, "bracket", perturbed)
    code, out, err = run(["check", "--family", "ns", "--variant", "tilde", "--kappa", "1/2",
                          "--window", "1", "--cutoff", "1"], capsys)
    assert code == 1
    relations = [c for c in json.loads(out)["checks"] if c["check"] == "relations"]
    assert relations[0]["status"] == "FAIL"
    assert err == ""


def test_internal_defect_exits_3(monkeypatch, capsys):
    """A failed consistency check inside the library is exit 3 with one
    line on stderr, told apart from a failed check (1) and bad input (2)."""
    i = GaussianRational(0, 1)
    monkeypatch.setattr(verify, "inner_product", lambda u, v: inner_product(u, v) + i)
    code, out, err = run(["check", "--family", "ns", "--variant", "unitary", "--kappa", "1/2", "--eta", "1",
                          "--window", "1", "--cutoff", "1"], capsys)
    assert code == 3
    assert out == ""
    assert err.splitlines() == ["internal error: free-field Gram failed its Hermiticity check"]


def test_tables_series(capsys):
    code, out, _ = run(["tables", "--series", "vir", "--p-max", "5"], capsys)
    assert code == 0
    doc = json.loads(out)
    rows = {r["p"]: r["c"] for r in doc["series"]["rows"]}
    assert rows == {3: "1/2", 4: "7/10", 5: "4/5"}
    assert all(r["matches_closed_form"] for r in doc["series"]["rows"])


def test_tables_series_below_its_start_is_usage_error(capsys):
    code, out, err = run(["tables", "--series", "vir", "--p-max", "2"], capsys)
    assert code == 2
    assert out == "" and "--p-max" in err


def test_tables_walgebra(capsys):
    code, out, _ = run(["tables", "--walgebra", "spo_2_3"], capsys)
    assert code == 0
    doc = json.loads(out)
    w = doc["walgebra"]
    assert w["dual_coxeter"] == "1/2"
    assert w["superdimension"] == 0
    assert w["unitary_range"] == "k in (1/4)*Z_<=-3"
    assert w["c(-3/4)"] == "1"


def test_tables_identity(capsys):
    for name in ("sl2", "spo(2|1)", "spo(2|2)", "spo(2|3)", "D(2,1;a)"):
        code, out, _ = run(["tables", "--identity", name], capsys)
        assert code == 0
        doc = json.loads(out)
        assert all(r["status"] == "VERIFIED" for r in doc["identities"])


def test_bounds_identity(capsys):
    code, out, _ = run(
        ["bounds", "--family", "ns", "--kappa", "0", "--role", "G", "--n", "3/2", "--cutoff", "4"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"][0]["entries"][0]["residual"] == "0"


def test_bounds_norm(capsys):
    code, out, _ = run(["bounds", "--op", "fermion", "--n", "1/2", "--cutoff", "4"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["norm_estimate"] == {"norm_sq": "1", "value": 1.0}


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["check", "--family", "ns", "--variant", "bs", "--kappa", "1/3", "--cutoff", "2",
            "--window", "1"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_reports_deterministic_across_processes(tmp_path):
    """Fresh interpreters with different hash seeds produce identical bytes."""
    import subprocess
    import sys

    from conftest import child_env

    outs = []
    for seed in ("0", "424242"):
        out = tmp_path / f"p{seed}.json"
        env = child_env(PYTHONHASHSEED=seed)
        code = subprocess.run(
            [sys.executable, "-m", "supervir.cli", "check", "--family", "n2", "--variant", "bs",
             "--kappa", "1/2", "--window", "1", "--cutoff", "2", "--output", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert code.returncode == 0, code.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


_TABLES_AND_BOUNDS = ("supervir.walgebra", "supervir.ratfunc", "supervir.bounds")
# the check, sweep and Gram paths define their records without dataclasses,
# which would also load inspect (and with it ast, dis and tokenize)
_DATACLASSES = ("dataclasses", "inspect")


def _loaded_after(code, absent):
    """Those of `absent` that a fresh interpreter has loaded after running `code`."""
    import subprocess
    import sys

    from conftest import child_env

    code += f"\nimport sys; print(' '.join(m for m in {absent!r} if m in sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@pytest.mark.parametrize("module,absent", [
    ("supervir.verify", ("numpy", "scipy", *_TABLES_AND_BOUNDS, *_DATACLASSES)),
    ("supervir.cli", ("numpy", "scipy", *_TABLES_AND_BOUNDS, *_DATACLASSES)),
    ("supervir.superalg", ("numpy", "scipy", "supervir.fock", "supervir.oscillators", "supervir.realizations",
                           "supervir.verify", "supervir.cli", *_TABLES_AND_BOUNDS, *_DATACLASSES)),
    ("supervir.realizations", ("numpy", "scipy")),
    ("supervir", ("supervir.halfint", "supervir.scalars", "supervir.superalg", "supervir.fock",
                  "supervir.oscillators", "supervir.realizations", "supervir.verify", "supervir.cli",
                  *_TABLES_AND_BOUNDS)),
    ("supervir.bounds", ("numpy", "scipy", *_DATACLASSES, "supervir.walgebra", "supervir.ratfunc")),
])
def test_imports_stay_light(module, absent):
    """Each entry point loads only the modules it runs.  No module needs
    numpy or scipy: the energy bounds are exact too.  The package root
    imports no submodule; the super-Virasoro presentations load no Fock
    layer; the checking engine and the CLI load neither the W-algebra
    side (walgebra, ratfunc) nor bounds, which only the CLI's tables and
    bounds commands import when they run, and bounds loads no W-algebra
    side either.  None of verify, cli, superalg and bounds loads
    dataclasses or inspect."""
    assert _loaded_after(f"import {module}", absent) == []


def test_check_run_stays_light():
    """A whole `check` run loads neither the W-algebra side, nor bounds, nor
    numpy, nor dataclasses and inspect."""
    argv = ["check", "--family", "ns", "--variant", "bs", "--kappa", "1/2", "--window", "1", "--cutoff", "1"]
    code = f"import os, supervir.cli; assert supervir.cli.main({argv!r} + ['--output', os.devnull]) == 0"
    assert _loaded_after(code, ("numpy", *_TABLES_AND_BOUNDS, *_DATACLASSES)) == []


def test_bounds_run_stays_light():
    """A `bounds` run, in its norm and its identity form, loads neither
    numpy nor scipy, nor the W-algebra side, nor dataclasses and inspect."""
    runs = [["bounds", "--op", "boson", "--n", "1", "--cutoff", "3"],
            ["bounds", "--family", "ns", "--kappa", "1/3", "--role", "G", "--n", "3/2", "--cutoff", "2"]]
    code = "import os, supervir.cli\n" + "\n".join(
        f"assert supervir.cli.main({argv!r} + ['--output', os.devnull]) == 0" for argv in runs)
    assert _loaded_after(code, ("numpy", "scipy", "supervir.walgebra", "supervir.ratfunc", *_DATACLASSES)) == []
