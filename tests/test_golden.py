"""`check` reports must match, byte for byte, a golden set recorded from a
known-good commit.

Each golden file was written by

    PYTHONPATH=src python -m supervir.cli check FLAGS --window W --cutoff 3 \
        --output tests/golden/NAME.json

with the NAME, FLAGS and window W listed in CONFIGS.  Besides the four
points at kappa = 1/2, the other points carry denominators other than 2:
the bare-mode control witness of ns/bs at kappa = -2/3 prints non-dyadic
values, n2/unitary runs at kappa = 1/3, eta = 2/5 and omega = +-3/7,
n2/bs at kappa = 2/7, and two ns points (unitary at kappa = -3/5,
eta = 2/9; tilde at kappa = 5/3) run at window 3.  Regenerate a file only
when a change of the report is intended, and say why in CHANGES.md; a
kernel refactor must leave every byte as it is.

The `bounds` reports are pinned the same way: golden/NAME.json was written
by `PYTHONPATH=src python -m supervir.cli bounds FLAGS --output
tests/golden/NAME.json` with the NAME and FLAGS listed in BOUNDS.  The two
anticommutator reports were recorded at the commit before the exact
restricted norm; the two `--op` reports were regenerated with it, which
added `norm_sq`, dropped `tolerance` and gave the boson `value` as the
square root of the exact 3.

golden/abstract_grams.txt pins, for each case of ABSTRACT_GRAMS, the PBW
words, Gram entries, PSD verdict, pivots, witness and witness value; it
was written by `PYTHONPATH=src python tests/test_golden.py >
tests/golden/abstract_grams.txt`.

The stdout of each demo is pinned the same way: golden/demos/NAME.txt was
written by `PYTHONPATH=src python demos/NAME.py > tests/golden/demos/NAME.txt`.
"""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import child_env

from supervir.cli import main
from supervir.halfint import HalfInt
from supervir.superalg import LowestWeightData, abstract_gram, family_presentation, psd_check

GOLDEN = Path(__file__).parent / "golden"
DEMOS = Path(__file__).parent.parent / "demos"

# name -> (flags, window); every report runs at cutoff weight 3
CONFIGS = {
    "ns_bs": (["--family", "ns", "--variant", "bs", "--kappa", "1/2"], 2),
    "ns_unitary": (["--family", "ns", "--variant", "unitary", "--kappa", "1/2", "--eta", "1"], 2),
    "n2_unitary": (["--family", "n2", "--variant", "unitary", "--kappa", "1/2", "--eta", "1", "--omega", "1"], 2),
    "n2_bs": (["--family", "n2", "--variant", "bs", "--kappa", "1/2"], 2),
    "ns_bs_kappa_m2_3": (["--family", "ns", "--variant", "bs", "--kappa=-2/3"], 2),
    "n2_unitary_kappa_1_3": (["--family", "n2", "--variant", "unitary", "--kappa", "1/3", "--eta", "2/5",
                              "--omega", "3/7"], 2),
    "n2_bs_kappa_2_7": (["--family", "n2", "--variant", "bs", "--kappa", "2/7"], 2),
    "ns_unitary_kappa_m3_5_window_3": (["--family", "ns", "--variant", "unitary", "--kappa=-3/5", "--eta", "2/9"],
                                       3),
    "n2_unitary_omega_m3_7": (["--family", "n2", "--variant", "unitary", "--kappa", "1/3", "--eta", "2/5",
                               "--omega=-3/7"], 2),
    "ns_tilde_kappa_5_3_window_3": (["--family", "ns", "--variant", "tilde", "--kappa", "5/3"], 3),
}

# name -> flags of one `bounds` report
BOUNDS = {
    "bounds_ns_G_3_2": ["--family", "ns", "--kappa", "1/3", "--eta", "2/5", "--role", "G", "--n", "3/2",
                        "--cutoff", "4"],
    "bounds_n2_G1_1_2": ["--family", "n2", "--kappa", "1/3", "--eta", "2/5", "--omega=-3/7", "--role", "G1",
                         "--n", "1/2", "--cutoff", "3"],
    "bounds_op_fermion": ["--op", "fermion", "--n", "1/2", "--cutoff", "4"],
    "bounds_op_boson": ["--op", "boson", "--n", "1", "--cutoff", "3"],
}

# (algebra, c, h, q, vacuum module, level).  The first twelve are one point
# of each abstract-gram benchmark pool (Verma/vacuum, PSD/not PSD); the
# pools hold no non-dyadic c or q, so the last seven add such points: the
# unitary minimal-model points (7/10, 3/80) of Virasoro, (7/10, 1/10) of NS
# and the chiral primary (1, 1/6, 1/3) of N=2, whose Grams have zero
# pivots, and failing points; at the last one, |q| > 2h, the equal norms
# of G1_{-1/2} v and G2_{-1/2} v tie for the first pivot, so its witness
# depends on the tie rule.
ABSTRACT_GRAMS = [
    ("vir", "5/2", "3/2", None, False, "6"),
    ("vir", "-2", "1/5", None, False, "4"),
    ("vir", "7/2", "0", None, True, "6"),
    ("vir", "-9/2", "0", None, True, "6"),
    ("ns", "9/2", "5/8", None, False, "3"),
    ("ns", "-6", "1/8", None, False, "3"),
    ("ns", "11/2", "0", None, True, "4"),
    ("ns", "-11/2", "0", None, True, "4"),
    ("n2", "6", "9/8", "1", False, "3"),
    ("n2", "-3", "1/8", "1/8", False, "2"),
    ("n2", "8", "0", "0", True, "5/2"),
    ("n2", "-4", "0", "0", True, "5/2"),
    ("vir", "7/10", "3/80", None, False, "5"),
    ("vir", "-2/7", "3/7", None, False, "4"),
    ("ns", "7/10", "1/10", None, False, "3"),
    ("ns", "-2/3", "1/5", None, False, "5/2"),
    ("n2", "1", "1/6", "1/3", False, "5/2"),
    ("n2", "-1/3", "1/5", "2/7", False, "3/2"),
    ("n2", "1", "1/10", "1/3", False, "1/2"),
]


def abstract_gram_text() -> str:
    """The text form of every case of ABSTRACT_GRAMS."""
    lines = []
    for algebra, c, h, q, vacuum, level in ABSTRACT_GRAMS:
        lw = LowestWeightData(Fraction(c), Fraction(h), None if q is None else Fraction(q), vacuum)
        gram = abstract_gram(family_presentation(algebra), lw, HalfInt(Fraction(level)))
        result = psd_check(gram)
        lines.append(f"case {algebra} c={c} h={h} q={q} vacuum={vacuum} level={level}")
        for word in gram.words:
            lines.append("word " + (" ".join(f"{fam}({idx})" for fam, idx in word) or "1"))
        for row in gram.entries:
            lines.append("row " + " ".join(repr(e) for e in row))
        lines.append(f"psd {result.psd}")
        lines.append("pivots " + " ".join(str(p) for p in result.pivots))
        witness = None if result.witness is None else " ".join(repr(w) for w in result.witness)
        lines.append(f"witness {witness}")
        lines.append(f"witness_value {result.witness_value(gram.entries)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_check_report_matches_golden_bytes(name, tmp_path):
    flags, window = CONFIGS[name]
    out = tmp_path / f"{name}.json"
    assert main(["check", *flags, "--window", str(window), "--cutoff", "3", "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_bounds_report_matches_golden_bytes(name, tmp_path):
    out = tmp_path / f"{name}.json"
    assert main(["bounds", *BOUNDS[name], "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def test_abstract_grams_match_golden_text():
    assert abstract_gram_text() == (GOLDEN / "abstract_grams.txt").read_text()


@pytest.mark.parametrize("demo", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_output_matches_golden_bytes(demo):
    done = subprocess.run([sys.executable, str(DEMOS / f"{demo}.py")], env=child_env(), capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (GOLDEN / "demos" / f"{demo}.txt").read_bytes()


if __name__ == "__main__":
    sys.stdout.write(abstract_gram_text())
