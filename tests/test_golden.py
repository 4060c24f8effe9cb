"""`check` reports must match, byte for byte, a golden set recorded from a
known-good commit.

The configurations run at window 2 and cutoff weight 3.  Each golden
file was written by

    PYTHONPATH=src python -m supervir.cli check FLAGS --window 2 --cutoff 3 \
        --output tests/golden/NAME.json

with the NAME and FLAGS listed in CONFIGS.  Besides the four points at
kappa = 1/2, two points carry denominators other than 2: the bare-mode
control witness of ns/bs at kappa = -2/3 prints non-dyadic values, and
n2/unitary runs at kappa = 1/3, eta = 2/5, omega = 3/7.  Regenerate a
file only when a change of the report is intended, and say why in
CHANGES.md; a kernel refactor must leave every byte as it is.

The stdout of each demo is pinned the same way: golden/demos/NAME.txt was
written by `PYTHONPATH=src python demos/NAME.py > tests/golden/demos/NAME.txt`.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from supervir.cli import main

GOLDEN = Path(__file__).parent / "golden"
DEMOS = Path(__file__).parent.parent / "demos"

CONFIGS = {
    "ns_bs": ["--family", "ns", "--variant", "bs", "--kappa", "1/2"],
    "ns_unitary": ["--family", "ns", "--variant", "unitary", "--kappa", "1/2", "--eta", "1"],
    "n2_unitary": ["--family", "n2", "--variant", "unitary", "--kappa", "1/2", "--eta", "1", "--omega", "1"],
    "n2_bs": ["--family", "n2", "--variant", "bs", "--kappa", "1/2"],
    "ns_bs_kappa_m2_3": ["--family", "ns", "--variant", "bs", "--kappa=-2/3"],
    "n2_unitary_kappa_1_3": ["--family", "n2", "--variant", "unitary", "--kappa", "1/3", "--eta", "2/5",
                             "--omega", "3/7"],
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_check_report_matches_golden_bytes(name, tmp_path):
    out = tmp_path / f"{name}.json"
    assert main(["check", *CONFIGS[name], "--window", "2", "--cutoff", "3", "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("demo", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_output_matches_golden_bytes(demo):
    import supervir

    # The child imports the same supervir as this test run, installed or not.
    src = str(Path(supervir.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, str(DEMOS / f"{demo}.py")],
                          env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src}, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (GOLDEN / "demos" / f"{demo}.txt").read_bytes()
