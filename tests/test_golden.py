"""`check` reports must match, byte for byte, a golden set recorded from a
known-good commit.

The four configurations run at window 2 and cutoff weight 3.  Each golden
file was written by

    PYTHONPATH=src python -m supervir.cli check --family F --variant V \
        --kappa 1/2 [--eta 1] [--omega 1] --window 2 --cutoff 3 \
        --output tests/golden/F_V.json

with the flags listed in CONFIGS.  Regenerate a file only when a change
of the report is intended, and say why in CHANGES.md; a kernel refactor
must leave every byte as it is.
"""

from pathlib import Path

import pytest

from supervir.cli import main

GOLDEN = Path(__file__).parent / "golden"

CONFIGS = {
    "ns_bs": ["--family", "ns", "--variant", "bs", "--kappa", "1/2"],
    "ns_unitary": ["--family", "ns", "--variant", "unitary", "--kappa", "1/2", "--eta", "1"],
    "n2_unitary": ["--family", "n2", "--variant", "unitary", "--kappa", "1/2", "--eta", "1", "--omega", "1"],
    "n2_bs": ["--family", "n2", "--variant", "bs", "--kappa", "1/2"],
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_check_report_matches_golden_bytes(name, tmp_path):
    out = tmp_path / f"{name}.json"
    assert main(["check", *CONFIGS[name], "--window", "2", "--cutoff", "3", "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
