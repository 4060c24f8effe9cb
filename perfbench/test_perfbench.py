"""Tests of the benchmark itself:  python -m pytest perfbench

They check that every declared span fires and is removed again, that
the exact counts repeat between processes, that cold start and wrong
verdicts are detected, and that the command refuses to run without the
library sources.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL_CLI = {"id": "ns/bs:small", "argv": ["check", "--family", "ns", "--variant", "bs", "--kappa", "1/2",
                                           "--window", "1", "--cutoff", "1"]}
SMALL_SWEEP = {"id": "ns/bs:small", "family": "ns", "variant": "bs", "kappa": "1/2", "eta": "0", "omega": "0",
               "window": 1, "cutoff_twice": 2, "pairs_window": 1}
SMALL_GRAM = dict(workloads.gram_point("n2-vacuum-neg", "-3", "0", "0"), max_twice=4)


def _bindings():
    return {(module.__name__, attr): value for module in tracer._supervir_modules()
            for attr, value in vars(module).items() if callable(value)}


def test_every_declared_span_fires_and_is_removed():
    import supervir.cli
    from supervir import superalg
    from supervir.oscillators import ModeOperator

    before = _bindings()
    methods = (ModeOperator.apply_state, ModeOperator.__call__)
    with tracer.Tracer() as probe, contextlib.redirect_stdout(io.StringIO()):
        assert supervir.cli.main(SMALL_CLI["argv"]) == 0
        superalg.psd_check(superalg.abstract_gram(superalg.family_presentation("vir"),
                                                  superalg.LowestWeightData(Fraction(-2), Fraction(1)),
                                                  superalg.half(4)))
    silent = [name for name, (calls, _, _) in probe.stats.items() if calls == 0]
    assert not silent
    assert probe.spans and all(end >= start for _, start, end, _, _ in probe.spans)
    assert _bindings() == before
    assert (ModeOperator.apply_state, ModeOperator.__call__) == methods


def test_spans_patch_every_importing_module():
    import supervir.cli  # noqa: F401  (loads verify and bounds)
    from supervir import bounds, realizations, verify

    original = realizations.make_mode
    with tracer.Tracer():
        assert verify.make_mode is realizations.make_mode is bounds.make_mode
        assert verify.make_mode is not original
    assert verify.make_mode is original


@pytest.mark.parametrize("workload, item", [("cli-check", SMALL_CLI), ("kappa-sweep", SMALL_SWEEP),
                                            ("abstract-gram", SMALL_GRAM)])
def test_exact_counts_repeat_across_processes(workload, item):
    exact = ("scalars.mul.calls", "scalars.add.calls", "scalars.div.calls",
             "oscillators.apply_state.calls", "superalg.gram_entries")

    def counts():
        spec = {"workload": workload, "items": [item]}
        traced = run.run_worker({**spec, "mode": "trace"})
        counted = run.run_worker({**spec, "mode": "count"})
        layers = {**traced["layers"], **counted["layers"]}
        if workload == "cli-check":
            entries = workloads.cli_entries(traced["items"][0]["report"].encode())
        else:
            assert not traced["items"][0]["problems"]
            entries = traced["items"][0]["entries"]
        return {name: layers[name] for name in exact}, entries

    first = counts()
    assert first == counts()
    assert first[1] > 0 and first[0]["scalars.mul.calls"] > 0


def test_warm_cache_is_detected():
    from supervir.halfint import half
    from supervir.realizations import RealizationParams, make_mode

    make_mode(RealizationParams("ns", "bs"), "L", half(2))
    with pytest.raises(RuntimeError, match="not empty"):
        workloads.assert_cold()


def test_wrong_verdicts_are_reported():
    assert workloads.run_gram_point(SMALL_GRAM)[1] == []
    unlabelled = dict(SMALL_GRAM, negative_twice=None)
    assert any("unitary range" in p for p in workloads.run_gram_point(unlabelled)[1])
    with pytest.raises(ValueError):
        workloads.gram_point("vir-verma-neg", "-2", "1", None)  # 4h + c/2 = 3 is no negative norm
    report = b'{"checks": [{"check": "relations", "status": "FAIL", "expected_failure_control": false,' \
             b' "entries": [{"residual": "1/4"}]}]}'
    assert workloads.cli_report_problems(SMALL_CLI, 1, report)


def test_rounds_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.make_round(workload, 7) == workloads.make_round(workload, 7)
        assert len({str(workloads.make_round(workload, s)) for s in range(8)}) > 1


def test_refuses_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "abstract-gram", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""
