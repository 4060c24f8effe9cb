"""One measured process of the benchmark.

    python perfbench/worker.py '<json spec>'

The spec names the workload, the seed (or the items themselves) and a
mode:
  setup  import supervir and build the round's inputs, report the time;
  plain  also run the round (kappa-sweep, abstract-gram) untraced;
  trace  run it with the layer spans of tracer.Tracer installed;
  count  run it with tracer.ScalarCounter installed.
A cli-check worker takes one item and runs `supervir.cli.main` in this
process with its report captured; the benchmark starts it only for
trace and count, and runs `python -m supervir.cli` itself untraced.
The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

import tracer
import workloads

ENTRY_MODULE = {"cli-check": "supervir.cli", "kappa-sweep": "supervir.verify", "abstract-gram": "supervir.superalg"}


def _instrument(mode: str):
    if mode == "trace":
        return tracer.Tracer()
    if mode == "count":
        return tracer.ScalarCounter()
    return contextlib.nullcontext()


def _cli_item(item: dict) -> dict:
    import supervir.cli

    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        returncode = supervir.cli.main(item["argv"])
    return {"returncode": returncode, "report": report.getvalue()}


def _checked(runner):
    def run_item(item: dict) -> dict:
        entries, problems = runner(item)
        return {"entries": entries, "problems": problems}

    return run_item


RUN_ITEM = {"cli-check": _cli_item, "kappa-sweep": _checked(workloads.run_sweep_point),
            "abstract-gram": _checked(workloads.run_gram_point)}


def _run_round(items: list[dict], mode: str, run_item) -> dict:
    workloads.assert_cold()
    results = []
    with _instrument(mode) as probe:
        for item in items:
            if isinstance(probe, tracer.Tracer):
                probe.item = item["id"]
            start = time.perf_counter()
            result = run_item(item)
            results.append({"id": item["id"], "seconds": time.perf_counter() - start, **result})
    out = {"items": results, "layers": workloads.cache_stats()}
    if probe is not None:
        out["layers"].update(probe.summary())
    if isinstance(probe, tracer.Tracer):
        out["spans"] = probe.spans
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    workload, mode = spec["workload"], spec["mode"]
    start = time.perf_counter()
    __import__(ENTRY_MODULE[workload])
    import_s = time.perf_counter() - start
    items = spec["items"] if "items" in spec else workloads.make_round(workload, spec["seed"])
    setup_s = time.perf_counter() - start

    out = {} if mode == "setup" else _run_round(items, mode, RUN_ITEM[workload])
    out.update(import_s=import_s, setup_s=setup_s)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
