"""The supervir benchmark: one seeded command per workload.

    python3 perfbench/run.py --workload cli-check --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the library is imported from
`src/` and nothing is installed.  A run repeats rounds of its workload
(see workloads.py), each round in fresh processes, so every round starts
with empty caches.  It runs the whole number of rounds that comes
closest to `--seconds`, at least one, and reports medians over rounds.

`--trace 0` prints the end-to-end metrics, measured untraced.
`--trace 1` runs one untraced round, the same round traced, and the
same round again under the exact scalar-operation counter, prints the
per-layer metrics, and writes the spans to perfbench/out/.

Every item's verdict is checked; the last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`,
which holds every metric BENCHMARK.json declares for the mode.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES_PER_ROUND = 4
CHILD_TIMEOUT_S = 150


class BenchmarkError(RuntimeError):
    pass


def _env(hash_seed: int = 0) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_worker(spec: dict) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)], cwd=ROOT,
                          env=_env(), capture_output=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {spec} failed:\n{proc.stderr.decode()[-3000:]}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def run_cli(item: dict, hash_seed: int = 0) -> tuple[float, int, bytes]:
    """One `python -m supervir.cli` invocation, timed from spawn to exit."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "supervir.cli", *item["argv"]], cwd=ROOT,
                          env=_env(hash_seed), capture_output=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start, proc.returncode, proc.stdout


# -- rounds ------------------------------------------------------------------------
# A round is {"items": [{"id", "seconds", "entries", "problems"}], "wall_s",
# "cpu_s", "children": worker outputs}; cli-check rounds also keep each
# item's report bytes under "reports".


def _cli_round(items: list[dict], mode: str) -> dict:
    cpu0 = _children_cpu_s()
    results, reports, layers = [], {}, []
    for item in items:
        if mode == "plain":
            seconds, returncode, report = run_cli(item)
        else:
            start = time.perf_counter()
            out = run_worker({"workload": "cli-check", "mode": mode, "items": [item]})
            seconds = time.perf_counter() - start
            returncode, report = out["items"][0]["returncode"], out["items"][0]["report"].encode()
            layers.append(out)
        problems = workloads.cli_report_problems(item, returncode, report)
        entries = 0 if problems else workloads.cli_entries(report)
        results.append({"id": item["id"], "seconds": seconds, "entries": entries, "problems": problems})
        reports[item["id"]] = report
    return {"items": results, "reports": reports, "children": layers,
            "wall_s": sum(r["seconds"] for r in results), "cpu_s": _children_cpu_s() - cpu0}


def _worker_round(workload: str, seed: int, mode: str) -> dict:
    cpu0 = _children_cpu_s()
    out = run_worker({"workload": workload, "seed": seed, "mode": mode})
    return {"items": out["items"], "children": [out], "wall_s": sum(r["seconds"] for r in out["items"]),
            "cpu_s": _children_cpu_s() - cpu0}


def run_round(workload: str, seed: int, mode: str) -> dict:
    if workload == "cli-check":
        return _cli_round(workloads.make_round(workload, seed), mode)
    return _worker_round(workload, seed, mode)


# -- metrics -----------------------------------------------------------------------


def setup_seconds(workload: str, seed: int) -> float:
    """Time to import supervir and build the inputs in a fresh process."""
    return run_worker({"workload": workload, "seed": seed, "mode": "setup"})["setup_s"]


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, list[dict]]:
    setup_seconds(workload, seed)  # untimed: writes the bytecode cache
    setups, rounds, elapsed = [], [], 0.0
    # whole rounds, as many as fill --seconds best; at least one.  The
    # set-up samples are spread over the run, so that its median sees the
    # same machine as the rounds do.
    while not rounds or elapsed + rounds[-1]["wall_s"] / 2 <= seconds:
        setups += [setup_seconds(workload, seed) for _ in range(SETUP_SAMPLES_PER_ROUND)]
        start = time.perf_counter()
        rounds.append(run_round(workload, seed, "plain"))
        elapsed += time.perf_counter() - start
    checked = [i for r in rounds for i in r["items"]]
    if workload == "cli-check":
        checked.append(_repeat_check(seed, rounds))
    entries = {sum(i["entries"] for i in r["items"]) for r in rounds}
    if len(entries) != 1:
        raise BenchmarkError(f"rounds verified different entry counts: {sorted(entries)}")
    wall_s = statistics.median(r["wall_s"] for r in rounds)
    failed = sum(1 for i in checked if i["problems"])
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "slowest_item_s": statistics.median(max(i["seconds"] for i in r["items"]) for r in rounds),
        "entries_per_s": entries.pop() / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "pass_ratio": 1 - failed / len(checked),
    }, checked


def _repeat_check(seed: int, rounds: list[dict]) -> dict:
    """Every cli-check report is byte-identical across rounds, and the
    cheapest item run once more under another hash seed gives the same bytes."""
    first = rounds[0]
    problems = [f"{item_id}: report bytes differ between rounds"
                for rnd in rounds[1:] for item_id, report in rnd["reports"].items()
                if report != first["reports"][item_id]]
    timed = {i["id"]: i["seconds"] for i in first["items"]}
    item = min(workloads.make_round("cli-check", seed), key=lambda i: timed[i["id"]])
    if run_cli(item, hash_seed=1)[2] != first["reports"][item["id"]]:
        problems.append(f"{item['id']}: report bytes differ under another hash seed")
    return {"id": f"repeat:{item['id']}", "problems": problems}


def _sum_layers(children: list[dict]) -> dict:
    total: dict[str, float] = {}
    for child in children:
        for name, value in child["layers"].items():
            total[name] = total.get(name, 0) + value
    return total


def _ratio(hits: float, attempts: float) -> float:
    return hits / attempts if attempts else 0.0


def per_layer(workload: str, seed: int) -> tuple[dict, list[dict]]:
    """One round untraced, traced and counted; layer totals over its processes."""
    plain = run_round(workload, seed, "plain")
    traced = run_round(workload, seed, "trace")
    counted = run_round(workload, seed, "count")
    checked = plain["items"] + traced["items"] + counted["items"]
    if workload == "cli-check":
        checked += [{"id": f"trace-bytes:{item_id}",
                     "problems": [] if traced["reports"][item_id] == counted["reports"][item_id] == report
                     else ["report bytes differ when traced"]}
                    for item_id, report in plain["reports"].items()]
    _write_spans(workload, seed, traced["children"])
    layers = _sum_layers(traced["children"])
    layers.update({name: n for name, n in _sum_layers(counted["children"]).items() if name.startswith("scalars.")})
    layers.update({
        "cli.import_s": statistics.median(c["import_s"] for c in traced["children"])
        if workload == "cli-check" else 0.0,
        "cli.report_bytes": sum(len(r) for r in plain.get("reports", {}).values()),
        "verify.entries": 0 if workload == "abstract-gram" else sum(i["entries"] for i in traced["items"]),
        "realizations.make_mode.hit_ratio": _ratio(
            layers["realizations.make_mode.hits"],
            layers["realizations.make_mode.hits"] + layers["realizations.make_mode.misses"]),
        "oscillators.apply_state.memo_hit_ratio": _ratio(layers["oscillators.apply_state.memo_hits"],
                                                         layers["oscillators.apply_state.calls"]),
        "proc.cpu_s": plain["cpu_s"],
        "proc.trace_overhead_s": traced["wall_s"] - plain["wall_s"],
    })
    return layers, checked


def _write_spans(workload: str, seed: int, children: list[dict]) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload}-seed{seed}-spans.jsonl", "w") as fh:
        for process, child in enumerate(children):
            for name, start, end, parent, item in child["spans"]:
                fh.write(json.dumps({"process": process, "name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "supervir" / "__init__.py").is_file():
        print(f"error: no supervir sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    try:
        if args.trace:
            values, checked = per_layer(args.workload, args.seed)
        else:
            values, checked = end_to_end(args.workload, args.seed, args.seconds)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: declared metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    failed = [i for i in checked if i["problems"]]
    for item in failed:
        print(f"WRONG {item['id']}: {'; '.join(item['problems'])}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": len(checked), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
