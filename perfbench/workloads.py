"""The three workloads: seeded inputs, item runners and verdict checks.

A round is one fixed-size list of items drawn from the pools below by
the seed.  Every round of a workload does the same work whatever the
seed: the per-slot structure (family, variant, window, cutoff, level)
is fixed, and each slot's pool holds values whose exact scalar
operation counts agree to within 0.05 % (sign flips, equal-size
numerators; the Gram pools were picked by counting each candidate).

Sizes are Fock weights.  The library takes twice-units, so weight 5 is
`half(10)` and the CLI's `--cutoff 3` is weight 3.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

WORKLOADS = ("cli-check", "kappa-sweep", "abstract-gram")

# -- cli-check ---------------------------------------------------------------
# The four ROADMAP baseline configurations at window 2, cutoff (weight) 3.
# Basis sizes at weight 3: ns 17 states, n2 69 states.

CLI_WINDOW = 2
CLI_CUTOFF = "3"
CLI_POOLS = {
    "ns/bs": [{"kappa": k} for k in ("1/2", "-1/2", "3/2", "-3/2")],
    "ns/unitary": [{"kappa": k, "eta": e} for k in ("1/2", "-1/2") for e in ("1", "-1")],
    "n2/unitary": [{"kappa": k, "eta": "1", "omega": o} for k in ("1/2", "-1/2") for o in ("1", "-1")],
    "n2/bs": [{"kappa": k} for k in ("1/2", "-1/2", "3/2", "-3/2")],
}

# -- kappa-sweep -------------------------------------------------------------
# ns/bs at window 3, cutoff 5 (63 states; acceptance criterion 1's deep
# grid) with the weak-symmetry pairs of window 2 and the bare L_1
# control; n2/unitary at window 2, cutoff 3 (69 states).

SWEEP_NS = {"window": 3, "cutoff_twice": 10, "pairs_window": 2}
SWEEP_N2 = {"window": 2, "cutoff_twice": 6}
SWEEP_NS_KAPPAS = ("1/2", "-1/2", "3/2", "-3/2")
SWEEP_N2_POINTS = [(k, "1", o) for k in ("1/2", "-1/2") for o in ("1", "-1")]

# -- abstract-gram -----------------------------------------------------------
# Verma and vacuum modules: Virasoro to level 8, NS to level 6, N=2 to
# level 4 (the N=2 Verma Gram there is 69 x 69).  The expected verdict
# of every point is fixed from classical results, not from the library:
#   * PSD: Virasoro c > 1, h > 0 and NS c > 3/2, h > 0 (Kac determinant
#     free of zeros, positive for large h); vacuum modules with c > 1,
#     3/2, 3; N=2 Verma points (c, h, q) = (3 + 12k^2, (k^2+e^2+w^2)/2,
#     2kw) of the unitary free-field realization, whose Gram is that of
#     vectors in a positive-definite Fock space.
#   * not PSD at the named level: a PBW word there has a negative norm
#     in closed form, so the Gram has a negative diagonal entry:
#       L_{-2} v:  4h + c/2          (Virasoro; vacuum: c/2)
#       G_{-3/2} v: 2h + 2c/3        (NS; vacuum: 2c/3)
#       J_{-1} v:  c/3               (N=2, Verma and vacuum)
# No point lies on a boundary of these ranges.

GRAM_LEVELS = {"vir": 8, "ns": 6, "n2": 4}
GRAM_POOLS = {
    "vir-verma-psd": [(c, "3/2", None) for c in ("5/2", "7/2", "9/2", "11/2")],
    "vir-verma-neg": [("-2", h, None) for h in ("1/8", "1/5", "1/6", "1/7")],
    "vir-vacuum-psd": [(c, "0", None) for c in ("5/2", "7/2", "9/2", "11/2")],
    "vir-vacuum-neg": [(c, "0", None) for c in ("-9/2", "-5", "-11/2")],
    "ns-verma-psd": [(c, "5/8", None) for c in ("9/2", "11/2", "13/2", "15/2")],
    "ns-verma-neg": [("-6", h, None) for h in ("1/8", "3/8")],
    "ns-vacuum-psd": [(c, "0", None) for c in ("9/2", "11/2", "13/2", "15/2")],
    "ns-vacuum-neg": [(c, "0", None) for c in ("-11/2", "-17/2")],
    # (k, e, w) = (1/2, 1, +-1)
    "n2-verma-psd": [("6", "9/8", q) for q in ("1", "-1")],
    "n2-verma-neg": [("-3", "1/8", q) for q in ("1/8", "-1/8")],
    "n2-vacuum-psd": [(c, "0", "0") for c in ("8", "9")],
    "n2-vacuum-neg": [(c, "0", "0") for c in ("-4", "-5")],
}


def _negative_level_twice(algebra: str, c: Fraction, h: Fraction) -> int:
    """The level (twice-units) of the closed-form negative-norm word."""
    level, norm = {"vir": (4, 4 * h + c / 2), "ns": (3, 2 * h + 2 * c / 3), "n2": (2, c / 3)}[algebra]
    if norm >= 0:
        raise ValueError(f"{algebra} point c={c}, h={h} has no negative-norm word at twice-level {level}")
    return level


def gram_point(slot: str, c: str, h: str, q) -> dict:
    algebra, module, verdict = slot.split("-")
    item = {
        "id": f"{slot}:c={c},h={h}" + (f",q={q}" if q is not None else ""),
        "algebra": algebra,
        "c": c,
        "h": h,
        "q": q,
        "vacuum": module == "vacuum",
        "max_twice": 2 * GRAM_LEVELS[algebra],
        "negative_twice": None,
    }
    if verdict == "neg":
        item["negative_twice"] = _negative_level_twice(algebra, Fraction(c), Fraction(h))
    return item


def make_round(workload: str, seed: int) -> list[dict]:
    """The seeded items of one round; the same seed gives the same items."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-check":
        items = []
        for config, pool in CLI_POOLS.items():
            family, variant = config.split("/")
            point = rng.choice(pool)
            argv = ["check", "--family", family, "--variant", variant]
            # "--kappa=-1/2": argparse reads a separate "-1/2" as an option
            argv += [f"--{key}={value}" for key, value in point.items()]
            argv += ["--window", str(CLI_WINDOW), "--cutoff", CLI_CUTOFF]
            items.append({"id": f"{config}:" + ",".join(f"{k}={v}" for k, v in point.items()), "argv": argv})
        return items
    if workload == "kappa-sweep":
        k1, k2 = rng.sample(SWEEP_NS_KAPPAS, 2)
        kappa, eta, omega = rng.choice(SWEEP_N2_POINTS)
        ns = [{"id": f"ns/bs:kappa={k}", "family": "ns", "variant": "bs", "kappa": k, "eta": "0", "omega": "0",
               **SWEEP_NS} for k in (k1, k2)]
        n2 = {"id": f"n2/unitary:kappa={kappa},eta={eta},omega={omega}", "family": "n2", "variant": "unitary",
              "kappa": kappa, "eta": eta, "omega": omega, **SWEEP_N2}
        return [ns[0], n2, ns[1]]
    if workload == "abstract-gram":
        return [gram_point(slot, *rng.choice(pool)) for slot, pool in GRAM_POOLS.items()]
    raise ValueError(f"unknown workload {workload!r}")


# -- verdicts of a CLI report ---------------------------------------------------


def cli_report_problems(item: dict, returncode: int, report: bytes) -> list[str]:
    """Why a `supervir check` report is wrong; empty when it is right."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    try:
        document = json.loads(report)
    except ValueError:
        return problems + ["report is not JSON"]
    checks = document.get("checks", [])
    controls = [c for c in checks if c["expected_failure_control"]]
    if "bs" in item["argv"] and len(controls) != 1:
        problems.append("the bs symmetry control did not run")
    for check in checks:
        residuals = [e["residual"] for e in check["entries"]]
        if check["expected_failure_control"]:
            if all(r == "0" for r in residuals) or not all("detail" in e for e in check["entries"]):
                problems.append(f"{check['check']}: control passed or has no witness")
        elif check["status"] != "PASS" or any(r != "0" for r in residuals):
            problems.append(f"{check['check']}: {check['status']} with residuals {sorted(set(residuals))}")
    return problems


def cli_entries(report: bytes) -> int:
    return sum(len(check["entries"]) for check in json.loads(report)["checks"])


# -- in-process items (kappa-sweep and abstract-gram) ---------------------------


def _pairs(window: int):
    """The paired (n, m) modes of one lattice with |n|, |m| <= window, n > m."""
    from supervir.halfint import half, halfint_range

    hi = half(2 * window)
    pairs = []
    for integer in (True, False):
        modes = halfint_range(-hi, hi, integer=integer)
        pairs += [(n, m) for i, n in enumerate(modes) for m in modes[:i]]
    return pairs


def run_sweep_point(item: dict) -> tuple[int, list[str]]:
    """Check one parameter point; return (residual entries, problems)."""
    from supervir import verify
    from supervir.halfint import half
    from supervir.realizations import RealizationParams

    params = RealizationParams(item["family"], item["variant"], Fraction(item["kappa"]),
                               Fraction(item["eta"]), Fraction(item["omega"]))
    cutoff = half(item["cutoff_twice"])
    reports = [verify.check_relations(params, item["window"], cutoff)]
    if params.variant == "bs":
        reports.append(verify.check_weak_symmetry(params, _pairs(item["pairs_window"]), cutoff))
    problems = [f"{r.check}{e.indices}: residual {e.residual}"
                for r in reports for e in r.entries if e.residual != 0]
    problems += [f"{r.check}: no entries" for r in reports if not r.entries]
    entries = sum(len(r.entries) for r in reports)
    if params.variant == "bs":
        bare = verify.single_mode_symmetry_control(params, "L", half(2), cutoff).entries[0]
        entries += 1
        if bare.residual <= 0 or not bare.detail:
            problems.append("bare-mode control: zero residual or no witness")
    return entries, problems


def run_gram_point(item: dict) -> tuple[int, list[str]]:
    """Gram and PSD verdict at every level; return (Gram entries, problems)."""
    from supervir import superalg
    from supervir.halfint import half

    pres = superalg.family_presentation(item["algebra"])
    q = Fraction(item["q"]) if item["q"] is not None else None
    lw = superalg.LowestWeightData(Fraction(item["c"]), Fraction(item["h"]), q, item["vacuum"])
    step = 2 if item["algebra"] == "vir" else 1
    entries = 0
    problems = []
    for twice in range(0, item["max_twice"] + 1, step):
        gram = superalg.abstract_gram(pres, lw, half(twice))
        result = superalg.psd_check(gram)
        entries += gram.size ** 2
        if not result.psd:
            value = result.witness_value(gram.entries)
            if value is None or value >= 0:
                problems.append(f"level {half(twice)}: failing witness has value {value}")
            if item["negative_twice"] is None:
                problems.append(f"level {half(twice)}: not PSD inside the unitary range")
        elif item["negative_twice"] == twice:
            problems.append(f"level {half(twice)}: PSD although a word has negative norm")
    return entries, problems


def assert_cold() -> None:
    """Every cache the benchmark reads must start empty in a fresh process."""
    from supervir import fock, oscillators, realizations, superalg

    caches = {
        "oscillators._act_cached": oscillators._act_cached,
        "oscillators.boson_mode": oscillators.boson_mode,
        "oscillators.fermion_mode": oscillators.fermion_mode,
        "oscillators.bilinear_mode": oscillators.bilinear_mode,
        "oscillators.tail_sum": oscillators.tail_sum,
        "realizations.make_mode": realizations.make_mode,
        "fock.state_norm_sq": fock.state_norm_sq,
    }
    warm = [name for name, fn in caches.items() if fn.cache_info().currsize]
    warm += [f"{name} presentation _reduce_cache" for name in ("vir", "ns", "n2")
             if superalg.family_presentation(name)._reduce_cache]
    if warm:
        raise RuntimeError(f"caches not empty at run start: {warm}")


def cache_stats() -> dict:
    from supervir import fock, oscillators, realizations, superalg

    out = {}
    for name, fn in (("oscillators.act_cache", oscillators._act_cached),
                     ("oscillators.boson_mode", oscillators.boson_mode),
                     ("oscillators.fermion_mode", oscillators.fermion_mode),
                     ("oscillators.bilinear_mode", oscillators.bilinear_mode),
                     ("oscillators.tail_sum", oscillators.tail_sum),
                     ("fock.state_norm_sq", fock.state_norm_sq),
                     ("realizations.make_mode", realizations.make_mode)):
        info = fn.cache_info()
        out[f"{name}.hits"] = info.hits
        out[f"{name}.misses"] = info.misses
        out[f"{name}.size"] = info.currsize
    out["superalg.reduce_cache_size"] = sum(
        len(superalg.family_presentation(name)._reduce_cache) for name in ("vir", "ns", "n2"))
    return out
