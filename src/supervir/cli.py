"""Command-line front end.

Three subcommands: `check` runs the verification suites for one
realization and writes a machine-readable report; `tables` emits the
discrete-series, unitary-range, collapsing and central-charge-identity
tables; `bounds` runs the energy-bound diagnostics.

Exit codes: 0 all checks pass (expected-failure controls must fail),
1 a check failed, 2 usage or configuration error, 3 internal error (a
consistency check inside the library failed).  Reports are JSON
with all exact values serialized as "p/q" strings; two runs with the
same configuration produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .fock import FieldContent, FockVector
from .halfint import HalfInt, half, halfint_range
from .oscillators import boson_mode, fermion_mode
from .realizations import RealizationParams, make_mode
from .scalars import format_rational, parse_rational
from .superalg import discrete_series, family_presentation
from . import verify


class UsageError(ValueError):
    pass


def _parse_halfint(text: str) -> HalfInt:
    value = parse_rational(text)
    if value.denominator not in (1, 2):
        raise UsageError(f"{text!r} is not a half-integer")
    return HalfInt(value)


def _params_from_args(args) -> RealizationParams:
    try:
        return RealizationParams(
            family=args.family,
            variant=args.variant,
            kappa=parse_rational(args.kappa),
            eta=parse_rational(args.eta),
            omega=parse_rational(args.omega),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _emit(document: dict, output: str | None) -> None:
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_check(args) -> int:
    params = _params_from_args(args)
    window = args.window
    if window < 1:
        raise UsageError("--window must be at least 1")
    cutoff = _parse_halfint(args.cutoff)
    if cutoff < 0:
        raise UsageError("--cutoff must be nonnegative")
    levels = _parse_halfint(args.levels) if args.levels else half(min(cutoff.twice, 6 if params.family == "ns" else 4))
    if levels < 0:
        raise UsageError("--levels must be nonnegative")

    reports = [
        verify.fock_pairing_crosscheck(params.content, cutoff),
        verify.check_relations(params, window, cutoff),
    ]

    measured = verify.measure_central_charge(params)
    cc = verify.CheckReport("central_charge", params.to_config())
    cc.entries.append(
        verify.ResidualEntry(
            "measured_vs_formula", (), abs(measured - params.central_charge()),
            f"measured {format_rational(measured)}",
        )
    )
    reports.append(cc)
    reports.append(_lowest_weight_report(params))
    if params.variant != "tilde":
        reports.append(verify.oracle_compare(params, levels))
    if params.variant == "bs":
        pairs = _default_pairs(window)
        reports.append(verify.check_weak_symmetry(params, pairs, cutoff))
        if args.controls != "off" and params.kappa != 0:
            reports.append(verify.single_mode_symmetry_control(params, "L", half(2), cutoff))
    if params.family == "ns" and params.is_vacuum_like():
        for m, n in ((half(3), half(-3)), (half(1), half(1)), (half(1), half(-1))):
            reports.append(verify.borcherds_consistency(params, m, n, cutoff))

    document = {
        "command": "check",
        "params": {**params.to_config(), "window": window, "cutoff": str(cutoff), "levels": str(levels)},
        "checks": [r.to_dict() for r in reports],
        "version": __version__,
    }
    _emit(document, args.output)
    return 0 if all(r.passed for r in reports) else 1


def _default_pairs(window: int) -> list[tuple[HalfInt, HalfInt]]:
    """Every (n, m), n > m, of one lattice with |n|, |m| <= window."""
    hi = half(2 * window)
    modes = [halfint_range(-hi, hi, integer=lattice) for lattice in (True, False)]
    return [(n, m) for lattice in modes for i, n in enumerate(lattice) for m in lattice[:i]]


def _lowest_weight_report(params: RealizationParams) -> verify.CheckReport:
    report = verify.CheckReport("lowest_weight", params.to_config())
    vac = FockVector.vacuum(params.content)
    l0 = make_mode(params, "L", half(0))(vac)
    expect = vac.scale(params.lowest_weight())
    report.entries.append(
        verify.ResidualEntry("L0_on_cyclic_vector", (), (l0 - expect).norm_sq(),
                             f"h = {format_rational(params.lowest_weight())}")
    )
    if params.family == "n2":
        j0 = make_mode(params, "J", half(0))(vac)
        expectq = vac.scale(params.charge())
        report.entries.append(
            verify.ResidualEntry("J0_on_cyclic_vector", (), (j0 - expectq).norm_sq(),
                                 f"q = {format_rational(params.charge())}")
        )
    if params.is_vacuum_like():
        lm1 = make_mode(params, "L", half(-2))(vac)
        report.entries.append(verify.ResidualEntry("L(-1)_kills_vacuum", (), lm1.norm_sq()))
        pres = family_presentation(params.family)
        for role in params.roles():
            if pres.parity(role):
                gm = make_mode(params, role, half(-1))(vac)
                report.entries.append(verify.ResidualEntry(f"{role}(-1/2)_kills_vacuum", (), gm.norm_sq()))
    return report


_SERIES_CLOSED_FORMS = {
    "vir": ("1 - 6/(p(p+1))", lambda p: 1 - Fraction(6, p * (p + 1))),
    "ns": ("(3/2)(1 - 8/(p(p+2)))", lambda p: Fraction(3, 2) * (1 - Fraction(8, p * (p + 2)))),
    "n2": ("3(1 - 2/p)", lambda p: 3 * (1 - Fraction(2, p))),
}

_IDENTITY_TABLE = {
    # name -> (closed form as a rational function builder, description)
    "sl2": (lambda k: 1 - 6 * (k + 1) * (k + 1) / (k + 2), "1 - 6(k+1)^2/(k+2)"),
    "spo(2|1)": (lambda k: Fraction(3, 2) - 12 * (k + 1) * (k + 1) / (2 * k + 3), "3/2 - 12(k+1)^2/(2k+3)"),
    "spo(2|2)": (lambda k: -3 * (2 * k + 1), "-3(2k+1)"),
}

_SHIFTED_IDENTITIES = {
    "spo(2|3)": (Fraction(1, 2), lambda k: -(6 * k + 3), "c(k)+1/2 = -(6k+3)"),
    "D(2,1;a)": (Fraction(3), lambda k: -6 * k, "c(k)+3 = -6k"),
}

# accepted shell-friendly aliases for catalog names
_NAME_ALIASES = {
    "spo_2_1": "spo(2|1)",
    "spo_2_2": "spo(2|2)",
    "spo_2_3": "spo(2|3)",
    "psl_2_2": "psl(2|2)",
}


def cmd_tables(args) -> int:
    # the W-algebra side: loaded only by this command
    from .ratfunc import RationalFunction
    from .walgebra import central_charge_data, collapsing_levels, dual_coxeter, load_superalgebra, unitary_range

    if not (args.series or args.walgebra or args.identity):
        raise UsageError("tables needs at least one of --series, --walgebra, --identity")
    if args.p_max < 3:
        raise UsageError("--p-max must be at least 3, where the series table starts")
    document = {"command": "tables", "params": {}, "version": __version__}
    if args.series:  # argparse restricts it to the keys of _SERIES_CLOSED_FORMS
        formula, closed = _SERIES_CLOSED_FORMS[args.series]
        rows = []
        for p in range(3, args.p_max + 1):
            value = discrete_series(args.series, p)
            recomputed = closed(p)
            rows.append({"p": p, "c": format_rational(value),
                         "matches_closed_form": value == recomputed})
        document["params"]["series"] = args.series
        document["series"] = {"formula": formula, "rows": rows}
    if args.walgebra:
        name = _NAME_ALIASES.get(args.walgebra, args.walgebra)
        rd = unitary_range(name)
        entry = {
            "name": name,
            "dual_coxeter": format_rational(rd.h_dual),
            "superdimension": rd.sdim,
            "unitary_range": rd.describe(),
            "collapsing": [
                {"k": format_rational(cl.k), "target": cl.target,
                 **({"c": format_rational(cl.central_charge)} if cl.central_charge is not None else {})}
                for cl in collapsing_levels(name)
            ],
        }
        for cl in collapsing_levels(name):
            if cl.central_charge is not None:
                entry[f"c({format_rational(cl.k)})"] = format_rational(
                    central_charge_data(rd.h_dual, rd.sdim, cl.k)
                )
        document["params"]["walgebra"] = name
        document["walgebra"] = entry
    if args.identity:
        name = _NAME_ALIASES.get(args.identity, args.identity)
        k = RationalFunction.variable()
        rows = []
        if name in _IDENTITY_TABLE:
            closed, text = _IDENTITY_TABLE[name]
            g = load_superalgebra(name)
            verified = central_charge_data(dual_coxeter(g), g.sdim) == closed(k)
            rows.append({"identity": f"c(k) = {text}", "status": "VERIFIED" if verified else "FAILED"})
        elif name in _SHIFTED_IDENTITIES:
            shift, closed, text = _SHIFTED_IDENTITIES[name]
            if name == "D(2,1;a)":
                lhs = central_charge_data(Fraction(0), 1) + shift
            else:
                g = load_superalgebra(name)
                lhs = central_charge_data(dual_coxeter(g), g.sdim) + shift
            verified = lhs == closed(k)
            rows.append({"identity": text, "status": "VERIFIED" if verified else "FAILED"})
        else:
            raise UsageError(f"no identity table for {name!r}")
        document["params"]["identity"] = name
        document["identities"] = rows
    _emit(document, args.output)
    ok = True
    if "series" in document:
        ok &= all(r["matches_closed_form"] for r in document["series"]["rows"])
    if "identities" in document:
        ok &= all(r["status"] == "VERIFIED" for r in document["identities"])
    return 0 if ok else 1


def cmd_bounds(args) -> int:
    from . import bounds as bounds_mod  # loaded only by this command

    cutoff = _parse_halfint(args.cutoff)
    if cutoff < 0:
        raise UsageError("--cutoff must be nonnegative")
    document = {"command": "bounds", "params": {"cutoff": str(cutoff)}, "version": __version__}
    status_ok = True
    if args.op:
        n = _parse_halfint(args.n)
        content = FieldContent(1, 1)
        if args.op == "fermion" and n.is_integer:
            raise UsageError("fermion modes are half-odd")
        op = fermion_mode(0, n) if args.op == "fermion" else boson_mode(0, n.as_int())  # argparse: fermion|boson
        norm_sq = bounds_mod.restricted_norm_sq(op, content, cutoff)
        document["params"].update({"op": args.op, "n": str(n)})
        document["norm_estimate"] = {"norm_sq": format_rational(norm_sq), "value": math.sqrt(norm_sq)}
    else:
        params = _params_from_args(args)
        n = _parse_halfint(args.n)
        report = bounds_mod.anticommutator_identity(params, args.role, n, cutoff)
        document["params"].update(report.params)
        document["checks"] = [report.to_dict()]
        status_ok = report.passed
    _emit(document, args.output)
    return 0 if status_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supervir",
        description="exact checks for free-field superconformal realizations",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--family", choices=("ns", "n2"), default="ns")
        p.add_argument("--variant", choices=("tilde", "bs", "unitary"), default="unitary")
        p.add_argument("--kappa", default="0")
        p.add_argument("--eta", default="0")
        p.add_argument("--omega", default="0")

    pc = sub.add_parser("check", help="run the verification suite for one realization")
    add_params(pc)
    pc.add_argument("--window", type=int, default=2)
    pc.add_argument("--cutoff", default="3")
    pc.add_argument("--levels", default=None, help="max level for the Gram comparison")
    pc.add_argument("--controls", choices=("strict", "off"), default="strict")
    pc.add_argument("--output", default=None)
    pc.set_defaults(func=cmd_check)

    pt = sub.add_parser("tables", help="series, range, collapsing and identity tables")
    pt.add_argument("--series", choices=("vir", "ns", "n2"), default=None)
    pt.add_argument("--p-max", type=int, default=5, dest="p_max")
    pt.add_argument("--walgebra", default=None)
    pt.add_argument("--identity", default=None)
    pt.add_argument("--output", default=None)
    pt.set_defaults(func=cmd_tables)

    pb = sub.add_parser("bounds", help="energy-bound diagnostics")
    add_params(pb)
    pb.add_argument("--role", default="G")
    pb.add_argument("--n", default="3/2")
    pb.add_argument("--cutoff", default="4")
    pb.add_argument("--op", choices=("fermion", "boson"), default=None)
    pb.add_argument("--output", default=None)
    pb.set_defaults(func=cmd_bounds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        # a defect of the program, not a verdict on the realization
        detail = " ".join(str(exc).split()) or "consistency check failed"
        print(f"internal error: {detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
