"""Command-line front end.

Subcommands: rank, sweep, oracle, induction, classes, curve validate,
matrix export.  Every JSON output embeds the command, tool version, seed,
and (when a curve is involved) genus, convention and the exact parameter
values, so any run can be reproduced from its own report.  Timing fields
are suppressed by --no-timing, making reports byte-identical across runs.

Exit codes: 0 = success / claims hold, 1 = a mathematical claim failed,
2 = usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .curves import ParameterError, build_curve, node_check
from .exact import format_rational, parse_rational
from .gaussmap import (assemble_matrix, matrix_checksum, matrix_to_bytes,
                       matrix_to_json, nu_closed_form, nu_wronskian, row_pairs)
from .induction import sweep as induction_sweep
from .classes import classes_report
from .params import builtin_params, params_from_file, seeded_params, sweep_seed
from .rank import certify


def _add_common(parser: argparse.ArgumentParser, needs_params: bool = True) -> None:
    parser.add_argument("--convention", choices=("paper", "script"),
                        help="curve convention (default: the params file's, else paper)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for parameter draws and the prime-list offset")
    if needs_params:
        parser.add_argument("--params", metavar="FILE",
                            help="JSON parameter file (overrides --seed as source)")
        parser.add_argument("--paper-params", action="store_true",
                            help="use the built-in parameter vectors (genus 4..12)")
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument("--no-timing", action="store_true",
                        help="omit timing fields (byte-reproducible output)")


def _resolve_params(args, genus: int):
    """Exactly one parameter source: file | built-in vectors | seed.

    A params file carries its own convention; an explicit --convention that
    disagrees with it is an error.  Without a file the default is paper.
    """
    if getattr(args, "params", None) and getattr(args, "paper_params", False):
        raise ParameterError("--params and --paper-params are mutually exclusive")
    if getattr(args, "params", None):
        file_genus, convention, a1, a2 = params_from_file(args.params)
        if genus is not None and file_genus != genus:
            raise ParameterError(f"--genus {genus} disagrees with parameter file genus {file_genus}")
        if args.convention is not None and args.convention != convention:
            raise ParameterError(f"--convention {args.convention} disagrees with parameter "
                                 f"file convention {convention}")
        return file_genus, convention, a1, a2, "file"
    convention = args.convention or "paper"
    if getattr(args, "paper_params", False):
        a1, a2 = builtin_params(genus)
        return genus, convention, a1, a2, "paper-params"
    a1, a2 = seeded_params(genus, args.seed)
    return genus, convention, a1, a2, "seed"


def _envelope(args, command: str, **extra) -> dict:
    out = {"command": command, "version": __version__, "seed": args.seed}
    out.update(extra)
    return out


def _curve_fields(curve) -> dict:
    return {
        "genus": curve.genus,
        "convention": curve.convention,
        "params": {
            "a1": [format_rational(x) for x in curve.a1],
            "a2": [format_rational(x) for x in curve.a2],
        },
    }


def _emit(args, payload: dict, human_lines) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _maybe_timing(args, payload: dict, started: float) -> None:
    if not args.no_timing:
        payload["elapsed_ms"] = round((time.perf_counter() - started) * 1000, 3)


def cmd_rank(args) -> int:
    started = time.perf_counter()
    genus, convention, a1, a2, source = _resolve_params(args, args.genus)
    curve = build_curve(genus, a1, a2, convention)
    cert = certify(curve, policy=args.policy, seed=args.seed)
    payload = _envelope(args, "rank", **_curve_fields(curve),
                        param_source=source,
                        certificate=cert.to_json_dict(with_timing=not args.no_timing))
    _maybe_timing(args, payload, started)
    _emit(args, payload, [
        f"genus {genus} ({convention}): rank {cert.rank} of max {cert.max_possible} "
        f"[{cert.method}]" + (" MAXIMAL" if cert.is_maximal else " NOT MAXIMAL"),
    ])
    return 0 if cert.is_maximal else 1


def cmd_sweep(args) -> int:
    started = time.perf_counter()
    if args.g_min > args.g_max:
        raise ParameterError(f"--g-min {args.g_min} exceeds --g-max {args.g_max}")
    rows = []
    lines = []
    all_maximal = True
    for genus in range(args.g_min, args.g_max + 1):
        case_args = argparse.Namespace(**vars(args))
        case_args.seed = sweep_seed(args.seed, genus) if not (
            getattr(args, "params", None) or args.paper_params) else args.seed
        genus_, convention, a1, a2, source = _resolve_params(case_args, genus)
        curve = build_curve(genus_, a1, a2, convention)
        cert = certify(curve, policy=args.policy, seed=args.seed)
        all_maximal = all_maximal and cert.is_maximal
        rows.append({**_curve_fields(curve), "param_source": source,
                     "certificate": cert.to_json_dict(with_timing=not args.no_timing)})
        lines.append(f"g={genus_}: rank {cert.rank}/{cert.max_possible} [{cert.method}]"
                     + ("" if cert.is_maximal else "  ** not maximal **"))
    payload = _envelope(args, "sweep", g_min=args.g_min, g_max=args.g_max, cases=rows)
    _maybe_timing(args, payload, started)
    _emit(args, payload, lines)
    return 0 if all_maximal else 1


def cmd_oracle(args) -> int:
    started = time.perf_counter()
    genus, convention, a1, a2, source = _resolve_params(args, args.genus)
    if convention != "paper":
        print("oracle requires the paper convention (closed forms are stated for it)",
              file=sys.stderr)
        return 2
    curve = build_curve(genus, a1, a2, convention)
    mismatches = []
    for (i, j) in row_pairs(genus):
        for h in (1, 2):
            got = nu_wronskian(curve, i, j, h)
            want = nu_closed_form(curve, i, j, h)
            if got != want:
                degree = next(d for d in range(max(got.degree, want.degree) + 1)
                              if got.coefficient(d) != want.coefficient(d))
                mismatches.append({
                    "i": i, "j": j, "h": h, "degree": degree,
                    "wronskian": format_rational(got.coefficient(degree)),
                    "closed_form": format_rational(want.coefficient(degree)),
                })
    payload = _envelope(args, "oracle", **_curve_fields(curve), param_source=source,
                        pairs_checked=len(row_pairs(genus)) * 2,
                        mismatches=mismatches, ok=not mismatches)
    _maybe_timing(args, payload, started)
    lines = [f"genus {genus}: closed form == wronskian on {payload['pairs_checked']} blocks: "
             + ("PASS" if not mismatches else "FAIL")]
    for m in mismatches:
        lines.append(f"  mismatch at (i={m['i']}, j={m['j']}, h={m['h']}), "
                     f"degree {m['degree']}: {m['wronskian']} != {m['closed_form']}")
    _emit(args, payload, lines)
    return 0 if not mismatches else 1


def cmd_induction(args) -> int:
    started = time.perf_counter()
    if args.g_min > args.g_max:
        raise ParameterError(f"--g-min {args.g_min} exceeds --g-max {args.g_max}")
    a_values = [parse_rational(a) for a in (args.a or ["2", "3", "-5/7"])]
    for a in a_values:
        if a in (0, 1):
            raise ParameterError("family parameter a must avoid 0 and 1")
    reports = induction_sweep(args.g_min, args.g_max, a_values)
    ok = all(r.det5_nonzero and r.tau_closed_form_matches for r in reports)
    payload = _envelope(args, "induction", g_min=args.g_min, g_max=args.g_max,
                        a_values=[format_rational(a) for a in a_values],
                        reports=[r.to_json_dict() for r in reports], ok=ok)
    _maybe_timing(args, payload, started)
    lines = []
    for r in reports:
        flags = []
        if not r.det5_nonzero:
            flags.append("DET5=0")
        if not r.tau_closed_form_matches:
            flags.append("TAU-MISMATCH")
        if r.scaled4x4_matches is False:
            flags.append("4x4-DIAGNOSTIC-OFF")
        elif r.scaled4x4_matches is None:
            flags.append("4x4-DIAGNOSTIC-INCONCLUSIVE")
        status = "ok" if not flags else " ".join(flags)
        lines.append(f"g={r.genus} a={format_rational(r.a)} ({r.parity}): det5 nonzero: "
                     f"{r.det5_nonzero}; {status}")
    _emit(args, payload, lines)
    return 0 if ok else 1


def cmd_classes(args) -> int:
    started = time.perf_counter()
    report = classes_report()
    payload = _envelope(args, "classes", results=report)
    _maybe_timing(args, payload, started)
    lines = []
    for name, value in report.items():
        lines.append(f"{name}: {json.dumps(value, sort_keys=True)}")
    _emit(args, payload, lines)
    return 0


def cmd_curve_validate(args) -> int:
    started = time.perf_counter()
    genus, convention, a1, a2, source = _resolve_params(args, args.genus)
    curve = build_curve(genus, a1, a2, convention)
    report = node_check(curve)
    payload = _envelope(args, "curve validate", **_curve_fields(curve),
                        param_source=source, ok=report.ok,
                        failures=list(report.failures))
    _maybe_timing(args, payload, started)
    lines = [f"genus {genus} ({convention}): node check "
             + ("PASS" if report.ok else "FAIL")] + [f"  {f}" for f in report.failures]
    _emit(args, payload, lines)
    return 0 if report.ok else 1


def cmd_matrix_export(args) -> int:
    started = time.perf_counter()
    genus, convention, a1, a2, source = _resolve_params(args, args.genus)
    curve = build_curve(genus, a1, a2, convention)
    matrix = assemble_matrix(curve)
    if args.format == "json":
        data = matrix_to_json(matrix).encode("utf-8")
    else:
        data = matrix_to_bytes(matrix)
    with open(args.out, "wb") as fh:
        fh.write(data)
    payload = _envelope(args, "matrix export", **_curve_fields(curve),
                        param_source=source, out=args.out, format=args.format,
                        rows=matrix.rows, cols=matrix.cols,
                        sha256=matrix_checksum(matrix))
    _maybe_timing(args, payload, started)
    _emit(args, payload, [f"wrote {matrix.rows}x{matrix.cols} matrix to {args.out} "
                          f"({args.format}, sha256 {payload['sha256'][:16]}...)"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prymgauss",
        description="Exact rank certification of the first Gaussian map of "
                    "Prym-canonical binary curves")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="certify the rank for one curve")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--policy", choices=("fast", "exact"), default="fast")
    _add_common(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("sweep", help="rank certificates over a genus range")
    p.add_argument("--g-min", type=int, required=True)
    p.add_argument("--g-max", type=int, required=True)
    p.add_argument("--policy", choices=("fast", "exact"), default="fast")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle", help="closed form vs wronskian on every block")
    p.add_argument("--genus", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("induction", help="verify the genus-induction 5x5 blocks")
    p.add_argument("--g-min", type=int, default=13)
    p.add_argument("--g-max", type=int, default=100)
    p.add_argument("--a", action="append", metavar="RATIONAL",
                   help="family parameter (repeatable; default 2, 3, -5/7)")
    _add_common(p, needs_params=False)
    p.set_defaults(func=cmd_induction)

    p = sub.add_parser("classes", help="divisor-class computations (genus 12)")
    _add_common(p, needs_params=False)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("curve", help="curve utilities")
    curve_sub = p.add_subparsers(dest="curve_command", required=True)
    pv = curve_sub.add_parser("validate", help="build a curve and check all nodes")
    pv.add_argument("--genus", type=int, required=True)
    _add_common(pv)
    pv.set_defaults(func=cmd_curve_validate)

    p = sub.add_parser("matrix", help="matrix utilities")
    matrix_sub = p.add_subparsers(dest="matrix_command", required=True)
    pe = matrix_sub.add_parser("export", help="assemble and export the matrix")
    pe.add_argument("--genus", type=int, required=True)
    pe.add_argument("--out", required=True)
    pe.add_argument("--format", choices=("json", "bin"), default="json")
    _add_common(pe)
    pe.set_defaults(func=cmd_matrix_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
