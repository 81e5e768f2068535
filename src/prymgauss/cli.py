"""Command-line front end.

Subcommands: rank, sweep, oracle, induction, classes, curve validate,
matrix export.  Every JSON output embeds the command, tool version, seed,
and (when a curve is involved) genus, convention and the exact parameter
values, so any run can be reproduced from its own report.  Timing fields
are suppressed by --no-timing, making reports byte-identical across runs.
The commands that build a curve (rank, sweep, oracle, curve validate, matrix
export) take --convention, --params and --paper-params; induction and
classes do not.

Exit codes: 0 = success / claims hold, 1 = a mathematical claim failed,
2 = usage or validation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import __version__
from .curves import ParameterError, build_curve, node_check
from .exact import format_rational, parse_rational
from .gaussmap import assemble_matrix, matrix_shape, matrix_to_bytes, matrix_to_json, nu_closed_form
from .induction import sweep as induction_sweep
from .classes import classes_report
from .params import builtin_params, params_from_file, seeded_params, sweep_seed
from .rank import certify


def _add_common(parser: argparse.ArgumentParser, builds_curve: bool = True) -> None:
    if builds_curve:
        parser.add_argument("--convention", choices=("paper", "script"),
                            help="curve convention (default: the params file's, else paper)")
        parser.add_argument("--params", metavar="FILE",
                            help="JSON parameter file (overrides --seed as source)")
        parser.add_argument("--paper-params", action="store_true",
                            help="use the built-in parameter vectors (genus 4..12)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for parameter draws and the prime-list offset")
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument("--no-timing", action="store_true",
                        help="omit timing fields (byte-reproducible output)")


def _curve(args, genus: int, seed: int):
    """Build the curve from exactly one parameter source: file | built-in
    vectors | seed.  Returns the curve and its report fields.

    A params file carries its own convention; an explicit --convention that
    disagrees with it is an error.  Without a file the default is paper.
    """
    if args.params and args.paper_params:
        raise ParameterError("--params and --paper-params are mutually exclusive")
    convention = args.convention or "paper"
    if args.params:
        file_genus, convention, a1, a2 = params_from_file(args.params)
        if file_genus != genus:
            raise ParameterError(f"genus {genus} disagrees with parameter file genus {file_genus}")
        if args.convention is not None and args.convention != convention:
            raise ParameterError(f"--convention {args.convention} disagrees with parameter "
                                 f"file convention {convention}")
        genus, source = file_genus, "file"
    elif args.paper_params:
        (a1, a2), source = builtin_params(genus), "paper-params"
    else:
        (a1, a2), source = seeded_params(genus, seed), "seed"
    curve = build_curve(genus, a1, a2, convention)
    return curve, {
        "genus": curve.genus,
        "convention": curve.convention,
        "params": {
            "a1": [format_rational(x) for x in curve.a1],
            "a2": [format_rational(x) for x in curve.a2],
        },
        "param_source": source,
    }


MAX_CELLS = 2 ** 20


def _check_size(args, genus: int) -> None:
    """Refuse, before any curve is built, a genus whose matrix has more than MAX_CELLS
    cells: one square row block for rank and sweep (genus <= 205), the whole
    matrix for --policy exact, oracle and matrix export (genus <= 76)."""
    rows, cols = matrix_shape(genus)
    rows = min(rows, cols) if getattr(args, "policy", None) == "fast" else rows
    if genus >= 3 and rows * cols > MAX_CELLS:
        raise ParameterError(f"{args.name} at genus {genus} builds a {rows}x{cols} matrix, "
                             f"above the limit of {MAX_CELLS} cells")


def _check_range(args) -> None:
    if args.g_min > args.g_max:
        raise ParameterError(f"--g-min {args.g_min} exceeds --g-max {args.g_max}")


# Each command returns (report fields, human-readable lines, claims hold);
# `run` adds the envelope and timing, prints one of the two forms and maps
# the verdict to the exit code.

def cmd_rank(args):
    _check_size(args, args.genus)
    curve, fields = _curve(args, args.genus, args.seed)
    cert = certify(curve, policy=args.policy, seed=args.seed)
    fields["certificate"] = cert.to_json_dict(with_timing=not args.no_timing)
    return fields, [
        f"genus {curve.genus} ({curve.convention}): rank {cert.rank} of max {cert.max_possible} "
        f"[{cert.method}]" + (" MAXIMAL" if cert.is_maximal else " NOT MAXIMAL"),
    ], cert.is_maximal


def cmd_sweep(args):
    _check_range(args)
    _check_size(args, args.g_max)
    if args.params and args.g_min != args.g_max:
        raise ParameterError(f"a parameter file fixes one genus; sweep range "
                             f"{args.g_min}..{args.g_max} spans more than one")
    rows = []
    lines = []
    all_maximal = True
    for genus in range(args.g_min, args.g_max + 1):
        curve, fields = _curve(args, genus, sweep_seed(args.seed, genus))
        cert = certify(curve, policy=args.policy, seed=args.seed)
        all_maximal = all_maximal and cert.is_maximal
        fields["certificate"] = cert.to_json_dict(with_timing=not args.no_timing)
        rows.append(fields)
        lines.append(f"g={curve.genus}: rank {cert.rank}/{cert.max_possible} [{cert.method}]"
                     + ("" if cert.is_maximal else "  ** not maximal **"))
    return {"g_min": args.g_min, "g_max": args.g_max, "cases": rows}, lines, all_maximal


def cmd_oracle(args):
    _check_size(args, args.genus)
    curve, fields = _curve(args, args.genus, args.seed)
    if curve.convention != "paper":
        raise ParameterError("oracle requires the paper convention "
                             "(closed forms are stated for it)")
    matrix = assemble_matrix(curve)
    layout = matrix.layout
    mismatches = []
    for (i, j), row in zip(matrix.pairs, matrix.entries):
        for h in (1, 2):
            start, end = layout[f"nu{h}"]
            got, want = row[start:end], nu_closed_form(curve, i, j, h)
            if got != want:
                degree = next(d for d, (x, y) in enumerate(zip(got, want)) if x != y)
                mismatches.append({
                    "i": i, "j": j, "h": h, "degree": degree,
                    "wronskian": format_rational(got[degree]),
                    "closed_form": format_rational(want[degree]),
                })
    fields.update(pairs_checked=matrix.rows * 2, mismatches=mismatches, ok=not mismatches)
    lines = [f"genus {curve.genus}: closed form == wronskian on {fields['pairs_checked']} "
             "blocks: " + ("PASS" if not mismatches else "FAIL")]
    for m in mismatches:
        lines.append(f"  mismatch at (i={m['i']}, j={m['j']}, h={m['h']}), "
                     f"degree {m['degree']}: {m['wronskian']} != {m['closed_form']}")
    return fields, lines, not mismatches


def cmd_induction(args):
    _check_range(args)
    # first occurrence order: a repeated value is verified and reported once
    a_values = list(dict.fromkeys(parse_rational(a) for a in (args.a or ["2", "3", "-5/7"])))
    reports = induction_sweep(args.g_min, args.g_max, a_values)
    ok = all(r.ok for r in reports)
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
    return {"g_min": args.g_min, "g_max": args.g_max,
            "a_values": [format_rational(a) for a in a_values],
            "reports": [r.to_json_dict() for r in reports], "ok": ok}, lines, ok


def cmd_classes(args):
    report = classes_report()
    lines = [f"{name}: {json.dumps(value, sort_keys=True)}" for name, value in report.items()]
    return {"results": report}, lines, True


def cmd_curve_validate(args):
    curve, fields = _curve(args, args.genus, args.seed)
    failures = node_check(curve)
    ok = not failures
    fields.update(ok=ok, failures=list(failures))
    lines = [f"genus {curve.genus} ({curve.convention}): node check "
             + ("PASS" if ok else "FAIL")] + [f"  {f}" for f in failures]
    return fields, lines, ok


def cmd_matrix_export(args):
    import hashlib

    _check_size(args, args.genus)
    curve, fields = _curve(args, args.genus, args.seed)
    matrix = assemble_matrix(curve)
    canonical = matrix_to_json(matrix).encode("utf-8")     # what matrix_checksum hashes
    data = canonical if args.format == "json" else matrix_to_bytes(matrix)
    with open(args.out, "wb") as fh:
        fh.write(data)
    fields.update(out=args.out, format=args.format, rows=matrix.rows, cols=matrix.cols,
                  sha256=hashlib.sha256(canonical).hexdigest())
    return fields, [f"wrote {matrix.rows}x{matrix.cols} matrix to {args.out} "
                    f"({args.format}, sha256 {fields['sha256'][:16]}...)"], True


def run(args) -> int:
    """Run the parsed command, print its report and return the exit code."""
    started = time.perf_counter()
    fields, lines, ok = args.func(args)
    report = {"command": args.name, "version": __version__, "seed": args.seed, **fields}
    if not args.no_timing:
        report["elapsed_ms"] = round((time.perf_counter() - started) * 1000, 3)
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="prymgauss",
        description="Exact rank certification of the first Gaussian map of "
                    "Prym-canonical binary curves")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="certify the rank for one curve")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--policy", choices=("fast", "exact"), default="fast")
    _add_common(p)
    p.set_defaults(func=cmd_rank, name="rank")

    p = sub.add_parser("sweep", help="rank certificates over a genus range")
    p.add_argument("--g-min", type=int, required=True)
    p.add_argument("--g-max", type=int, required=True)
    p.add_argument("--policy", choices=("fast", "exact"), default="fast")
    _add_common(p)
    p.set_defaults(func=cmd_sweep, name="sweep")

    p = sub.add_parser("oracle", help="closed form vs wronskian on every block")
    p.add_argument("--genus", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_oracle, name="oracle")

    p = sub.add_parser("induction", help="verify the genus-induction 5x5 blocks")
    p.add_argument("--g-min", type=int, default=13)
    p.add_argument("--g-max", type=int, default=100)
    p.add_argument("--a", action="append", metavar="RATIONAL",
                   help="family parameter (repeatable; default 2, 3, -5/7)")
    _add_common(p, builds_curve=False)
    p.set_defaults(func=cmd_induction, name="induction")

    p = sub.add_parser("classes", help="divisor-class computations (genus 12)")
    _add_common(p, builds_curve=False)
    p.set_defaults(func=cmd_classes, name="classes")

    p = sub.add_parser("curve", help="curve utilities")
    curve_sub = p.add_subparsers(dest="curve_command", required=True)
    pv = curve_sub.add_parser("validate", help="build a curve and check all nodes")
    pv.add_argument("--genus", type=int, required=True)
    _add_common(pv)
    pv.set_defaults(func=cmd_curve_validate, name="curve validate")

    p = sub.add_parser("matrix", help="matrix utilities")
    matrix_sub = p.add_subparsers(dest="matrix_command", required=True)
    pe = matrix_sub.add_parser("export", help="assemble and export the matrix")
    pe.add_argument("--genus", type=int, required=True)
    pe.add_argument("--out", required=True)
    pe.add_argument("--format", choices=("json", "bin"), default="json")
    _add_common(pe)
    pe.set_defaults(func=cmd_matrix_export, name="matrix export")

    return parser


def main(argv=None) -> int:
    # Exact values can have more digits than the interpreter's int<->str
    # conversion limit (4300 by default, where the limit exists) allows.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
