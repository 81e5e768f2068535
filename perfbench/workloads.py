"""Workload definitions: seeded case lists, case execution and output checks.

Every case's inputs are drawn here from the workload seed; the program only
ever sees the generated values (as `--params` files or `--a` flags).  This
module imports nothing from prymgauss at import time, so case generation and
the output checker can be tested without the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("sweep-fast", "induction", "exact-rank", "matrix-io")

# Curve parameters, as the README documents for seeded draws: numerators
# uniform in [-10^4, 10^4] \ {0}, denominators uniform in [1, 100].
NUMERATOR_BOUND = 10_000
DENOMINATOR_BOUND = 100

SWEEP_GENERA = tuple(range(13, 22))
# A subsample of 13..100 that keeps g=100, the largest case.  Host speed
# varies by tens of percent from call to call, so the median case time is
# steady only if several cases of about the same cost sit at the median and
# fill much of the run: five of the seven genera are 41..45, whose times
# differ by about 15%.
INDUCTION_GENERA = (13, 41, 42, 43, 44, 45, 100)
INDUCTION_DEFAULT_A = ("2", "3", "-5/7")
# Seeds other than 0 draw values of the defaults' shape: two integers and one
# fraction p/q in lowest terms, with |p| and the integers in 2..9 and q in
# 5..9.  A fraction of height 9 costs about 30% more than an integer at
# g=40, so a free draw would let the seed, not the program, move the time.
INDUCTION_INT_RANGE = (2, 9)
INDUCTION_DEN_RANGE = (5, 9)
# Bareiss time at g=8 varies up to twofold from curve to curve, so the pass
# holds many small curves rather than a few large ones, nearly all of one
# genus: the median and the largest-genus time are then medians over 21
# curves of a seed, not the cost of one or two of them.
EXACT_GENERA = (7,) * 3 + (8,) * 21
MATRIX_IO_GENUS = 20

# sha256 of the canonical JSON of the matrix-io matrix for seed 0.  It pins
# the assembled matrix byte for byte: any change to it fails the benchmark.
MATRIX_IO_SHA256_SEED0 = "1df6a605522a7e0d79f7ec19c23ba49534a3367b1075d29c70611680a4787270"


def _rng(workload: str, seed: int, *extra) -> random.Random:
    return random.Random(":".join(str(x) for x in (workload, seed) + extra))


def _format(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def curve_params(rng: random.Random, genus: int) -> tuple[list[str], list[str]]:
    """Two rows of g-1 nonzero rationals, pairwise distinct within a row."""
    rows = []
    for _ in range(2):
        row: list[Fraction] = []
        while len(row) < genus - 1:
            num = rng.randint(-NUMERATOR_BOUND, NUMERATOR_BOUND)
            value = Fraction(num, rng.randint(1, DENOMINATOR_BOUND))
            if num and value not in row:
                row.append(value)
        rows.append([_format(x) for x in row])
    return rows[0], rows[1]


def family_values(seed: int) -> list[str]:
    """Three distinct induction family parameters, avoiding 0 and 1."""
    if seed == 0:
        return list(INDUCTION_DEFAULT_A)
    rng = _rng("induction", seed)

    def signed(low: int, high: int) -> int:
        return rng.choice((-1, 1)) * rng.randint(low, high)

    ints: list[Fraction] = []
    while len(ints) < 2:
        value = Fraction(signed(*INDUCTION_INT_RANGE))
        if value not in ints:
            ints.append(value)
    while True:
        frac = Fraction(signed(*INDUCTION_INT_RANGE), rng.randint(*INDUCTION_DEN_RANGE))
        if frac.denominator >= INDUCTION_DEN_RANGE[0]:
            break
    return [_format(x) for x in ints + [frac]]


def make_cases(workload: str, seed: int) -> list[dict]:
    """The case list of a workload: one dict per case, in run order.

    Rank and matrix cases carry `a1`/`a2` (written to a params file during
    set-up); induction cases carry the family values `a`.
    """
    if workload == "sweep-fast":
        return [_curve_case("sweep-fast", seed, g, "fast") for g in SWEEP_GENERA]
    if workload == "exact-rank":
        return [_curve_case("exact-rank", seed, g, "exact", k)
                for k, g in enumerate(EXACT_GENERA)]
    if workload == "induction":
        a = family_values(seed)
        return [{"id": f"g{g}", "genus": g, "source": "flags", "a": a}
                for g in INDUCTION_GENERA]
    if workload == "matrix-io":
        return [_curve_case("matrix-io", seed, MATRIX_IO_GENUS, "fast")]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _curve_case(workload: str, seed: int, genus: int, policy: str, index: int = 0) -> dict:
    a1, a2 = curve_params(_rng(workload, seed, genus, index), genus)
    return {"id": f"g{genus}-{index}", "genus": genus, "source": "file", "policy": policy,
            "a1": a1, "a2": a2}


def write_params(case: dict, workdir: Path) -> None:
    """Write the case's curve as a params file and remember its path."""
    path = workdir / f"params-{case['id']}.json"
    payload = {"genus": case["genus"], "convention": "paper",
               "a1": case["a1"], "a2": case["a2"]}
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    case["params_file"] = str(path)


def case_argv(workload: str, case: dict, seed: int) -> list[str]:
    """The CLI arguments of one case (matrix-io cases have none)."""
    if workload == "induction":
        argv = ["induction", "--g-min", str(case["genus"]), "--g-max", str(case["genus"])]
        # "--a=-5/7": a separate "-5/7" would be read as an option.
        argv += [f"--a={a}" for a in case["a"]]
    else:
        argv = ["rank", "--genus", str(case["genus"]), "--policy", case["policy"],
                "--params", case["params_file"]]
    return argv + ["--seed", str(seed), "--json", "--no-timing"]


def run_cli(argv: list[str]) -> tuple[int, dict | None]:
    """One in-process call of the CLI; returns (exit code, parsed JSON)."""
    from prymgauss import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    text = out.getvalue()
    return code, (json.loads(text) if text.strip() else None)


def max_rank(genus: int) -> int:
    """min(rows, cols) of the Gaussian-map matrix: ((g-1)(g-2)/2, 5g-5)."""
    return min((genus - 1) * (genus - 2) // 2, 5 * genus - 5)


def check_rank(case: dict, code: int, payload: dict | None) -> list[str]:
    """Problems with one rank-command result; empty when it is right."""
    if code != 0:
        return [f"exit code {code}"]
    if payload is None:
        return ["no JSON output"]
    cert = payload.get("certificate", {})
    problems = []
    if payload.get("genus") != case["genus"]:
        problems.append(f"genus {payload.get('genus')} != {case['genus']}")
    if cert.get("rank") != max_rank(case["genus"]):
        problems.append(f"rank {cert.get('rank')} != min(rows, cols) = {max_rank(case['genus'])}")
    if cert.get("is_maximal") is not True:
        problems.append("certificate is not maximal")
    return problems


def check_induction(case: dict, code: int, payload: dict | None) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    if payload is None:
        return ["no JSON output"]
    problems = []
    if payload.get("ok") is not True:
        problems.append("induction report is not ok")
    if len(payload.get("reports", ())) != len(case["a"]):
        problems.append(f"{len(payload.get('reports', ()))} reports for {len(case['a'])} values of a")
    return problems


def check_round_trip(case: dict, result: dict, pinned: str | None) -> list[str]:
    """Problems with one matrix-io case.

    `result` holds the exported `sha256`, the checksums of both imported
    matrices, whether each re-export matched the file byte for byte, and the
    certificate of the imported matrix.
    """
    problems = []
    for fmt in ("bin", "json"):
        if not result[f"{fmt}_bytes_identical"]:
            problems.append(f"{fmt} re-export differs from the exported file")
        if result[f"{fmt}_checksum"] != result["sha256"]:
            problems.append(f"{fmt} import checksum {result[f'{fmt}_checksum'][:16]} != "
                            f"exported sha256 {result['sha256'][:16]}")
    if pinned is not None and result["sha256"] != pinned:
        problems.append(f"exported sha256 {result['sha256'][:16]} != pinned {pinned[:16]}")
    cert = result["certificate"]
    if cert["rank"] != max_rank(case["genus"]) or not cert["is_maximal"]:
        problems.append(f"imported matrix rank {cert['rank']} is not maximal")
    return problems
