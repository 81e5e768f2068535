"""Benchmark of the prymgauss CLI: four closed-loop workloads, one process,
one thread, one case at a time.

    python3 perfbench/run.py --workload sweep-fast --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, a table

Run from the root of a source checkout; the program is imported from its
`src/` directory.  A run sets itself up (imports, seeded inputs written as
params files, any matrix export, one untimed warm-up case) several times,
then repeats passes over the workload's case list for `--seconds` seconds.
With `--trace 1` it alternates untraced and traced passes and reports
per-layer metrics instead of end-to-end ones; spans go to
`perfbench/out/spans-<workload>-seed<n>.json`.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  Any failed
case makes the exit code 1.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3

END_TO_END = {
    "wall_s": "s",
    "case_ms_p50": "ms",
    "case_ms_max": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# Runs in a child interpreter: one process can time the import of the
# program only once, and set-up is timed several times.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import prymgauss.cli; print(time.perf_counter() - t)")


def import_seconds() -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def import_program():
    """Import prymgauss from this checkout's src/, or raise ImportError."""
    src = ROOT / "src"
    if not (src / "prymgauss" / "__init__.py").is_file():
        raise ImportError(f"no prymgauss sources under {src}")
    sys.path.insert(0, str(src))
    import numpy
    import prymgauss
    import prymgauss.cli  # noqa: F401  (loads every module the tracer rebinds in)
    if not Path(prymgauss.__file__).resolve().is_relative_to(src):
        raise ImportError(f"prymgauss was imported from {prymgauss.__file__}, not {src}")
    return numpy


def matrix_export(case: dict, seed: int, workdir: Path) -> dict:
    """Export the case's matrix with the CLI in both formats (set-up)."""
    state = {}
    for fmt in ("bin", "json"):
        path = workdir / f"matrix-{case['id']}.{fmt}"
        code, payload = workloads.run_cli(
            ["matrix", "export", "--genus", str(case["genus"]), "--params", case["params_file"],
             "--format", fmt, "--out", str(path), "--seed", str(seed), "--json", "--no-timing"])
        if code != 0 or payload is None:
            raise RuntimeError(f"matrix export --format {fmt} exited with {code}")
        state[fmt] = path
        state.setdefault("sha256", payload["sha256"])
        if payload["sha256"] != state["sha256"]:
            raise RuntimeError("bin and json exports report different sha256")
    return state


def matrix_round_trip(state: dict, seed: int) -> dict:
    """One matrix-io case: import both dumps, re-export them, certify."""
    from prymgauss import gaussmap, rank
    blob = state["bin"].read_bytes()
    text = state["json"].read_bytes()
    from_bin = gaussmap.matrix_from_bytes(blob)
    from_json = gaussmap.matrix_from_json(text.decode("utf-8"))
    cert = rank.certify(from_bin, policy="fast", seed=seed)
    return {
        "sha256": state["sha256"],
        "bin_bytes_identical": gaussmap.matrix_to_bytes(from_bin) == blob,
        "json_bytes_identical": gaussmap.matrix_to_json(from_json).encode("utf-8") == text,
        "bin_checksum": gaussmap.matrix_checksum(from_bin),
        "json_checksum": gaussmap.matrix_checksum(from_json),
        "certificate": {"rank": cert.rank, "is_maximal": cert.is_maximal},
    }


def run_case(workload: str, case: dict, seed: int, state: dict) -> tuple[float, list[str]]:
    """Time one case; return (seconds, problems found in its output)."""
    start = time.perf_counter()
    try:
        if workload == "matrix-io":
            result = matrix_round_trip(state, seed)
            elapsed = time.perf_counter() - start
            pinned = workloads.MATRIX_IO_SHA256_SEED0 if seed == 0 else None
            return elapsed, workloads.check_round_trip(case, result, pinned)
        code, payload = workloads.run_cli(workloads.case_argv(workload, case, seed))
        elapsed = time.perf_counter() - start
    except Exception as exc:  # a case that raises is a failed case, not a crash
        return time.perf_counter() - start, [f"raised {type(exc).__name__}: {exc}"]
    check = workloads.check_induction if workload == "induction" else workloads.check_rank
    return elapsed, check(case, code, payload)


def set_up(workload: str, seed: int, workdir: Path) -> tuple[list[dict], dict]:
    """Inputs, params files, any matrix export, and one untimed warm-up case."""
    workdir.mkdir(parents=True)
    cases = workloads.make_cases(workload, seed)
    for case in cases:
        if case["source"] == "file":
            workloads.write_params(case, workdir)
    state = matrix_export(cases[0], seed, workdir) if workload == "matrix-io" else {}
    run_case(workload, cases[0], seed, state)
    return cases, state


def measure(workload: str, cases: list[dict], seed: int, state: dict, seconds: float,
            tracer: "spans.Tracer | None") -> tuple[list[dict], list[dict]]:
    """Repeat passes over the case list until the next would overrun `seconds`.

    With a tracer, passes alternate untraced and traced, starting untraced,
    and at least one of each runs.  Returns (passes, failures).
    """
    passes: list[dict] = []
    failures: list[dict] = []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()
        if traced:
            tracer.pass_index = len(passes)
            tracer.install()
        times = {}
        start = time.perf_counter()
        for case in cases:
            if traced:
                tracer.case = case["id"]
            times[case["id"]], problems = run_case(workload, case, seed, state)
            if problems:
                failures.append({"pass": len(passes), "case": case["id"], "problems": problems})
        wall = time.perf_counter() - start
        if traced:
            tracer.uninstall()
            tracer.case = None
        passes.append({"traced": traced, "wall_s": wall, "case_s": times})
        typical = statistics.median(p["wall_s"] for p in passes)
        done = len(passes) >= (2 if tracer is not None else 1)
        if done and time.perf_counter() - begin + typical > seconds:
            return passes, failures


def end_to_end(passes: list[dict], cases: list[dict], setup_s: float) -> dict[str, float]:
    """End-to-end metrics from the untraced passes.

    A case's time is its mean over passes.  case_ms_p50 is the median of
    those over the case list; a median pooled over every timed call would
    rest on the one call that lands in the middle, and host speed varies by
    tens of percent from call to call.

    case_ms_max is the latency at the largest genus: per genus, the median
    of its cases' times, maximized over genera.  Where a genus has several
    curves this takes the median over them, because curve to curve
    variation would otherwise decide the maximum.
    """
    untraced = [p for p in passes if not p["traced"]]
    case_s = {case["id"]: statistics.mean(p["case_s"][case["id"]] for p in untraced)
              for case in cases}
    by_genus: dict[int, list[float]] = {}
    for case in cases:
        by_genus.setdefault(case["genus"], []).append(case_s[case["id"]])
    return {
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "case_ms_p50": 1000 * statistics.median(case_s.values()),
        "case_ms_max": 1000 * max(statistics.median(ts) for ts in by_genus.values()),
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(passes: list[dict], tracer: "spans.Tracer") -> dict[str, float]:
    traced = [i for i, p in enumerate(passes) if p["traced"]]
    metrics = spans.median_metrics(
        [spans.layer_metrics([s for s in tracer.spans if s["pass"] == i]) for i in traced])
    untraced_wall = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    traced_wall = statistics.median(passes[i]["wall_s"] for i in traced)
    metrics["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    return metrics


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(numpy, workload: str, seed: int, cases: list[dict]) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "cpu": cpu_model(),
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "cases": [{k: case[k] for k in ("id", "genus", "source", "a", "a1", "a2") if k in case}
                  for case in cases],
    }


def run_workload(args) -> int:
    try:
        numpy = import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        repeats = []
        for k in range(SETUP_REPEATS):
            start = time.perf_counter()
            cases, state = set_up(args.workload, args.seed, Path(tmp) / f"setup{k}")
            elapsed = time.perf_counter() - start
            repeats.append(import_seconds() + elapsed)
        setup_s = statistics.median(repeats)
        tracer = spans.Tracer() if args.trace else None
        passes, failures = measure(args.workload, cases, args.seed, state, args.seconds, tracer)

    env = environment(numpy, args.workload, args.seed, cases)
    attempted = sum(len(p["case_s"]) for p in passes)
    failed = len(failures)
    if args.trace:
        values = per_layer(passes, tracer)
        units = spans.LAYER_METRICS
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({
            "environment": env,
            "spans": [{**s, "start": s["start"] - tracer.origin, "end": s["end"] - tracer.origin}
                      for s in tracer.spans],
        }) + "\n", encoding="utf-8")
    else:
        values = end_to_end(passes, cases, setup_s)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "setup_repeats_s": repeats,
                    "passes": passes, "failures": failures, "metrics": metrics},
                   indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"environment": env}))
    if args.trace:
        traced_wall = sum(p["wall_s"] for p in passes if p["traced"])
        shares = {name: t / traced_wall
                  for name, t in spans.self_time_by_name(tracer.spans).items() if t}
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"self-time share {name} {share:.1%}")
    for failure in failures[:10]:
        print(f"FAILED pass {failure['pass']} case {failure['case']}: "
              + "; ".join(failure["problems"]))
    print(f"{args.workload}: {len(passes)} passes, {attempted} cases, "
          f"failed_frac {failed / attempted:.4g}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in a fresh process of its own; one table at the end."""
    rows = []
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0:
            status = 1
            print(f"{workload}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        if "metrics" not in result:
            continue
        rows.append((workload, "failed_frac", result["failed"] / result["attempted"], "ratio"))
        rows += [(workload, name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    for workload, name, value, unit in rows:
        print(f"{workload:<11} {name:<40} {value:>14.6g} {unit}")
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
