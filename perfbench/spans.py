"""Spans around the public functions of each prymgauss layer.

`Tracer.install` rebinds each traced function in every `prymgauss.*` module
namespace that binds it (for example both `prymgauss.gaussmap.assemble_matrix`
and `prymgauss.cli.assemble_matrix`), so calls made inside the program are
recorded too.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time


def _matrix_attrs(result, args, kwargs) -> dict:
    cells = result.rows * result.cols
    bits = max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for row in result.entries for x in row), default=0)
    return {"cells": cells, "entry_bits_max": bits}


def _bytes_attrs(result, args, kwargs) -> dict:
    return {"bytes": len(result)}


def _certificate_attrs(result, args, kwargs) -> dict:
    return {"method": result.method, "primes": len(result.primes_used)}


def _induction_attrs(result, args, kwargs) -> dict:
    return {"inconclusive": result.scaled4x4_matches is None}


# Traced functions as "<module>.<function>" under prymgauss, each with the
# attributes it records from its result.  The classes layer is not traced:
# its whole report takes under 1 ms and no planned change targets it.
TRACED = {
    "cli.main": None,
    "params.params_from_file": None,
    "curves.build_curve": None,
    "gaussmap.assemble_matrix": _matrix_attrs,
    "gaussmap.matrix_from_bytes": None,
    "gaussmap.matrix_from_json": None,
    "gaussmap.matrix_to_bytes": _bytes_attrs,
    "gaussmap.matrix_to_json": _bytes_attrs,
    "gaussmap.matrix_checksum": None,
    "rank.certify": _certificate_attrs,
    "rank.rank_mod_p": None,
    "rank.rank_exact": None,
    "induction.verify_det5": _induction_attrs,
    "induction.build_induction_submatrix": None,
    "induction.check_scaled_matrix": None,
    "induction.check_tau_closed_form": None,
}

# Per-layer metrics: name -> unit.  Times and counts are per pass over the
# workload's case list.
LAYER_METRICS = {
    "cli.main.self_s": "s",
    "params.params_from_file.s": "s",
    "curves.build_curve.s": "s",
    "curves.build_curve.calls": "count",
    "gaussmap.assemble_matrix.s": "s",
    "gaussmap.assemble_matrix.calls": "count",
    "gaussmap.cells": "count",
    "gaussmap.entry_bits_max": "bits",
    "gaussmap.matrix_from_bytes.s": "s",
    "gaussmap.matrix_from_json.s": "s",
    "gaussmap.matrix_to_bytes.s": "s",
    "gaussmap.matrix_to_json.s": "s",
    "gaussmap.matrix_checksum.s": "s",
    "gaussmap.bytes_out": "bytes",
    "rank.certify.self_s": "s",
    "rank.certify.calls": "count",
    "rank.rank_mod_p.s": "s",
    "rank.rank_mod_p.calls": "count",
    "rank.bad_prime_skips": "count",
    "rank.primes_per_certificate": "count",
    "rank.modular_hit_ratio": "ratio",
    "rank.rank_exact.s": "s",
    "rank.rank_exact.calls": "count",
    "rank.fallbacks": "count",
    "induction.verify_det5.self_s": "s",
    "induction.verify_det5.calls": "count",
    "induction.build_induction_submatrix.s": "s",
    "induction.check_scaled_matrix.s": "s",
    "induction.check_tau_closed_form.s": "s",
    "induction.inconclusive_diagnostics": "count",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Records one span per call of a traced function.

    A span is a dict: id, name, start, end (perf_counter seconds), parent
    (the id of the enclosing span or None), case and pass (set by the caller
    through `case` and `pass_index`), error (exception type name or None),
    and attrs recorded from the result.
    """

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.case: str | None = None
        self.pass_index: int | None = None
        self._stack: list[dict] = []
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1]["id"] if self._stack else None,
                    "case": self.case, "pass": self.pass_index,
                    "start": time.perf_counter(), "end": None, "error": None, "attrs": {}}
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span["attrs"] = attrs(result, args, kwargs)
            return result
        return traced

    def install(self) -> None:
        """Rebind every traced function wherever a prymgauss module binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "prymgauss" or n.startswith("prymgauss.")]
        for name, attrs in TRACED.items():
            module, func = name.rsplit(".", 1)
            original = getattr(importlib.import_module(f"prymgauss.{module}"), func)
            wrapper = self.wrap(name, original, attrs)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._originals.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._originals):
            setattr(mod, attr, original)
        self._originals.clear()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        reach = start
        for child in sorted(children.get(span["id"], ()), key=lambda s: s["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span["id"]] = (end - start) - covered
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass, all but trace.overhead_frac (see run.py)."""
    selfs = self_times(spans)
    by_name: dict[str, list[dict]] = {name: [] for name in TRACED}
    for span in spans:
        by_name[span["name"]].append(span)

    def total(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def self_total(name):
        return sum(selfs[s["id"]] for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    certs = [s["attrs"] for s in by_name["rank.certify"] if s["error"] is None]
    n_cert = len(certs)
    return {
        "cli.main.self_s": self_total("cli.main"),
        "params.params_from_file.s": total("params.params_from_file"),
        "curves.build_curve.s": total("curves.build_curve"),
        "curves.build_curve.calls": calls("curves.build_curve"),
        "gaussmap.assemble_matrix.s": total("gaussmap.assemble_matrix"),
        "gaussmap.assemble_matrix.calls": calls("gaussmap.assemble_matrix"),
        "gaussmap.cells": sum(s["attrs"].get("cells", 0) for s in by_name["gaussmap.assemble_matrix"]),
        "gaussmap.entry_bits_max": max((s["attrs"].get("entry_bits_max", 0)
                                        for s in by_name["gaussmap.assemble_matrix"]), default=0),
        "gaussmap.matrix_from_bytes.s": total("gaussmap.matrix_from_bytes"),
        "gaussmap.matrix_from_json.s": total("gaussmap.matrix_from_json"),
        "gaussmap.matrix_to_bytes.s": total("gaussmap.matrix_to_bytes"),
        "gaussmap.matrix_to_json.s": total("gaussmap.matrix_to_json"),
        "gaussmap.matrix_checksum.s": total("gaussmap.matrix_checksum"),
        "gaussmap.bytes_out": sum(s["attrs"].get("bytes", 0)
                                  for s in by_name["gaussmap.matrix_to_bytes"] + by_name["gaussmap.matrix_to_json"]),
        "rank.certify.self_s": self_total("rank.certify"),
        "rank.certify.calls": calls("rank.certify"),
        "rank.rank_mod_p.s": total("rank.rank_mod_p"),
        "rank.rank_mod_p.calls": calls("rank.rank_mod_p"),
        "rank.bad_prime_skips": sum(1 for s in by_name["rank.rank_mod_p"] if s["error"] == "BadPrimeError"),
        "rank.primes_per_certificate": sum(c["primes"] for c in certs) / n_cert if n_cert else 0.0,
        "rank.modular_hit_ratio": sum(c["method"] == "modular" for c in certs) / n_cert if n_cert else 0.0,
        "rank.rank_exact.s": total("rank.rank_exact"),
        "rank.rank_exact.calls": calls("rank.rank_exact"),
        "rank.fallbacks": sum(c["method"] == "both" for c in certs),
        "induction.verify_det5.self_s": self_total("induction.verify_det5"),
        "induction.verify_det5.calls": calls("induction.verify_det5"),
        "induction.build_induction_submatrix.s": total("induction.build_induction_submatrix"),
        "induction.check_scaled_matrix.s": total("induction.check_scaled_matrix"),
        "induction.check_tau_closed_form.s": total("induction.check_tau_closed_form"),
        "induction.inconclusive_diagnostics": sum(bool(s["attrs"].get("inconclusive"))
                                                  for s in by_name["induction.verify_det5"]),
    }


def self_time_by_name(spans: list[dict]) -> dict[str, float]:
    """Total self time of each traced function over the given spans."""
    selfs = self_times(spans)
    out = {name: 0.0 for name in TRACED}
    for span in spans:
        out[span["name"]] += selfs[span["id"]]
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
