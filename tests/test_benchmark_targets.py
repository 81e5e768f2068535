"""The benchmark traces prymgauss functions by name; each must still exist,
and each attribute reader must still read the result its function returns."""

import importlib
import importlib.util
from pathlib import Path

from prymgauss import (assemble_matrix, build_curve, certify, matrix_to_bytes, matrix_to_json,
                       seeded_params, verify_det5)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_resolves_to_a_callable():
    spans = load_spans()
    assert {"cli.main", "rank.rank_exact", "induction.verify_det5"} <= set(spans.TRACED)
    for name in spans.TRACED:
        module, func = name.rsplit(".", 1)
        target = getattr(importlib.import_module(f"prymgauss.{module}"), func, None)
        assert callable(target), f"{name} is traced by perfbench/spans.py but missing"


def test_every_attribute_reader_reads_a_real_result():
    spans = load_spans()
    curve = build_curve(5, *seeded_params(5, 0))
    matrix = assemble_matrix(curve)
    # traced name -> (its call, the keys its reader records)
    samples = {
        "induction.verify_det5": ((verify_det5, 13, 2), {"inconclusive"}),
        "rank.certify": ((certify, curve), {"method", "primes"}),
        "gaussmap.assemble_matrix": ((assemble_matrix, curve), {"cells", "entry_bits_max"}),
        "gaussmap.matrix_to_bytes": ((matrix_to_bytes, matrix), {"bytes"}),
        "gaussmap.matrix_to_json": ((matrix_to_json, matrix), {"bytes"}),
    }
    readers = {name: attrs for name, attrs in spans.TRACED.items() if attrs is not None}
    assert set(readers) == set(samples), "a traced result reader has no sample here"
    for name, ((fn, *args), keys) in samples.items():
        recorded = readers[name](fn(*args), tuple(args), {})
        assert set(recorded) == keys, name
    assert readers["gaussmap.assemble_matrix"](matrix, (curve,), {})["cells"] == matrix.rows * matrix.cols
