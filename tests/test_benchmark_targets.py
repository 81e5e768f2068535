"""The benchmark traces prymgauss functions by name; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert {"cli.main", "rank.rank_exact", "induction.verify_det5"} <= set(spans.TRACED)
    for name in spans.TRACED:
        module, func = name.rsplit(".", 1)
        target = getattr(importlib.import_module(f"prymgauss.{module}"), func, None)
        assert callable(target), f"{name} is traced by perfbench/spans.py but missing"
