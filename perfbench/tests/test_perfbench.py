"""Tests of the benchmark's own logic.

    python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(id_, name, start, end, parent=None):
    return {"id": id_, "name": name, "start": start, "end": end, "parent": parent,
            "case": "c", "pass": 1, "error": None, "attrs": {}}


def test_self_time_subtracts_children_on_a_hand_built_tree():
    tree = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "curves.build_curve", 1.0, 3.0, parent=0),
        _span(2, "rank.certify", 4.0, 9.0, parent=0),
        _span(3, "rank.rank_mod_p", 5.0, 6.0, parent=2),
        _span(4, "rank.rank_mod_p", 6.5, 8.0, parent=2),
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({0: 3.0, 1: 2.0, 2: 2.5, 3: 1.0, 4: 1.5})
    by_name = spans.self_time_by_name(tree)
    assert by_name["rank.rank_mod_p"] == pytest.approx(2.5)
    assert by_name["gaussmap.assemble_matrix"] == 0.0


def test_self_time_counts_overlapping_children_once():
    tree = [_span(0, "cli.main", 0.0, 10.0),
            _span(1, "curves.build_curve", 2.0, 6.0, parent=0),
            _span(2, "curves.build_curve", 4.0, 12.0, parent=0)]
    assert spans.self_times(tree)[0] == pytest.approx(2.0)


def test_layer_metrics_count_calls_outcomes_and_skips():
    tree = [_span(0, "rank.certify", 0.0, 4.0), _span(1, "rank.rank_mod_p", 0.5, 1.0, parent=0),
            _span(2, "rank.rank_mod_p", 1.0, 2.0, parent=0), _span(3, "rank.certify", 5.0, 6.0)]
    tree[0]["attrs"] = {"method": "modular", "primes": 1}
    tree[1]["error"] = "BadPrimeError"
    tree[3]["attrs"] = {"method": "both", "primes": 3}
    metrics = spans.layer_metrics(tree)
    assert metrics["rank.certify.calls"] == 2
    assert metrics["rank.certify.self_s"] == pytest.approx(3.5)
    assert metrics["rank.rank_mod_p.calls"] == 2
    assert metrics["rank.bad_prime_skips"] == 1
    assert metrics["rank.fallbacks"] == 1
    assert metrics["rank.modular_hit_ratio"] == pytest.approx(0.5)
    assert metrics["rank.primes_per_certificate"] == pytest.approx(2.0)
    assert metrics["gaussmap.assemble_matrix.calls"] == 0
    assert set(metrics) | {"trace.overhead_frac"} == set(spans.LAYER_METRICS)


def test_end_to_end_takes_case_means_then_medians():
    cases = [{"id": "a", "genus": 13}, {"id": "b", "genus": 13},
             {"id": "c", "genus": 20}, {"id": "d", "genus": 20}]
    passes = [{"traced": False, "wall_s": 1.0, "case_s": {"a": 0.1, "b": 0.2, "c": 0.5, "d": 0.9}},
              {"traced": False, "wall_s": 2.0, "case_s": {"a": 0.1, "b": 1.0, "c": 0.5, "d": 0.9}},
              {"traced": True, "wall_s": 9.0, "case_s": {"a": 9.0, "b": 9.0, "c": 9.0, "d": 9.0}}]
    metrics = run.end_to_end(passes, cases, setup_s=0.5)
    assert metrics["wall_s"] == pytest.approx(1.5)
    # case means 0.1, 0.6, 0.5, 0.9; the median of the pooled calls would be 0.5
    assert metrics["case_ms_p50"] == pytest.approx(550.0)
    # per genus, the median of its case means: 0.35 at g=13, 0.7 at g=20
    assert metrics["case_ms_max"] == pytest.approx(700.0)
    assert metrics["setup_s"] == 0.5


def _rank_payload(genus, rank, maximal=True):
    return {"genus": genus, "certificate": {"rank": rank, "is_maximal": maximal}}


def test_checker_accepts_a_maximal_rank_and_rejects_a_wrong_one():
    case = {"genus": 13}
    assert workloads.max_rank(13) == 60
    assert workloads.check_rank(case, 0, _rank_payload(13, 60)) == []
    assert workloads.check_rank(case, 0, _rank_payload(13, 59))
    assert workloads.check_rank({"genus": 8}, 0, _rank_payload(8, 21)) == []


def test_checker_rejects_a_not_maximal_certificate():
    # The CLI exits with 1 when the certificate is not maximal.
    case = {"genus": 13}
    assert workloads.check_rank(case, 0, _rank_payload(13, 60, maximal=False))
    assert workloads.check_rank(case, 1, _rank_payload(13, 59, maximal=False))
    assert workloads.check_rank(case, 0, None)


def test_checker_rejects_a_failed_induction_report():
    case = {"genus": 13, "a": ["2", "3"]}
    assert workloads.check_induction(case, 0, {"ok": True, "reports": [{}, {}]}) == []
    assert workloads.check_induction(case, 1, {"ok": False, "reports": [{}, {}]})
    assert workloads.check_induction(case, 0, {"ok": True, "reports": [{}]})


def _round_trip(**changes):
    result = {"sha256": "a" * 64, "bin_checksum": "a" * 64, "json_checksum": "a" * 64,
              "bin_bytes_identical": True, "json_bytes_identical": True,
              "certificate": {"rank": 105, "is_maximal": True}}
    result.update(changes)
    return result


def test_checker_rejects_a_round_trip_whose_checksum_differs():
    case = {"genus": 22}
    assert workloads.check_round_trip(case, _round_trip(), "a" * 64) == []
    assert workloads.check_round_trip(case, _round_trip(bin_checksum="b" * 64), None)
    assert workloads.check_round_trip(case, _round_trip(json_checksum="b" * 64), None)
    assert workloads.check_round_trip(case, _round_trip(json_bytes_identical=False), None)
    assert workloads.check_round_trip(case, _round_trip(), "b" * 64)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert workloads.make_cases(workload, 3) == workloads.make_cases(workload, 3)
    assert workloads.make_cases(workload, 3) != workloads.make_cases(workload, 4)


def test_induction_seed_zero_uses_the_cli_defaults():
    for case in workloads.make_cases("induction", 0):
        assert case["a"] == ["2", "3", "-5/7"]
    assert max(c["genus"] for c in workloads.make_cases("induction", 5)) == 100


def test_generated_parameters_are_valid_curve_rows():
    from fractions import Fraction
    for case in workloads.make_cases("sweep-fast", 7):
        for row in (case["a1"], case["a2"]):
            values = [Fraction(x) for x in row]
            assert len(values) == case["genus"] - 1 == len(set(values))
            assert all(v != 0 and abs(v.numerator) <= 10_000 and v.denominator <= 100
                       for v in values)
    for seed in range(20):
        values = [Fraction(a) for a in workloads.family_values(seed)]
        assert len(set(values)) == 3 and not {0, 1} & set(values)
        if seed:  # the defaults' shape: two integers, then one fraction p/q
            assert [v.denominator == 1 for v in values] == [True, True, False]
            assert all(2 <= abs(v.numerator) <= 9 for v in values)
            assert 5 <= values[2].denominator <= 9


def test_pinned_checksum_is_the_seed_zero_matrix():
    from prymgauss.curves import build_curve
    from prymgauss.gaussmap import assemble_matrix, matrix_checksum
    case = workloads.make_cases("matrix-io", 0)[0]
    matrix = assemble_matrix(build_curve(case["genus"], case["a1"], case["a2"]))
    assert matrix_checksum(matrix) == workloads.MATRIX_IO_SHA256_SEED0


def test_tracer_rebinds_every_namespace_and_restores_them():
    import prymgauss
    from prymgauss import cli, gaussmap
    original = gaussmap.assemble_matrix
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.assemble_matrix is gaussmap.assemble_matrix is prymgauss.assemble_matrix
        assert gaussmap.assemble_matrix is not original
        tracer.case = "g5"
        code, payload = workloads.run_cli(["rank", "--genus", "5", "--json", "--no-timing"])
    finally:
        tracer.uninstall()
    assert code == 0 and payload["certificate"]["is_maximal"]
    assert gaussmap.assemble_matrix is original is cli.assemble_matrix
    names = [s["name"] for s in tracer.spans]
    assert names[0] == "cli.main" and "gaussmap.assemble_matrix" in names
    main_id = tracer.spans[0]["id"]
    assert all(s["parent"] is not None for s in tracer.spans[1:])
    assert {s["case"] for s in tracer.spans} == {"g5"}
    assert next(s for s in tracer.spans if s["name"] == "curves.build_curve")["parent"] == main_id
