"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible with
pytest -s or in the captured output on failure).  Expected ranks are exact
integers with zero tolerance; runtime budgets are asserted as stated.
"""

import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from prymgauss import (assemble_matrix, build_curve, builtin_params, certify,
                       classes_report, degeneracy_class, DivisorClass, grr_c1, hodge_c1,
                       induction_sweep, kodaira_residual, nu_closed_form,
                       rank_exact, rank_mod_p, seeded_params, source_c1)
from prymgauss.exact import FIELD_PRIMES
from prymgauss.params import sweep_seed


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def certify_both_routes(curve, seed: int = 0):
    """The certificate of the curve (the route `rank` and `sweep` take) and
    of its rational matrix, which must agree in rank, method and primes."""
    matrix = assemble_matrix(curve)
    cert = certify(curve, seed=seed)
    from_matrix = certify(matrix, seed=seed)
    assert (cert.rank, cert.method, cert.primes_used) == \
           (from_matrix.rank, from_matrix.method, from_matrix.primes_used), (cert, from_matrix)
    return matrix, cert


def test_criterion_1_script_replication():
    expected = {4: 3, 5: 6, 6: 10, 7: 15, 8: 21, 9: 28, 10: 36, 11: 45, 12: 55}
    start = time.perf_counter()
    got = {}
    for genus in range(4, 13):
        a1, a2 = builtin_params(genus)
        _, cert = certify_both_routes(build_curve(genus, a1, a2, "script"))
        got[genus] = cert.rank
        assert cert.is_maximal, f"genus {genus} not certified maximal"
        assert cert.rank == min((genus - 1) * (genus - 2) // 2, 5 * genus - 5)
    elapsed = time.perf_counter() - start
    ok = got == expected and elapsed < 10.0
    report(1, "script-convention replication g=4..12", ok,
           f"ranks {sorted(got.values())}, {elapsed:.2f}s < 10s")


def test_criterion_2_genus12_bijectivity():
    seeds = (101, 202, 303)
    times = []
    for seed in seeds:
        start = time.perf_counter()
        a1, a2 = seeded_params(12, seed)
        matrix, cert = certify_both_routes(build_curve(12, a1, a2, "paper"), seed)
        times.append(time.perf_counter() - start)
        assert matrix.rows == matrix.cols == 55
        assert cert.rank == 55 and cert.is_maximal, f"seed {seed}: {cert}"
        assert times[-1] < 5.0, f"seed {seed} took {times[-1]:.2f}s"
    report(2, "genus-12 bijectivity, paper convention, 3 seeds", True,
           f"max {max(times):.2f}s/seed < 5s")


def test_criterion_3_surjectivity_band():
    start = time.perf_counter()
    for genus in range(13, 21):
        for seed in (7, 8):
            a1, a2 = seeded_params(genus, sweep_seed(seed, genus))
            _, cert = certify_both_routes(build_curve(genus, a1, a2, "paper"), seed)
            assert cert.rank == 5 * genus - 5, f"g={genus} seed={seed}: {cert}"
            assert cert.method == "modular", "expected the modular-maximality shortcut"
    elapsed = time.perf_counter() - start
    report(3, "surjectivity band g=13..20, 2 seeds each", elapsed < 60.0,
           f"{elapsed:.2f}s < 60s")


def test_criterion_4_injectivity_band():
    start = time.perf_counter()
    for genus in range(5, 12):
        for seed in (7, 8):
            a1, a2 = seeded_params(genus, sweep_seed(seed, genus))
            _, cert = certify_both_routes(build_curve(genus, a1, a2, "paper"), seed)
            assert cert.rank == (genus - 1) * (genus - 2) // 2, f"g={genus} seed={seed}: {cert}"
            assert cert.is_maximal
    elapsed = time.perf_counter() - start
    report(4, "injectivity band g=5..11, 2 seeds each", elapsed < 30.0,
           f"{elapsed:.2f}s < 30s")


def test_criterion_5_closed_form_oracle():
    checked = 0
    for genus in range(5, 15):
        for seed in (0, 1, 2):
            a1, a2 = seeded_params(genus, seed)
            curve = build_curve(genus, a1, a2, "paper")
            matrix = assemble_matrix(curve)
            for (i, j), row in zip(matrix.pairs, matrix.entries):
                for h in (1, 2):
                    start, end = matrix.layout[f"nu{h}"]
                    assert nu_closed_form(curve, i, j, h) == row[start:end], \
                        (genus, seed, i, j, h)
                    checked += 1
    report(5, "closed form == wronskian, g=5..14 x 3 seeds", True,
           f"{checked} blocks, zero tolerance")


def test_criterion_6_induction_sweep():
    start = time.perf_counter()
    reports = induction_sweep(13, 100, [2, 3, Fraction(-5, 7)])
    elapsed = time.perf_counter() - start
    assert len(reports) == 88 * 3
    for r in reports:
        assert r.det5_nonzero, f"det5 = 0 at g={r.genus}, a={r.a}"
        assert r.tau_closed_form_matches, f"tau mismatch at g={r.genus}, a={r.a}"
        if r.scaled4x4_matches is not True:
            # diagnostic only: flag loudly, do not fail the suite
            print(f"ACCEPTANCE 6 note: scaled-4x4 diagnostic {r.scaled4x4_matches} "
                  f"at g={r.genus}, a={r.a}")
    report(6, "induction sweep g=13..100, a in {2, 3, -5/7}", elapsed < 120.0,
           f"{len(reports)} cases, {elapsed:.1f}s < 120s")


def test_criterion_7_class_suite():
    start = time.perf_counter()
    D = DivisorClass.of
    assert grr_c1(3, 2, True) == D(37, -4, -4, -9)
    assert hodge_c1(1) == D(1, 0, 0, Fraction(-1, 4)) == grr_c1(1, 1, False)
    assert degeneracy_class() == 55 * D(27, -4, -4, Fraction(-13, 2))
    assert degeneracy_class().interior_restriction() == 1485
    residual = kodaira_residual()
    assert residual == DivisorClass() and residual.is_effective()
    classes_report()
    elapsed = time.perf_counter() - start
    report(7, "divisor-class suite, exact equalities", elapsed < 1.0,
           f"{elapsed * 1000:.0f}ms < 1s")


def test_criterion_8_rank_engine_soundness():
    # 50 seeded matrices with genus <= 9: modular rank never exceeds exact
    count = 0
    for genus in (5, 6, 7, 8, 9):
        for seed in range(10):
            a1, a2 = seeded_params(genus, 1000 + seed)
            curve = build_curve(genus, a1, a2, "paper")
            matrix = assemble_matrix(curve)
            exact = rank_exact(matrix)
            maxp = min(matrix.rows, matrix.cols)
            for p in FIELD_PRIMES[seed % 5:seed % 5 + 2]:
                assert rank_mod_p(curve, p) == rank_mod_p(matrix, p) <= exact <= maxp
            count += 1
    assert count == 50

    # determinism: identical certificates no matter how runs are scheduled
    a1, a2 = seeded_params(8, 77)
    matrix = assemble_matrix(build_curve(8, a1, a2, "paper"))
    baseline = certify(matrix, policy="fast", seed=5)
    for workers in (1, 4):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            certs = list(pool.map(lambda _: certify(matrix, policy="fast", seed=5), range(6)))
        for cert in certs:
            assert (cert.rank, cert.is_maximal, cert.method, cert.primes_used) == \
                   (baseline.rank, baseline.is_maximal, baseline.method, baseline.primes_used)
    report(8, "rank-engine soundness + deterministic certificates", True,
           "50 matrices, thread counts 1 and 4")
