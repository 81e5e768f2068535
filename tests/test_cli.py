"""CLI surface: subcommands, exit codes, JSON reproducibility."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from prymgauss import (GaussMatrix, InductionReport, assemble_matrix, build_curve,
                       format_rational, matrix_from_bytes, matrix_from_json, nu_closed_form,
                       parse_rational, verify_det5)
from prymgauss import cli, curves, gaussmap
from prymgauss import rank as rank_module
from prymgauss.cli import main
from prymgauss.params import params_to_file, seeded_params


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rank_builtin_script(capsys):
    code, out, _ = run_cli(capsys, "rank", "--genus", "12", "--paper-params",
                           "--convention", "script", "--json", "--no-timing")
    assert code == 0
    data = json.loads(out)
    assert data["certificate"]["rank"] == 55
    assert data["certificate"]["is_maximal"] is True
    assert data["genus"] == 12 and data["convention"] == "script"
    # every JSON output embeds seed, params, version
    assert {"seed", "params", "version", "command"} <= set(data)
    assert len(data["params"]["a1"]) == 11


def test_rank_seeded_injective_band(capsys):
    code, out, _ = run_cli(capsys, "rank", "--genus", "7", "--seed", "42",
                           "--json", "--no-timing")
    assert code == 0
    assert json.loads(out)["certificate"]["rank"] == 15          # C(6,2)


def test_rank_seeded_surjective_band(capsys):
    code, out, _ = run_cli(capsys, "rank", "--genus", "13", "--seed", "42",
                           "--json", "--no-timing")
    assert code == 0
    assert json.loads(out)["certificate"]["rank"] == 60          # 5g-5


def test_rank_human_output(capsys):
    code, out, _ = run_cli(capsys, "rank", "--genus", "5", "--seed", "1")
    assert code == 0
    assert "rank 6 of max 6" in out and "MAXIMAL" in out


def test_json_outputs_are_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "rank", "--genus", "6", "--seed", "9",
                         "--json", "--no-timing")
    _, out2, _ = run_cli(capsys, "rank", "--genus", "6", "--seed", "9",
                         "--json", "--no-timing")
    assert out1 == out2


def test_sweep_builtin_script(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--g-min", "4", "--g-max", "12",
                           "--paper-params", "--convention", "script",
                           "--json", "--no-timing")
    assert code == 0
    data = json.loads(out)
    ranks = [case["certificate"]["rank"] for case in data["cases"]]
    assert ranks == [3, 6, 10, 15, 21, 28, 36, 45, 55]
    genera = [case["genus"] for case in data["cases"]]
    assert genera == sorted(genera)


def test_sweep_convention_agreement(capsys):
    results = {}
    for convention in ("paper", "script"):
        _, out, _ = run_cli(capsys, "sweep", "--g-min", "5", "--g-max", "5",
                            "--seed", "1", "--convention", convention,
                            "--json", "--no-timing")
        results[convention] = json.loads(out)["cases"][0]["certificate"]["rank"]
    assert results["paper"] == results["script"]


def test_sweep_bad_range(capsys):
    code, _, err = run_cli(capsys, "sweep", "--g-min", "9", "--g-max", "4", "--seed", "0")
    assert code == 2
    assert "exceeds" in err


def test_oracle_pass_seeded(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--genus", "9", "--seed", "3",
                           "--json", "--no-timing")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True and data["mismatches"] == []


def test_oracle_pass_handmade_params(capsys, tmp_path):
    path = tmp_path / "g5.json"
    params_to_file(path, 5, "paper", [1, 2, 3, 4], [2, 4, 6, 8])
    code, out, _ = run_cli(capsys, "oracle", "--genus", "5", "--params", str(path),
                           "--json", "--no-timing")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_oracle_rejects_script_params_file(capsys, tmp_path):
    path = tmp_path / "g5.json"
    params_to_file(path, 5, "script", [1, 2, 3, 4], [2, 4, 6, 8])
    code, _, err = run_cli(capsys, "oracle", "--genus", "5", "--params", str(path))
    assert code == 2
    assert "paper" in err


def test_oracle_rejects_script_convention(capsys):
    code, _, err = run_cli(capsys, "oracle", "--genus", "5", "--seed", "1",
                           "--convention", "script")
    assert code == 2
    assert "paper" in err


def test_oracle_reports_a_perturbed_nu_block(capsys, monkeypatch):
    # (i, j) = (1, 3) is row 1; raise the degree-2 coefficient of its nu_2
    matrix = assemble_matrix(build_curve(6, *seeded_params(6, 1)))
    width = 2 * 6 - 3
    entries = [list(row) for row in matrix.entries]
    entries[1][width + 2] += 1
    tampered = GaussMatrix(6, "paper", tuple(tuple(row) for row in entries))
    monkeypatch.setattr(cli, "assemble_matrix", lambda curve: tampered)
    code, out, _ = run_cli(capsys, "oracle", "--genus", "6", "--seed", "1",
                           "--json", "--no-timing")
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False and data["pairs_checked"] == 20
    assert data["mismatches"] == [{
        "i": 1, "j": 3, "h": 2, "degree": 2,
        "wronskian": format_rational(entries[1][width + 2]),
        "closed_form": format_rational(matrix.entries[1][width + 2])}]


def test_oracle_reports_a_perturbed_closed_form(capsys, monkeypatch):
    def perturbed(curve, i, j, h):
        coeffs = nu_closed_form(curve, i, j, h)
        if (i, j, h) == (2, 4, 1):
            return (coeffs[0] + Fraction(1, 2),) + coeffs[1:]
        return coeffs
    monkeypatch.setattr(cli, "nu_closed_form", perturbed)
    code, out, _ = run_cli(capsys, "oracle", "--genus", "5", "--seed", "1", "--no-timing")
    assert code == 1
    nu = nu_closed_form(build_curve(5, *seeded_params(5, 1)), 2, 4, 1)[0]
    assert out.splitlines() == [
        "genus 5: closed form == wronskian on 12 blocks: FAIL",
        f"  mismatch at (i=2, j=4, h=1), degree 0: {format_rational(nu)} != "
        f"{format_rational(nu + Fraction(1, 2))}"]


@pytest.mark.parametrize("convention", ["paper", "script"])
def test_curve_validate_reports_a_coordinate_off_pattern(capsys, monkeypatch, convention):
    cleared = curves._cleared_alphas
    cases = {
        # P_3(0) != 0, so P_3 leaves the patterns of P_1, P_2, P_4 and P_5
        (2, 3, 0): ["node P_1, component 2: coordinate 3 off pattern",
                    "node P_2, component 2: coordinate 3 off pattern",
                    "node P_4, component 2: coordinate 3 off pattern",
                    "node P_5, component 2: coordinate 4 off pattern"],
        # P_4 gets a top coefficient, seen at P_6 = (1, 0) and at P_1..P_3
        (1, 4, 4): ["node P_1, component 1: coordinate 4 off pattern",
                    "node P_2, component 1: coordinate 4 off pattern",
                    "node P_3, component 1: coordinate 4 off pattern",
                    "node P_6, component 1: coordinate 4 off pattern"],
    }
    argv = ["curve", "validate", "--genus", "5", "--seed", "2", "--convention", convention]
    for (component, index, degree), failures in cases.items():
        def perturbed(curve, eps):
            polys, den = cleared(curve, eps)
            if eps == component:
                polys[index - 1][degree] += 1
            return polys, den
        monkeypatch.setattr(curves, "_cleared_alphas", perturbed)
        code, out, _ = run_cli(capsys, *argv, "--no-timing")
        assert code == 1
        assert out.splitlines() == [f"genus 5 ({convention}): node check FAIL"] + \
            [f"  {line}" for line in failures]
        code, out, _ = run_cli(capsys, *argv, "--json", "--no-timing")
        assert code == 1
        data = json.loads(out)
        assert data["ok"] is False and data["failures"] == failures


def test_induction_cli(capsys):
    code, out, _ = run_cli(capsys, "induction", "--g-min", "13", "--g-max", "14",
                           "--a", "2", "--json", "--no-timing")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert [r["genus"] for r in data["reports"]] == [13, 14]
    assert all(r["det5_nonzero"] for r in data["reports"])


def test_induction_reports_a_repeated_value_once(capsys):
    code, out, _ = run_cli(capsys, "induction", "--g-min", "13", "--g-max", "13",
                           "--a", "2", "--a", "4/2", "--json", "--no-timing")
    assert code == 0
    data = json.loads(out)
    assert data["a_values"] == ["2"]
    assert [r["a"] for r in data["reports"]] == ["2"]
    # a_values keeps the first-given order; the reports come sorted by a
    code, out, _ = run_cli(capsys, "induction", "--g-min", "13", "--g-max", "13",
                           "--a", "3", "--a", "2", "--a=-5/7", "--json", "--no-timing")
    assert code == 0
    data = json.loads(out)
    assert data["a_values"] == ["3", "2", "-5/7"]
    assert [r["a"] for r in data["reports"]] == ["-5/7", "2", "3"]


def _report(det5_nonzero=True, tau=True, scaled=True):
    return InductionReport(genus=13, parity="odd", a=Fraction(2), node_index=7,
                           selected_columns=((2, 7), (3, 7), (7, 11), (7, 12), (5, 8)),
                           det5=Fraction(int(det5_nonzero)), det5_nonzero=det5_nonzero,
                           scaled4x4_matches=scaled, tau_closed_form_matches=tau,
                           tau_sign_matches_display=True)


@pytest.mark.parametrize("report,line,code", [
    (_report(), "g=13 a=2 (odd): det5 nonzero: True; ok", 0),
    (_report(det5_nonzero=False),
     "g=13 a=2 (odd): det5 nonzero: False; DET5=0", 1),
    (_report(tau=False), "g=13 a=2 (odd): det5 nonzero: True; TAU-MISMATCH", 1),
    (_report(scaled=False),
     "g=13 a=2 (odd): det5 nonzero: True; 4x4-DIAGNOSTIC-OFF", 0),
    (_report(scaled=None),
     "g=13 a=2 (odd): det5 nonzero: True; 4x4-DIAGNOSTIC-INCONCLUSIVE", 0),
    (_report(det5_nonzero=False, tau=False, scaled=None),
     "g=13 a=2 (odd): det5 nonzero: False; DET5=0 TAU-MISMATCH 4x4-DIAGNOSTIC-INCONCLUSIVE", 1),
], ids=["ok", "det5-zero", "tau-mismatch", "4x4-off", "4x4-inconclusive", "all-flags"])
def test_induction_human_output_flags(capsys, monkeypatch, report, line, code):
    monkeypatch.setattr(cli, "induction_sweep", lambda g_min, g_max, a_values: [report])
    got, out, _ = run_cli(capsys, "induction", "--g-min", "13", "--g-max", "13", "--a", "2")
    assert out.splitlines() == [line]
    assert got == code


def test_induction_prints_a_det5_longer_than_the_int_string_limit(capsys):
    code, out, _ = run_cli(capsys, "induction", "--g-min", "300", "--g-max", "300",
                           "--a=-5/7", "--json", "--no-timing")
    assert code == 0
    det5 = parse_rational(json.loads(out)["reports"][0]["det5"])
    assert len(str(det5.numerator)) > 4300
    assert det5 == verify_det5(300, Fraction(-5, 7)).det5


def test_matrix_export_prints_entries_longer_than_the_int_string_limit(capsys, tmp_path):
    params = tmp_path / "p.json"
    params_to_file(params, 5, "paper", [1, 10 ** 1499 + 7, 3, 4], [5, -7, Fraction(1, 2), 9])
    out = tmp_path / "m.json"
    code, _, err = run_cli(capsys, "matrix", "export", "--genus", "5", "--params",
                           str(params), "--out", str(out), "--no-timing")
    assert code == 0, err
    assert matrix_from_json(out.read_text()).genus == 5


def test_induction_rejects_bad_a(capsys):
    for a in ("1", "0"):
        code, out, err = run_cli(capsys, "induction", "--g-min", "13", "--g-max", "13",
                                 "--a", a)
        assert code == 2 and out == ""
        assert "avoid 0 and 1" in err


def test_classes_cli(capsys):
    code, out, _ = run_cli(capsys, "classes", "--json", "--no-timing")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["degeneracy_class"]["lambda"] == "1485"
    assert data["results"]["kodaira"]["residual"]["lambda"] == "0"


def test_curve_validate(capsys):
    code, out, _ = run_cli(capsys, "curve", "validate", "--genus", "8", "--seed", "5",
                           "--json", "--no-timing")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_curve_validate_rejects_bad_params(capsys, tmp_path):
    path = tmp_path / "dup.json"
    path.write_text('{"genus": 5, "convention": "paper", '
                    '"a1": ["1", "1", "3", "4"], "a2": ["1", "2", "3", "4"]}')
    code, _, err = run_cli(capsys, "curve", "validate", "--genus", "5",
                           "--params", str(path))
    assert code == 2
    assert "distinct" in err


def test_param_source_conflict(capsys, tmp_path):
    path = tmp_path / "p.json"
    params_to_file(path, 5, "paper", [1, 2, 3, 4], [5, 6, 7, 8])
    code, _, err = run_cli(capsys, "rank", "--genus", "5", "--params", str(path),
                           "--paper-params")
    assert code == 2
    assert "mutually exclusive" in err


def test_matrix_export_roundtrip(capsys, tmp_path):
    json_path = tmp_path / "m.json"
    bin_path = tmp_path / "m.bin"
    code, out, _ = run_cli(capsys, "matrix", "export", "--genus", "5", "--seed", "1",
                           "--out", str(json_path), "--format", "json",
                           "--json", "--no-timing")
    assert code == 0
    sha_json = json.loads(out)["sha256"]
    code, out, _ = run_cli(capsys, "matrix", "export", "--genus", "5", "--seed", "1",
                           "--out", str(bin_path), "--format", "bin",
                           "--json", "--no-timing")
    assert code == 0
    assert json.loads(out)["sha256"] == sha_json
    m_json = matrix_from_json(json_path.read_text())
    m_bin = matrix_from_bytes(bin_path.read_bytes())
    assert m_json == m_bin
    assert (m_json.rows, m_json.cols) == (6, 20)


def test_matrix_export_json_hashes_the_file_it_writes(capsys, monkeypatch, tmp_path):
    from prymgauss import cli, gaussmap
    to_json = gaussmap.matrix_to_json
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return to_json(matrix)
    monkeypatch.setattr(gaussmap, "matrix_to_json", counted)
    monkeypatch.setattr(cli, "matrix_to_json", counted)
    path = tmp_path / "m.json"
    code, out, _ = run_cli(capsys, "matrix", "export", "--genus", "7", "--seed", "2",
                           "--out", str(path), "--format", "json", "--json", "--no-timing")
    assert code == 0
    assert json.loads(out)["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert len(calls) == 1                              # serialized once


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "prymgauss.cli", "rank", "--genus", "4",
         "--paper-params", "--convention", "script", "--json", "--no-timing"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["certificate"]["rank"] == 3


# Runs in a fresh interpreter (this one has loaded numpy already): imports the
# package, then runs each command of argv[1] through cli.main with
# `--json --no-timing`, and prints whether numpy and hashlib were loaded at
# the start, after the import and after each command, with each command's
# exit code and stdout sha256.  hashlib itself is imported only at the end.
_NUMPY_PROBE = r"""
import contextlib, io, json, sys
loaded = lambda: {name: name in sys.modules for name in ("numpy", "hashlib")}
result = {"at_start": loaded()}
import prymgauss, prymgauss.cli
result.update(after_import=loaded(), runs=[])
outputs = []
for command in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = prymgauss.cli.main(command.split() + ["--json", "--no-timing"])
    outputs.append(out.getvalue())
    result["runs"].append([command, code, loaded()])
import hashlib
for run, text in zip(result["runs"], outputs):
    run.insert(2, hashlib.sha256(text.encode("utf-8")).hexdigest())
print(json.dumps(result))
"""


def test_only_a_modular_rank_loads_numpy(tmp_path):
    free = ["classes", "induction --g-min 13 --g-max 13", "curve validate --genus 8 --seed 5",
            "oracle --genus 9 --seed 3",
            "matrix export --genus 6 --seed 1 --format bin --out m.bin",
            "matrix export --genus 6 --seed 1 --format json --out m.json",
            "rank --genus 9 --seed 3 --policy exact"]
    modular = "rank --genus 9 --seed 3"
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, json.dumps(free + [modular])],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["after_import"]["numpy"] is False
    # neither the import nor induction loads hashlib; only a digest does
    assert result["after_import"]["hashlib"] is result["at_start"]["hashlib"]
    assert [run[0] for run in result["runs"]] == free + [modular]
    before = result["after_import"]
    for command, code, digest, loaded in result["runs"]:
        assert code == 0, command
        assert loaded["numpy"] is (command == modular), command
        if command.startswith("induction"):
            assert loaded["hashlib"] is before["hashlib"], command
        if command in GOLDEN_STDOUT_SHA256:
            assert digest == GOLDEN_STDOUT_SHA256[command], command
        before = loaded
    assert (tmp_path / "m.bin").is_file() and (tmp_path / "m.json").is_file()


# sha256 of the exact stdout of each command.  A command that names no output
# flags runs with `--json --no-timing`; one that ends in `--no-timing` is
# pinned in human form.  The first four were pinned on the Fraction assembly
# route that preceded modular-first certification.
GOLDEN_STDOUT_SHA256 = {
    "rank --genus 12 --paper-params --convention script":
        "f4fba1a0ea2c00ffeeaeebb0652a008b006fb9b1be1fbb84bd352c6a8a7cdbfa",
    "sweep --g-min 4 --g-max 12 --paper-params --convention script":
        "4f41f11c547c4c15ba2294bbee148f6bcf6e0e21e22efb7d5fd1b6ddfc332378",
    "sweep --g-min 13 --g-max 21 --seed 0":
        "03087ba6154315a4c09750dd322797dd6682ec80dd47b4c4d2f13ef91bf5b8dd",
    "rank --genus 9 --seed 3 --policy exact":
        "7d23f66358f895152a183476152334d68cc841a6a92ceb60e98c082eabb32b10",
    # pinned before numpy was loaded only by modular ranks
    "rank --genus 9 --seed 3":
        "687eb89a6012b8c7a30e059b7e44834a1fccc9aa1835cad31519d6c3d7281df7",
    # pinned on the modular elimination that updated every row below each pivot
    "sweep --g-min 13 --g-max 60":
        "982e14c340625dbcc0e27964ea2b18922f67c132e9fbc424f5b9882ae934865b",
    "rank --genus 100":
        "d64dcd43a4c15009c62887648dcd8c6ebfc1e7dabdf015d37d54f023c44e2197",
    # pinned on the polynomial (Wronskian) 5x5 block that preceded alpha jets
    "induction --g-min 13 --g-max 20":
        "7f323fe4b63bc40d3c4903bab155db05b9d8ce5c524395d5144e9a47c7be5585",
    "induction --g-min 100 --g-max 100":
        "6cfef2fe9eedff00d11ccb5a7c322948caa88bb0a5c98d45c983d76faf1c0267",
    # pinned on the Fraction running-product jets that preceded integer-cleared jets
    "induction --g-min 13 --g-max 100":
        "7c3e1edd70e5ee6eea8a44b4aec4b4b4879190eeddded631d0a54143d7f4ab32",
    # a fractional family value (the benchmark's seed-1 family), pinned on the
    # jets that walked every parameter once per (index, component)
    "induction --g-min 13 --g-max 100 --a=8 --a=9 --a=4/5":
        "013faa00b4bcca915678e781b47921ef9827d226000e328e4990b9098b50cd17",
    # negative family values: the odd powers of a in the block carry its sign;
    # pinned on the block that built the jets of both components
    "induction --g-min 13 --g-max 100 --a=-1 --a=-9/2 --a=11/3":
        "2fd90d52cc043f502c7d76d77977dea622cdb41dd8e901bee4dad840469a3e0e",
    # pinned before the commands shared one report runner
    "oracle --genus 9 --seed 3":
        "7083a05c60c51097a3dab6d1b021be1241e6d0e72fd6a8be06ffbffcd3ef7b58",
    "classes":
        "c2a1b12684a78419086c2b6790ea062a11d85ff0876fe34de359ee8f72d13df8",
    "curve validate --genus 8 --seed 5":
        "a88ed235e0346ae4f09f0c9e881e9bb2386c1cf7a75840452c17c298c95b498f",
    "matrix export --genus 6 --seed 1 --format bin --out m.bin":
        "00756215fd2f54fc3e55c82750a26ae97cc1143da3a57f80b6a9a1ccc2bbdaa5",
    "rank --genus 12 --paper-params --convention script --no-timing":
        "1922454d3da09677f5ec26de624aa335fbcf897f588a954b202bc33b8c00ea27",
    "sweep --g-min 13 --g-max 21 --seed 0 --no-timing":
        "2b59f50463db10b9de51496d24a510924685f8b84126661bd520b7b788b052bc",
    "induction --g-min 13 --g-max 20 --no-timing":
        "4d49f0f8e1bfb7dc31e8211c85424aca4aebf89a14105a2699a1aafe44213af6",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT_SHA256))
def test_golden_stdout(capsys, monkeypatch, tmp_path, command):
    monkeypatch.chdir(tmp_path)     # matrix export writes its relative --out here
    argv = command.split()
    if argv[-1] != "--no-timing":
        argv += ["--json", "--no-timing"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_STDOUT_SHA256[command]


def test_missing_params_file_is_a_usage_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "rank", "--genus", "5",
                           "--params", str(tmp_path / "absent.json"))
    assert code == 2
    assert err.startswith("error:") and "absent.json" in err


def _script_params_file(tmp_path):
    path = tmp_path / "script.json"
    params_to_file(path, 5, "script", [1, 2, 3, 4], [5, 6, 7, 8])
    return str(path)


def test_convention_flag_disagreeing_with_params_file_is_a_usage_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "rank", "--genus", "5", "--params",
                             _script_params_file(tmp_path), "--convention", "paper",
                             "--json", "--no-timing")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "convention" in err


def test_genus_flag_disagreeing_with_params_file_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "g11.json"
    params_to_file(path, 11, "paper", *seeded_params(11, 0))
    code, out, err = run_cli(capsys, "rank", "--genus", "12", "--params", str(path),
                             "--json", "--no-timing")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "disagrees with parameter file genus 11" in err


def test_convention_flag_agreeing_with_params_file(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "rank", "--genus", "5", "--params",
                           _script_params_file(tmp_path), "--convention", "script",
                           "--json", "--no-timing")
    assert code == 0
    assert json.loads(out)["convention"] == "script"


def test_params_file_convention_applies_without_flag(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "rank", "--genus", "5", "--params",
                           _script_params_file(tmp_path), "--json", "--no-timing")
    assert code == 0
    assert json.loads(out)["convention"] == "script"


def test_convention_defaults_to_paper_without_params_file(capsys):
    code, out, _ = run_cli(capsys, "rank", "--genus", "5", "--seed", "1",
                           "--json", "--no-timing")
    assert code == 0
    assert json.loads(out)["convention"] == "paper"


def run_cli_exit(capsys, *argv):
    """Like run_cli, but an argparse usage error's SystemExit becomes its code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_examples():
    """The `prymgauss ...` lines of the README's Examples block, as argv lists."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\nExamples:\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("prymgauss ")]


@pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
def test_readme_examples_exit_0(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)     # matrix export writes its relative --out here
    code, _, err = run_cli_exit(capsys, *argv)
    assert code == 0, err


@pytest.mark.parametrize("argv", [
    "induction --g-min 13 --g-max 13 --a 2 --convention script",
    "classes --convention paper",
    "rank --genus 5 --params {dir}/absent.json",
    "rank --genus 4 --params {dir}/bool-genus.json",
    "curve validate --genus 4 --params {dir}/bool-a1.json",
    "sweep --g-min 9 --g-max 4",
    "induction --g-min 14 --g-max 13",
    "induction --g-min 13 --g-max 13 --a 1",
    "oracle --genus 5 --seed 1 --convention script",
    "rank --genus 5 --params {dir}/deep.json",
    "sweep --g-min 5 --g-max 6 --params {dir}/g5.json",
])
def test_input_errors_exit_2_on_stderr_only(capsys, tmp_path, argv):
    (tmp_path / "bool-genus.json").write_text(
        '{"genus": true, "convention": "paper", "a1": ["1", "2", "3"], "a2": ["4", "5", "6"]}')
    (tmp_path / "bool-a1.json").write_text(
        '{"genus": 4, "convention": "paper", "a1": [true, "2", "3"], "a2": ["4", "5", "6"]}')
    (tmp_path / "deep.json").write_text("[" * 100_000)
    params_to_file(tmp_path / "g5.json", 5, "paper", *seeded_params(5, 3))
    code, out, err = run_cli_exit(capsys, *argv.replace("{dir}", str(tmp_path)).split(),
                                  "--json", "--no-timing")
    assert code == 2
    assert out == "" and err.strip()


@pytest.mark.parametrize("argv", [
    "rank --genus 100000",
    "rank --genus 100000 --policy exact",
    "rank --genus 100000 --params {dir}/absent.json",
    "sweep --g-min 13 --g-max 100000",
    "oracle --genus 100000",
    "matrix export --genus 100000 --out {dir}/m.json",
])
def test_a_genus_above_the_size_limit_exits_2_before_any_curve(capsys, monkeypatch, tmp_path,
                                                              argv):
    def refuse(*args, **kwargs):
        raise AssertionError("work started above the size limit")
    for module, name in ((gaussmap, "assemble_mod_p"), (rank_module, "assemble_mod_p"),
                         (cli, "assemble_matrix"), (cli, "build_curve"),
                         (cli, "seeded_params"), (cli, "params_from_file")):
        monkeypatch.setattr(module, name, refuse)
    code, out, err = run_cli_exit(capsys, *argv.replace("{dir}", str(tmp_path)).split())
    assert code == 2 and out == ""
    assert f"above the limit of {cli.MAX_CELLS} cells" in err and "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("argv,limit", [
    ("rank --genus {g}", 205),
    ("sweep --g-min 13 --g-max {g}", 205),
    ("rank --genus {g} --policy exact", 76),
    ("sweep --g-min 4 --g-max {g} --policy exact", 76),
    ("oracle --genus {g}", 76),
    ("matrix export --genus {g} --out m.json", 76),
])
def test_size_limit_per_command(argv, limit):
    # the genus limits the README states; sweep to 150 and rank at 200 stay in
    def args(genus):
        return cli.build_parser().parse_args(argv.format(g=genus).split())
    for genus in (3, 20, limit):
        cli._check_size(args(genus), genus)
    with pytest.raises(curves.ParameterError, match=f"limit of {cli.MAX_CELLS} cells"):
        cli._check_size(args(limit + 1), limit + 1)


def test_sweep_range_wider_than_a_params_file_is_refused_before_any_work(capsys, tmp_path):
    path = tmp_path / "g5.json"
    params_to_file(path, 5, "paper", *seeded_params(5, 3))
    code, out, err = run_cli(capsys, "sweep", "--g-min", "4", "--g-max", "5",
                             "--params", str(path))
    assert code == 2 and out == ""
    assert "4..5" in err and "--genus" not in err


def test_one_genus_sweep_over_a_params_file_keeps_its_output(capsys, tmp_path):
    # sha256 measured before ranges wider than the file were refused
    path = tmp_path / "g5.json"
    params_to_file(path, 5, "paper", *seeded_params(5, 3))
    code, out, _ = run_cli(capsys, "sweep", "--g-min", "5", "--g-max", "5",
                           "--params", str(path), "--json", "--no-timing")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8c2373fd09e3a1efca191c7dde23a9cd2cf1d461cf8fd582c1182699151ee339")
