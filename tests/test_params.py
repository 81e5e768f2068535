"""Parameter sources: built-in vectors, seeded draws, JSON files."""

from fractions import Fraction

import pytest

from prymgauss import ParameterError, builtin_params, params_from_file, params_to_file, seeded_params
from prymgauss.params import BUILTIN_A1, BUILTIN_A2, sweep_seed


def test_builtin_prefixes():
    a1, a2 = builtin_params(5)
    assert a1 == (1, 2, 3, 4)
    assert a2 == (326, -28, -875, -97)
    a1, a2 = builtin_params(12)
    assert a1 == tuple(Fraction(v) for v in BUILTIN_A1)
    assert a2 == tuple(Fraction(v) for v in BUILTIN_A2)


@pytest.mark.parametrize("g", [3, 13, 40])
def test_builtin_range(g):
    with pytest.raises(ParameterError):
        builtin_params(g)


def test_seeded_determinism():
    assert seeded_params(9, 42) == seeded_params(9, 42)
    assert seeded_params(9, 42) != seeded_params(9, 43)


def test_seeded_rejects_genus_below_3():
    with pytest.raises(ParameterError, match="genus must be an int >= 3, got 2"):
        seeded_params(2, 0)


@pytest.mark.parametrize("genus", [4.5, 5.0, True])
def test_seeded_rejects_a_genus_that_is_not_an_int(genus):
    # the rule of build_curve: 4.5 used to draw rows of 4 entries
    with pytest.raises(ParameterError, match="genus must be an int >= 3"):
        seeded_params(genus, 0)


def test_seeded_bounds_and_invariants():
    for seed in range(12):
        a1, a2 = seeded_params(11, seed)
        for row in (a1, a2):
            assert len(row) == 10 == len(set(row))
            for x in row:
                assert x != 0
                assert abs(x.numerator) <= 10_000
                assert 1 <= x.denominator <= 100


def test_sweep_seed_mixing():
    assert sweep_seed(7, 13) == 7 * 1_000_003 + 13
    assert sweep_seed(7, 13) != sweep_seed(7, 14) != sweep_seed(8, 14)


def test_file_roundtrip(tmp_path):
    path = tmp_path / "curve.json"
    params_to_file(path, 5, "script", ["1", "2", "3", "4"], ["5", "-7", "1/2", "9"])
    genus, convention, a1, a2 = params_from_file(path)
    assert genus == 5 and convention == "script"
    assert a1 == (1, 2, 3, 4)
    assert a2 == (5, -7, Fraction(1, 2), 9)


def test_file_rejects_floats(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"genus": 5, "a1": [1.5, 2, 3, 4], "a2": [1, 2, 3, 4]}')
    with pytest.raises(ParameterError, match="float"):
        params_from_file(path)


def test_file_rejects_a_row_that_is_not_a_list(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"genus": 3, "a1": "1/2", "a2": ["1", "2"]}')
    with pytest.raises(ParameterError, match="a1 must be a list"):
        params_from_file(path)


def test_file_missing_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"genus": 5, "a1": ["1"]}')
    with pytest.raises(ParameterError, match="missing key"):
        params_from_file(path)


def test_file_rejects_boolean_genus(tmp_path):
    path = tmp_path / "bool.json"
    path.write_text('{"genus": true, "a1": [], "a2": []}')
    with pytest.raises(ParameterError, match="genus must be a JSON integer"):
        params_from_file(path)


def test_file_accepts_plain_integers(tmp_path):
    path = tmp_path / "ints.json"
    path.write_text('{"genus": 4, "convention": "paper", "a1": [1, 2, 3], "a2": ["4", "5", "6"]}')
    genus, convention, a1, a2 = params_from_file(path)
    assert a1 == (1, 2, 3) and a2 == (4, 5, 6)
