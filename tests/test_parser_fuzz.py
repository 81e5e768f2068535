"""input parsers under fuzzing: every input parses to a value that round-trips,
or raises ValueError; no other exception escapes."""

import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from prymgauss import (GaussMatrix, assemble_matrix, build_curve, format_rational,
                       matrix_from_bytes, matrix_from_json, matrix_to_bytes, matrix_to_json,
                       params_from_file, params_to_file, parse_rational, seeded_params)

DEEP = "[" * 100_000

rational_text = st.from_regex(r"[+\-−]?[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | rational_text,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), rational_text, st.integers(), st.booleans(), st.floats(),
                 st.none(), st.fractions()))
@example("1/0")
@example("−3/4")
@example("\u0661/\u0662")    # Arabic-Indic digits: must raise, not read as 1/2
@example("\uff15")            # fullwidth 5
def test_parse_rational_round_trips_or_raises_value_error(value):
    try:
        x = parse_rational(value)
    except ValueError:
        return
    assert isinstance(x, Fraction)
    assert parse_rational(format_rational(x)) == x
    if isinstance(value, (int, Fraction)):
        assert x == value


# -- parameter files ----------------------------------------------------

param_entries = st.one_of(rational_text, st.integers(min_value=-50, max_value=50), json_values)
param_rows = st.one_of(st.lists(param_entries, max_size=6), json_values)
param_objects = st.fixed_dictionaries({}, optional={
    "genus": st.one_of(st.integers(min_value=-2, max_value=8), json_values),
    "convention": st.one_of(st.sampled_from(["paper", "script"]), json_values),
    "a1": param_rows,
    "a2": param_rows,
})
exact_rows = st.lists(st.one_of(rational_text, st.integers()), max_size=6)
wellformed_params = st.fixed_dictionaries(
    {"genus": st.integers(min_value=-2, max_value=8), "a1": exact_rows, "a2": exact_rows},
    optional={"convention": st.sampled_from(["paper", "script"])})


def _truncated(text, data):
    return text[:data.draw(st.integers(min_value=0, max_value=len(text)))]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(wellformed_params.map(json.dumps), param_objects.map(json.dumps),
                 json_values.map(json.dumps), st.text()),
       st.data())
@example(DEEP, None)
@example('{"genus": 4, "a1": ' + DEEP, None)
def test_params_file_round_trips_or_raises_value_error(tmp_path, text, data):
    if data is not None and data.draw(st.booleans()):
        text = _truncated(text, data)
    path = tmp_path / "params.json"
    path.write_text(text, encoding="utf-8")
    try:
        loaded = params_from_file(path)
    except ValueError:
        return
    again = tmp_path / "again.json"
    params_to_file(again, *loaded)
    assert params_from_file(again) == loaded


# -- matrix dumps -------------------------------------------------------

def _matrices():
    out = []
    for genus, seed, convention in ((3, 0, "paper"), (4, 1, "script"), (4, 2, "paper")):
        a1, a2 = seeded_params(genus, seed)
        out.append(assemble_matrix(build_curve(genus, a1, a2, convention)))
    return out


MATRICES = _matrices()
JSON_DUMPS = [matrix_to_json(m).encode("utf-8") for m in MATRICES]
BIN_DUMPS = [matrix_to_bytes(m) for m in MATRICES]


def _assert_round_trips(matrix):
    assert isinstance(matrix, GaussMatrix)
    assert matrix_from_json(matrix_to_json(matrix)) == matrix
    assert matrix_from_bytes(matrix_to_bytes(matrix)) == matrix


@st.composite
def damaged(draw, dumps):
    """A valid dump, truncated, spliced with another, or with bytes replaced."""
    blob = draw(st.sampled_from(dumps))
    kind = draw(st.sampled_from(["truncate", "splice", "flip"]))
    cut = draw(st.integers(min_value=0, max_value=len(blob)))
    if kind == "truncate":
        return blob[:cut]
    if kind == "splice":
        other = draw(st.sampled_from(dumps))
        return blob[:cut] + other[draw(st.integers(min_value=0, max_value=len(other))):]
    out = bytearray(blob)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        out[draw(st.integers(min_value=0, max_value=len(out) - 1))] = draw(
            st.integers(min_value=0, max_value=255))
    return bytes(out)


matrix_objects = st.fixed_dictionaries({}, optional={
    "genus": st.one_of(st.integers(min_value=-1, max_value=5), json_values),
    "convention": st.one_of(st.sampled_from(["paper", "script"]), json_values),
    "rows": st.one_of(st.lists(st.lists(param_entries, max_size=12), max_size=4),
                      json_values),
    "layout": json_values,
})


@settings(max_examples=300, deadline=None)
@given(st.one_of(damaged(JSON_DUMPS).map(lambda b: b.decode("latin-1")),
                 json_values.map(json.dumps), matrix_objects.map(json.dumps), st.text()))
@example(DEEP)
@example('{"genus": 3, "convention": "paper", "rows": ' + DEEP)
@example(JSON_DUMPS[0].decode("utf-8"))
def test_matrix_json_round_trips_or_raises_value_error(text):
    try:
        matrix = matrix_from_json(text)
    except ValueError:
        return
    _assert_round_trips(matrix)


@settings(max_examples=300, deadline=None)
@given(st.one_of(damaged(BIN_DUMPS), st.binary(max_size=64)))
@example(BIN_DUMPS[1])
def test_matrix_bytes_round_trip_or_raise_value_error(blob):
    try:
        matrix = matrix_from_bytes(blob)
    except ValueError:
        return
    _assert_round_trips(matrix)


def test_deeply_nested_matrix_json_is_a_value_error():
    with pytest.raises(ValueError, match="nests too deeply"):
        matrix_from_json(DEEP)
