"""exact-core: rational parsing, denominator clearing, prime fields."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prymgauss import BadPrimeError, FIELD_PRIMES, format_rational, parse_rational, reduce_mod_p
from prymgauss.exact import clear_denominators, mod_p

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


# -- rational literals -------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("3/4", Fraction(3, 4)),
    ("-7", Fraction(-7)),
    ("+5", Fraction(5)),
    ("−5/9", Fraction(-5, 9)),   # unicode minus
    ("  10/4 ", Fraction(5, 2)),
    (3, Fraction(3)),
    (Fraction(2, 6), Fraction(1, 3)),
])
def test_parse_rational_accepts_exact_literals(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("bad", ["1.5", "3.0", "1e3", "a", "1/2/3", "1/0", 0.5, None, True, False])
def test_parse_rational_rejects_non_rationals(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@pytest.mark.parametrize("bad,message", [
    (0.5, r"0\.5 \(floats are not accepted\)"),
    (None, r"None \(NoneType values are not accepted\)"),
    ([1, 2], r"\[1, 2\] \(list values are not accepted\)"),
    (int, r"<class 'int'> \(type values are not accepted\)"),
])
def test_parse_rational_names_what_it_rejects(bad, message):
    with pytest.raises(ValueError, match=message) as info:
        parse_rational(bad)
    if not isinstance(bad, float):
        assert "floats" not in str(info.value)


def test_parse_rational_rejects_non_ascii_digits():
    # Arabic-Indic and fullwidth digits are Unicode decimals, which int()
    # would accept; the literal grammar is ASCII digits only.
    for bad in ("\u0661/\u0662", "\uff15"):
        with pytest.raises(ValueError, match="not a rational literal"):
            parse_rational(bad)


def test_format_rational_roundtrip():
    for x in (Fraction(3, 4), Fraction(-7), Fraction(0), Fraction(22, 7)):
        assert parse_rational(format_rational(x)) == x


def test_canonical_form_idempotent():
    x = Fraction(-6, -4)
    assert (x.numerator, x.denominator) == (3, 2)
    again = Fraction(x.numerator, x.denominator)
    assert (again.numerator, again.denominator) == (x.numerator, x.denominator)
    assert Fraction(0, 7) == Fraction(0, 1)


# -- denominators ------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda ncols: st.lists(st.lists(rationals, min_size=ncols, max_size=ncols), max_size=6)))
def test_clear_denominators(rows):
    ints, dens = clear_denominators(rows)
    assert [[Fraction(n, d) for n, d in zip(row, dens, strict=True)] for row in ints] == rows
    # a common factor of a column's den and its integers would leave a smaller clearing
    assert len(dens) == (len(rows[0]) if rows else 0)
    assert all(d > 0 and math.gcd(d, *col) == 1 for d, col in zip(dens, zip(*ints)))


def test_clear_denominators_rejects_ragged_rows():
    with pytest.raises(ValueError):
        clear_denominators([[Fraction(1, 2), Fraction(1)], [Fraction(3)]])


# -- prime field --------------------------------------------------------

def test_prime_list_shape():
    assert len(FIELD_PRIMES) == len(set(FIELD_PRIMES)) == 25
    assert all(2**30 < p < 2**31 for p in FIELD_PRIMES)
    assert list(FIELD_PRIMES) == sorted(FIELD_PRIMES)


def test_prime_list_entries_are_prime():
    sympy = pytest.importorskip("sympy")
    assert all(sympy.isprime(p) for p in FIELD_PRIMES)


def reduce(x, p):
    """The residue of one rational, through the matrix reduction."""
    return int(reduce_mod_p([[x]], p)[0, 0])


@settings(max_examples=80, deadline=None)
@given(rationals, rationals)
def test_reduction_commutes_with_ring_ops(a, b):
    p = FIELD_PRIMES[0]
    assert reduce(a * b, p) == reduce(a, p) * reduce(b, p) % p
    assert reduce(a + b, p) == (reduce(a, p) + reduce(b, p)) % p


def test_reduce_bad_prime():
    p = FIELD_PRIMES[3]
    with pytest.raises(BadPrimeError):
        reduce(Fraction(1, p), p)


def test_field_inverse():
    p = FIELD_PRIMES[1]
    assert reduce(Fraction(1, 123456), p) * 123456 % p == 1
    with pytest.raises(BadPrimeError):
        reduce(Fraction(1, p), p)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FIELD_PRIMES), st.data())
def test_mod_p_matches_the_remainder(p, data):
    # the range of a difference of two products of residues, ends included
    np = pytest.importorskip("numpy")
    low = -(p - 1) ** 2
    values = data.draw(st.lists(st.sampled_from([0, p - 1, low]) | st.integers(low, p - 1),
                                max_size=50))
    x = np.array(values + [0, p - 1, low], dtype=np.int64)
    before = x.copy()
    got = mod_p(x, p)
    assert got.dtype == np.int64 and np.array_equal(got, x % p)
    assert np.array_equal(x, before)


def test_small_modulus_rejected():
    with pytest.raises(ValueError):
        reduce_mod_p([[Fraction(1)]], 97)
