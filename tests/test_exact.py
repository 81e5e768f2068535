"""exact-core: rational parsing, polynomial arithmetic, prime fields."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prymgauss import (BadPrimeError, FIELD_PRIMES, Poly, format_rational, parse_rational,
                       reduce_mod_p)
from prymgauss.exact import clear_denominators

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
polys = st.lists(rationals, max_size=21).map(Poly)


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


# -- polynomial examples ----------------------------------------------

def test_derivative_power_rule():
    p = Poly([1, -3, 1])            # t^2 - 3t + 1
    assert p.derivative() == Poly([-3, 2])


def test_derivative_of_constant_is_zero():
    assert Poly.constant(5).derivative() == Poly.zero()
    assert Poly.zero().derivative() == Poly.zero()


def test_derivative_of_quadratic_from_roots():
    m = Poly.from_roots([1, 2])     # t^2 - 3t + 2
    assert m == Poly([2, -3, 1])
    dm = m.derivative()
    assert dm == Poly([-3, 2])
    assert dm(1) == -1              # M'(1) for M = (t-1)(t-2)


def test_derivative_drops_degree_by_one():
    p = Poly.from_roots([1, 2, 3, 4, 5])
    assert p.derivative().degree == p.degree - 1


def test_from_roots_empty_product_is_one():
    assert Poly.from_roots([]) == Poly.constant(1)


def test_from_roots_expansion():
    assert Poly.from_roots([1, 2]) == Poly([2, -3, 1])


def test_from_roots_value_at_zero():
    # product of the negated roots
    assert Poly.from_roots([1, 2, 3, 4])(0) == 24


def test_div_linear_factorization():
    p = Poly([2, -3, 1])
    assert p.div_linear(1) == Poly([-2, 1])


def test_div_linear_rejects_non_root():
    with pytest.raises(ValueError, match="not a root"):
        Poly([2, -3, 1]).div_linear(5)


def test_div_linear_matches_root_removal():
    p = Poly.from_roots([1, 2, 3, 4])
    assert p.div_linear(3) == Poly.from_roots([1, 2, 4])


def test_poly_is_immutable():
    p = Poly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (Fraction(0),)


# -- polynomial properties ---------------------------------------------

@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_product_rule(p, q):
    left = (p * q).derivative()
    right = p.derivative() * q + p * q.derivative()
    assert left == right


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=8), st.data())
def test_div_linear_inverts_from_roots(roots, data):
    r = data.draw(st.sampled_from(roots))
    rest = list(roots)
    rest.remove(r)
    assert Poly.from_roots(roots).div_linear(r) == Poly.from_roots(rest)


@settings(max_examples=40, deadline=None)
@given(polys, rationals)
def test_evaluation_is_ring_morphism(p, x):
    q = Poly([1, 1])                # t + 1
    assert (p * q)(x) == p(x) * q(x)
    assert (p + q)(x) == p(x) + q(x)


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, max_size=8))
def test_clear_denominators(row):
    ints, den = clear_denominators(row)
    assert [Fraction(n, den) for n in ints] == row
    # a common factor of den and every integer would leave a smaller clearing
    assert den > 0 and math.gcd(den, *ints) == 1


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


def test_small_modulus_rejected():
    with pytest.raises(ValueError):
        reduce_mod_p([[Fraction(1)]], 97)
