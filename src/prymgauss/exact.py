"""Exact scalar and polynomial arithmetic.

Scalars are arbitrary-precision rationals (`fractions.Fraction`), which are
always stored in canonical form: positive denominator, gcd(|num|, den) = 1,
zero as 0/1.  Polynomials are dense coefficient sequences over those
rationals, ascending degree, with no trailing zero coefficient.  Everything
here is immutable and side-effect free, so values can be shared freely
between threads.

A small prime-field layer supports modular rank bounds: `reduce_mod_p` is
the one rational -> residue reduction, to int64 residues in [0, p).  The
module ships a fixed list of word-sized primes (the 25 smallest primes above
2^30) so that modular runs are reproducible; callers select an offset into
the list.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence, Union

import numpy as np

RationalLike = Union[Fraction, int, str]

# Accepted rational literals: "p", "p/q", optional leading sign.  No floats.
_RATIONAL_RE = re.compile(r"^[+\-−]?\d+(/\d+)?$", re.ASCII)


def parse_rational(value: RationalLike) -> Fraction:
    """Parse a rational from an int, Fraction, or a "p/q" / "p" literal.

    Unicode minus (U+2212) is accepted alongside the ASCII hyphen.  Anything
    else — floats and booleans in particular — is rejected.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"not a rational value: {value!r} (booleans are not accepted)")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip().replace("−", "-")
        if not _RATIONAL_RE.match(text):
            raise ValueError(f"not a rational literal: {value!r}")
        num, _, den = text.partition("/")
        if den:
            if int(den) == 0:
                raise ValueError(f"zero denominator in rational literal: {value!r}")
            return Fraction(int(num), int(den))
        return Fraction(int(num))
    kind = "floats" if isinstance(value, float) else f"{type(value).__name__} values"
    raise ValueError(f"not a rational value: {value!r} ({kind} are not accepted)")


def format_rational(x: Fraction) -> str:
    """Render a rational as "p" or "p/q" (canonical form, ASCII minus)."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# The 25 smallest primes above 2^30.  All lie below 2^31, so a product of a
# residue and an elimination factor fits in a signed 64-bit accumulator.
FIELD_PRIMES: tuple[int, ...] = (
    1073741827, 1073741831, 1073741833, 1073741839, 1073741843,
    1073741857, 1073741891, 1073741909, 1073741939, 1073741953,
    1073741969, 1073741971, 1073741987, 1073741993, 1073742037,
    1073742053, 1073742073, 1073742077, 1073742091, 1073742113,
    1073742169, 1073742203, 1073742209, 1073742223, 1073742233,
)


class BadPrimeError(ValueError):
    """A denominator in the input is divisible by the chosen prime."""

    def __init__(self, prime: int):
        super().__init__(f"prime {prime} divides a denominator; retry with another prime")
        self.prime = prime


def check_modulus(p: int) -> None:
    """Raise ValueError unless 2^30 < p < 2^31, the range of FIELD_PRIMES.

    Below 2^31 a product of two residues stays below 2^62, so the int64
    arithmetic of the modular rank cannot overflow.
    """
    if not 2**30 < p < 2**31:
        raise ValueError(f"modulus {p} outside (2^30, 2^31); use a field prime")


def _entry_rows(matrix) -> Sequence[Sequence[Fraction]]:
    """Accept a GaussMatrix or any sequence of rational rows."""
    return matrix.entries if hasattr(matrix, "entries") else matrix


def reduce_mod_p(matrix, p: int) -> np.ndarray:
    """The matrix (a GaussMatrix or rational rows) reduced mod p, as int64
    residues in [0, p).

    Raises ValueError unless 2^30 < p < 2^31 or if the rows differ in
    length, and BadPrimeError if p divides any entry denominator.
    """
    check_modulus(p)
    rows = _entry_rows(matrix)
    ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError("matrix rows differ in length")
    count = len(rows) * ncols
    nums = np.fromiter((x.numerator % p for x in chain.from_iterable(rows)),
                       dtype=np.int64, count=count)
    dens = np.fromiter((x.denominator % p for x in chain.from_iterable(rows)),
                       dtype=np.int64, count=count)
    if not dens.all():
        raise BadPrimeError(p)
    nums *= _inverse_mod_p(dens, p)
    nums %= p
    return nums.reshape(len(rows), ncols)


def _inverse_mod_p(values: np.ndarray, p: int) -> np.ndarray:
    """Elementwise values^(p-2) mod p, the inverse of each nonzero residue.

    Overwrites `values`; in-place products keep the temporaries to one array.
    """
    result = np.ones_like(values)
    e = p - 2
    while e:
        if e & 1:
            result *= values
            result %= p
        values *= values
        values %= p
        e >>= 1
    return result


def clear_denominators(row: Sequence[Fraction]) -> tuple[list[int], int]:
    """(integers, lcm): the row times the lcm of its denominators.

    The integers are exact; an empty row gives ([], 1).
    """
    den = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row], den


class Poly:
    """Dense univariate polynomial over the rationals.

    Coefficients are stored ascending by degree; the zero polynomial is the
    empty tuple, otherwise the last coefficient is nonzero.  Instances are
    immutable.  Degrees in this package stay small (<= 2g-4), so dense
    storage is the right trade.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [parse_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def constant(cls, c: RationalLike) -> "Poly":
        return cls((c,))

    @classmethod
    def from_roots(cls, roots: Sequence[RationalLike]) -> "Poly":
        """Monic polynomial with exactly the given multiset of roots."""
        coeffs = [Fraction(1)]
        for r in roots:
            r = parse_rational(r)
            nxt = [Fraction(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] += c
                nxt[i] -= r * c
            coeffs = nxt
        return cls(coeffs)

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, d: int) -> Fraction:
        if 0 <= d < len(self.coeffs):
            return self.coeffs[d]
        return Fraction(0)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            return self._mul_poly(other)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c: RationalLike) -> "Poly":
        c = parse_rational(c)
        if c == 0:
            return Poly(())
        return Poly(tuple(c * x for x in self.coeffs))

    def _mul_poly(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(())
        # Clear denominators and convolve over machine ints: much faster
        # than Fraction addition, and exact.
        ia, da = clear_denominators(a)
        ib, db = clear_denominators(b)
        out = [0] * (len(ia) + len(ib) - 1)
        for i, ai in enumerate(ia):
            if ai:
                for j, bj in enumerate(ib):
                    out[i + j] += ai * bj
        d = da * db
        return Poly(tuple(Fraction(n, d) for n in out))

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def __call__(self, x: RationalLike) -> Fraction:
        x = parse_rational(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def div_linear(self, root: RationalLike) -> "Poly":
        """Exact quotient by (t - root); synthetic division.

        Truncation is never silent: a nonzero remainder (root is not a root)
        raises ValueError.
        """
        root = parse_rational(root)
        if self.is_zero():
            return Poly(())
        quotient = [Fraction(0)] * (len(self.coeffs) - 1)
        acc = Fraction(0)
        for d in range(len(self.coeffs) - 1, 0, -1):
            acc = self.coeffs[d] + root * acc
            quotient[d - 1] = acc
        remainder = self.coeffs[0] + root * acc
        if remainder != 0:
            raise ValueError(f"{format_rational(root)} is not a root (remainder {format_rational(remainder)})")
        return Poly(quotient)

    # -- comparisons --------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly(0)"
        terms = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if d == 0:
                terms.append(format_rational(c))
            elif d == 1:
                terms.append(f"{format_rational(c)}*t")
            else:
                terms.append(f"{format_rational(c)}*t^{d}")
        return "Poly(" + " + ".join(terms) + ")"
