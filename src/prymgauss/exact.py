"""Exact scalar arithmetic.

Scalars are arbitrary-precision rationals (`fractions.Fraction`), which are
always stored in canonical form: positive denominator, gcd(|num|, den) = 1,
zero as 0/1.  `parse_rational` and `format_rational` read and write them as
"p" or "p/q" literals, and `clear_denominators` turns a rational matrix
into integers over one denominator per column.  Everything here is
side-effect free.

A small prime-field layer supports modular rank bounds: `reduce_mod_p` is
the one rational -> residue reduction, to int64 residues in [0, p).  The
module ships a fixed list of word-sized primes (the 25 smallest primes above
2^30) so that modular runs are reproducible; callers select an offset into
the list.  numpy is imported inside `reduce_mod_p` and `_inverse_mod_p`,
not with the module, so only a modular rank loads it.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import chain
from typing import TYPE_CHECKING, Sequence, Union

if TYPE_CHECKING:
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
        if not den:
            return Fraction(int(num))
        q = int(den)
        if q == 0:
            raise ValueError(f"zero denominator in rational literal: {value!r}")
        return Fraction(int(num), q)
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
    """Raise ValueError unless p is one of FIELD_PRIMES, as an int (no float or numpy int).

    A composite modulus makes the residues a ring, not a field, so its rank
    is no lower bound; and below 2^31 a product of two residues stays below
    2^62, so the int64 arithmetic of the modular rank cannot overflow.
    """
    if type(p) is not int or p not in FIELD_PRIMES:
        raise ValueError(f"modulus {p} outside FIELD_PRIMES; use a field prime")


def _entry_rows(matrix) -> Sequence[Sequence[Fraction]]:
    """Accept a GaussMatrix or any sequence of rational rows."""
    return matrix.entries if hasattr(matrix, "entries") else matrix


def reduce_mod_p(matrix, p: int) -> np.ndarray:
    """The matrix (a GaussMatrix or rational rows) reduced mod p, as int64
    residues in [0, p).

    Raises ValueError unless p is one of FIELD_PRIMES or if the rows differ
    in length, and BadPrimeError if p divides any entry denominator.

    The denominators are inverted by one vectorized Fermat loop, a fixed 31
    squarings whatever the size.  On a g=20 matrix (16,245 cells) it takes
    12-13 ms, where a per-cell pow(d % p, -1, p) took 24-28 ms and
    `clear_denominators` with one inverse per column 23 ms, so it stays.
    """
    import numpy as np

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
    import numpy as np

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


def mod_p(x, p: int):
    """x % p for an int64 array with |x| < 2^62, as x - (x // p) * p, which numpy
    computes faster than `%` above about 400 elements.  `x` is not modified."""
    q = x // p
    q *= -p
    q += x
    return q


def clear_denominators(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """(integers, column_dens): the matrix times the diagonal matrix of its
    column denominators, each the lcm of the denominators in its column.

    integers[r][c] / column_dens[c] is rows[r][c], exactly.  Raises
    ValueError if the rows differ in length.
    """
    dens = [math.lcm(*(x.denominator for x in col)) for col in zip(*rows, strict=True)]
    return [[x.numerator * (d // x.denominator) for x, d in zip(row, dens)]
            for row in rows], dens
