"""Exact rank certification for Gaussian-map matrices.

Two routes:

* `rank_mod_p` — row echelon over a word-sized prime field.  This is a sound
  *lower* bound for the rational rank (reduction can only collapse rows), so
  a single modular rank equal to min(rows, cols) already certifies that the
  rational rank is maximal.  That observation, not a heuristic, is what makes
  genus sweeps cheap.  The elimination is vectorized with numpy int64;
  because every prime lies in (2^30, 2^31), factor * entry products stay
  below 2^62 and cannot overflow the signed 64-bit accumulator.

* `rank_exact` — fraction-free (Bareiss) elimination over the integers.
  Rows are cleared of denominators, then each column is divided by the gcd
  of its entries; both are nonzero diagonal scalings, so the rank is
  unchanged, and the primitive columns keep the minors Bareiss forms small.
  The pivot is chosen of minimal bit length to limit coefficient growth.
  Intermediate divisions are exact by the Bareiss identity; the result is
  the true rational rank, with no modular arithmetic.  `det_exact` runs the
  same elimination, on row-cleared input only, for the determinant of a
  small square matrix (the induction's 5x5 blocks).

`certify` combines them under a policy: "fast" tries a few primes and falls
back to the exact path only when no modular run reaches the maximum;
"exact" goes straight to Bareiss.  Runs are sequential, so certificates are
identical no matter how callers schedule them; the seed fixes the prime
sequence (offset into the fixed prime list).

Given a curve rather than a matrix, `certify` is modular-first: at each
prime it takes the image `gaussmap.assemble_mod_p`, which has the rank of
the reduced rational matrix, and builds the rational matrix only when it is
needed: for the exact policy, for the Bareiss fallback, or at a prime where
the curve's data does not reduce.  Primes used, skipped primes, ranks and
methods are the same as for `certify(assemble_matrix(curve))`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .curves import PrymBinaryCurve
from .exact import (FIELD_PRIMES, BadPrimeError, _entry_rows, clear_denominators,
                    reduce_mod_p)
from .gaussmap import assemble_matrix, assemble_mod_p, matrix_shape


def rank_mod_p(matrix, p: int) -> int:
    """Rank of the matrix reduced mod p.

    Raises BadPrimeError if p divides any entry denominator, in which case
    the caller should retry with the next prime.
    """
    return _echelon_rank(reduce_mod_p(matrix, p), p)


def _echelon_rank(arr: np.ndarray, p: int) -> int:
    nrows, ncols = arr.shape
    rank = 0
    for c in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if arr[r, c]:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != rank:
            arr[[rank, pivot]] = arr[[pivot, rank]]
        inv = pow(int(arr[rank, c]), -1, p)
        # Normalize the pivot row, then clear the column below it.  All
        # products stay below 2^62: both operands are reduced mod p < 2^31.
        arr[rank, c:] = arr[rank, c:] * inv % p
        col = arr[rank + 1:, c].copy()
        nz = col != 0
        if nz.any():
            arr[rank + 1:, c:][nz] = (arr[rank + 1:, c:][nz] - col[nz, None] * arr[rank, c:]) % p
        rank += 1
        if rank == nrows:
            break
    return rank


def rank_exact(matrix) -> int:
    """True rank over the rationals via fraction-free elimination."""
    rows = [clear_denominators(row)[0] for row in _entry_rows(matrix)]
    gcds = [math.gcd(*col) or 1 for col in zip(*rows, strict=True)]
    return _bareiss([[x // d for x, d in zip(row, gcds)] for row in rows])[0]


def det_exact(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square rational matrix, by the same elimination.

    The last Bareiss pivot is the determinant of the cleared integer
    matrix up to the sign of the row swaps; dividing by the product of the
    row denominators gives the rational determinant.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    cleared = [clear_denominators(row) for row in rows]
    rank, pivot, sign = _bareiss([ints for ints, _ in cleared])
    if rank < n:
        return Fraction(0)
    return Fraction(sign * pivot, math.prod(den for _, den in cleared))


def _bareiss(rows: list[list[int]]) -> tuple[int, int, int]:
    """Fraction-free elimination of integer rows, in place.

    Returns (rank, last pivot, sign of the row swaps).  At full rank on a
    square matrix, sign * last pivot is its determinant (the Bareiss
    identity); zero rows are dropped first, so a matrix with a zero row
    never reaches full rank.
    """
    work = [row for row in rows if any(row)]
    if not work:
        return 0, 1, 1
    nrows, ncols = len(work), len(work[0])
    rank = 0
    prev = 1
    sign = 1
    for c in range(ncols):
        pivot = None
        best = None
        for r in range(rank, nrows):
            v = work[r][c]
            if v:
                bits = v.bit_length()
                if best is None or bits < best:
                    best = bits
                    pivot = r
        if pivot is None:
            continue
        if pivot != rank:
            work[rank], work[pivot] = work[pivot], work[rank]
            sign = -sign
        pivot_tail = work[rank][c:]
        pv = pivot_tail[0]
        for r in range(rank + 1, nrows):
            row = work[r]
            f = row[c]
            if f:
                row[c:] = [(x * pv - f * y) // prev for x, y in zip(row[c:], pivot_tail)]
            else:
                # Bareiss scaling applies to the whole submatrix, zero
                # leading entry or not; division stays exact.
                row[c:] = [x * pv // prev for x in row[c:]]
        prev = pv
        rank += 1
        if rank == nrows:
            break
    return rank, prev, sign


@dataclass(frozen=True)
class RankCertificate:
    """Outcome of a rank certification run."""
    genus: int | None
    rank: int
    max_possible: int
    is_maximal: bool
    method: str                      # "modular" | "bareiss" | "both"
    primes_used: tuple[int, ...]
    elapsed_seconds: float

    def to_json_dict(self, with_timing: bool = True) -> dict:
        out = {
            "genus": self.genus,
            "rank": self.rank,
            "max_possible": self.max_possible,
            "is_maximal": self.is_maximal,
            "method": self.method,
            "primes_used": list(self.primes_used),
        }
        if with_timing:
            out["elapsed_ms"] = round(self.elapsed_seconds * 1000, 3)
        return out


def good_primes(seed: int = 0) -> Iterable[int]:
    """The fixed prime list, rotated so the seed picks the starting offset."""
    n = len(FIELD_PRIMES)
    start = seed % n
    for idx in range(n):
        yield FIELD_PRIMES[(start + idx) % n]


def certify(source, policy: str = "fast", seed: int = 0,
            modular_attempts: int = 3) -> RankCertificate:
    """Certify the rank with the strongest sound claim.

    `source` is a curve (modular-first, see the module docstring), a
    GaussMatrix, or a sequence of rational rows.

    fast:  run modular ranks at up to `modular_attempts` good primes; the
           first one equal to min(rows, cols) certifies maximality.  If none
           reaches it, fall back to the exact path (method "both").
    exact: fraction-free elimination only (method "bareiss").
    """
    if policy not in ("fast", "exact"):
        raise ValueError(f"policy must be 'fast' or 'exact', got {policy!r}")
    start = time.perf_counter()
    curve = source if isinstance(source, PrymBinaryCurve) else None
    if curve is None:
        matrix = source
        rows = _entry_rows(matrix)
        genus = getattr(matrix, "genus", None)
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
    else:
        matrix = None
        genus = curve.genus
        nrows, ncols = matrix_shape(genus)
    maxp = min(nrows, ncols)

    def rational():
        nonlocal matrix
        if matrix is None:
            matrix = assemble_matrix(curve)
        return matrix

    def modular_rank(p: int) -> int:
        if curve is not None:
            try:
                image = assemble_mod_p(curve, p)
            except BadPrimeError:
                pass        # the curve's data does not reduce: reduce the matrix
            else:
                return _echelon_rank(image, p)
        return rank_mod_p(rational(), p)

    if policy == "exact":
        rank = rank_exact(rational())
        return RankCertificate(genus, rank, maxp, rank == maxp, "bareiss", (),
                               time.perf_counter() - start)

    primes_used: list[int] = []
    best_modular = 0
    for p in good_primes(seed):
        if len(primes_used) >= modular_attempts:
            break
        try:
            r = modular_rank(p)
        except BadPrimeError:
            continue
        primes_used.append(p)
        best_modular = max(best_modular, r)
        if r == maxp:
            return RankCertificate(genus, r, maxp, True, "modular", tuple(primes_used),
                                   time.perf_counter() - start)
    rank = rank_exact(rational())
    if rank < best_modular:
        raise AssertionError(
            f"exact rank {rank} below a modular lower bound {best_modular}: arithmetic bug")
    return RankCertificate(genus, rank, maxp, rank == maxp, "both", tuple(primes_used),
                           time.perf_counter() - start)
