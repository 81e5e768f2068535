"""Exact rank certification for Gaussian-map matrices.

Both rank steps take a curve, a GaussMatrix or a sequence of rational
rows; a curve's rational matrix is never built, at any prime or policy.

* `rank_mod_p` — row echelon over a word-sized prime field.  This is a sound
  *lower* bound for the rational rank (reduction can only collapse rows), so
  a single modular rank equal to min(rows, cols) already certifies that the
  rational rank is maximal, which makes genus sweeps cheap.  The elimination
  is vectorized with numpy int64; because every prime lies in (2^30, 2^31),
  factor * entry products stay below 2^62 and cannot overflow.  A tall image
  (g >= 13) is built and eliminated in blocks of ncols rows, until the rank
  is ncols: every row is built and eliminated at most once.

* `rank_exact` — fraction-free (Bareiss) elimination over the integers, on
  the column-cleared matrix (a curve's `gaussmap._cleared_rows`) made
  primitive by row and column gcds, columns sorted by bit length: diagonal
  scalings and a column permutation, which keep the rank and the Bareiss
  minors small.  `_bareiss` is left-looking, pivots on the entry of least
  bit length and stops at full row rank (at g <= 11 the large torsion
  columns after the last pivot are never updated); every division is exact
  by the Bareiss identity, so the result is the true rational rank.
  `det_exact` runs the same elimination, unsorted (the sign depends on the
  column order), on the column-cleared transpose of a small square matrix
  (the induction's 5x5 blocks).

`certify` combines them under a policy: "fast" tries up to
`MODULAR_ATTEMPTS` good primes and falls back to the exact path only when no
modular run reaches the maximum; "exact" is the same loop with no modular
attempt, so it goes straight to Bareiss.  Runs are sequential, so
certificates are identical no matter how callers schedule them; the seed
fixes the prime sequence (offset into the fixed prime list).  A curve and
its matrix get the same certificate, unless a prime divides a denominator
of the curve's data and of no matrix entry: only the matrix uses it.

numpy is not imported with this module.  The modular route loads it in
`rank_mod_p`, and `_echelon_rank` uses only the methods of the array it is
given; the exact route never loads it.  `certify` loads it before its clock
starts when its policy makes modular attempts, so a certificate's time is
its own.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .curves import PrymBinaryCurve
from .exact import (FIELD_PRIMES, BadPrimeError, _entry_rows, clear_denominators, mod_p,
                    reduce_mod_p)
from .gaussmap import _cleared_rows, assemble_mod_p, matrix_shape

if TYPE_CHECKING:
    import numpy as np


def rank_mod_p(source, p: int) -> int:
    """Rank of the Gaussian-map matrix reduced mod p.

    `source` is a curve, a GaussMatrix or a sequence of rational rows.  A
    curve's image mod p is `gaussmap.assemble_mod_p`, which has the rank of
    the reduced rational matrix; its rational matrix is never built.  A
    matrix is reduced whole (`exact.reduce_mod_p`).  Rows are eliminated in
    blocks of ncols, each stacked under the echelon basis of those before
    it, until the rank is ncols; a curve builds each block as it is reached.

    The modulus p must be one of FIELD_PRIMES (ValueError otherwise).
    Raises BadPrimeError if p divides a denominator of the entries or of
    the curve's data; the caller should then retry with the next prime.
    """
    if isinstance(source, PrymBinaryCurve):
        nrows, ncols = matrix_shape(source.genus)
        block = lambda rows: assemble_mod_p(source, p, rows)  # noqa: E731
    else:
        arr = reduce_mod_p(source, p)
        nrows, ncols = arr.shape
        block = arr.__getitem__
    import numpy as np

    basis = block(slice(0, ncols))
    rank, start = _echelon_rank(basis, p), ncols
    while rank < ncols and start < nrows:
        basis = np.concatenate((basis[:rank], block(slice(start, start + ncols))))
        rank, start = _echelon_rank(basis, p), start + ncols
    return rank


def _echelon_rank(arr: np.ndarray, p: int) -> int:
    """Rank of an int64 array of residues mod p, by row echelon in place over
    every row it is given (`rank_mod_p` chooses the rows).  Afterwards
    arr[:rank] spans the row space of the input and the rows below are zero,
    so a later block stacked under arr[:rank] continues the elimination."""
    nrows, ncols = arr.shape
    rank = 0
    for c in range(ncols):
        for pivot in range(rank, nrows):
            if arr[pivot, c]:
                break
        else:
            continue
        if pivot != rank:
            arr[[rank, pivot]] = arr[[pivot, rank]]
        inv = pow(int(arr[rank, c]), -1, p)
        # Normalize the pivot row, then clear the column below it.  All
        # products stay below 2^62: both operands are reduced mod p < 2^31.
        row = arr[rank, c:] * inv % p
        arr[rank, c:] = row
        arr[rank + 1:, c:] = mod_p(arr[rank + 1:, c:] - arr[rank + 1:, c, None] * row, p)
        rank += 1
    return rank


def rank_exact(source) -> int:
    """True rank over the rationals via fraction-free elimination.

    `source` is a curve, a GaussMatrix or a sequence of rational or integer
    rows.  A curve's integers are the rows of `gaussmap._cleared_rows`, its
    rational matrix times the diagonal of its nonzero column denominators;
    a matrix is column-cleared of denominators (`clear_denominators`).
    Each row is then divided by the gcd of its entries, then each column by
    its gcd; these are nonzero diagonal scalings on either side, so the
    rank is unchanged.  The columns are then ordered by the bit length of
    their largest entry (stable), so that the elimination pivots on small
    columns first.
    """
    if isinstance(source, PrymBinaryCurve):
        ints = _cleared_rows(source)[0]
    else:
        ints = clear_denominators(_entry_rows(source))[0]
    rows = []
    for row in ints:
        d = math.gcd(*row) or 1
        rows.append([x // d for x in row])
    cols = []
    for col in zip(*rows):
        d = math.gcd(*col) or 1
        cols.append([x // d for x in col])
    cols.sort(key=lambda col: max(x.bit_length() for x in col))
    return _bareiss(list(zip(*cols)))[0]


def det_exact(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square rational matrix, by the same elimination.

    The transpose is cleared by its columns (det M^T = det M), so each row
    of M is multiplied by the lcm of its denominators; on the induction's
    5x5 blocks that keeps the Bareiss minors smaller than column clearing.
    The last Bareiss pivot is the determinant of that integer matrix up to
    the sign of the row swaps; dividing by the product of the lcms gives the
    rational determinant.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    ints, dens = clear_denominators(list(zip(*rows)))
    rank, pivot, sign = _bareiss(ints)
    if rank < n:
        return Fraction(0)
    return Fraction(sign * pivot, math.prod(dens))


def _bareiss(rows: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """Left-looking fraction-free elimination of integer rows.

    Returns (rank, last pivot, sign of the row swaps).  At full rank on a
    square matrix, sign * last pivot is its determinant (the Bareiss
    identity); zero rows are dropped first, so a matrix with a zero row
    never reaches full rank.

    Columns are taken left to right.  Each is read in the current row
    order and brought up to date by replaying the earlier steps; only a
    column that yields a pivot is kept, and no column after the last pivot
    is read.  The arithmetic, the pivot rule (minimal bit length, first row
    on ties) and the row swaps are those of the right-looking elimination,
    so the result is the same.  The input rows are not modified.
    """
    work = [row for row in rows if any(row)]
    if not work:
        return 0, 1, 1
    nrows, ncols = len(work), len(work[0])
    # step s: its pivot and its pivot column below row s, as chosen
    steps: list[tuple[int, list[int]]] = []
    sign = 1
    for c in range(ncols):
        col = [row[c] for row in work]
        prev = 1
        for s, (pv, below) in enumerate(steps):
            a = col[s]
            col[s + 1:] = [(x * pv - f * a) // prev for x, f in zip(col[s + 1:], below)]
            prev = pv
        rank = len(steps)
        pivot = None
        best = None
        for r in range(rank, nrows):
            v = col[r]
            if v:
                bits = v.bit_length()
                if best is None or bits < best:
                    best = bits
                    pivot = r
        if pivot is None:
            continue
        if pivot != rank:
            work[rank], work[pivot] = work[pivot], work[rank]
            col[rank], col[pivot] = col[pivot], col[rank]
            for s, (_, below) in enumerate(steps):
                i, j = rank - s - 1, pivot - s - 1
                below[i], below[j] = below[j], below[i]
            sign = -sign
        steps.append((col[rank], col[rank + 1:]))
        if rank + 1 == nrows:
            break
    return len(steps), steps[-1][0], sign


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


# Good primes the fast policy tries before it falls back to Bareiss.
MODULAR_ATTEMPTS = 3


def certify(source, policy: str = "fast", seed: int = 0) -> RankCertificate:
    """Certify the rank with the strongest sound claim.

    `source` is a curve, a GaussMatrix, or a sequence of rational rows,
    passed as it is to `rank_mod_p` (bad primes are skipped) and `rank_exact`,
    so `rank`, `sweep` and `certify(curve)` never build a rational matrix.

    fast:  run modular ranks at up to MODULAR_ATTEMPTS good primes; the
           first one equal to min(rows, cols) certifies maximality.  If none
           reaches it, fall back to the exact path: method "both", or
           "bareiss" if every prime was bad.
    exact: fraction-free elimination only (method "bareiss").
    """
    if policy not in ("fast", "exact"):
        raise ValueError(f"policy must be 'fast' or 'exact', got {policy!r}")
    attempts = MODULAR_ATTEMPTS if policy == "fast" else 0
    if attempts:
        import numpy  # noqa: F401  (loaded here, so elapsed_seconds excludes it)
    start = time.perf_counter()
    if isinstance(source, PrymBinaryCurve):
        nrows, ncols = matrix_shape(source.genus)
    else:
        rows = _entry_rows(source)
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
    genus = getattr(source, "genus", None)
    maxp = min(nrows, ncols)
    primes_used: list[int] = []
    best_modular = 0
    offset = seed % len(FIELD_PRIMES)
    for p in FIELD_PRIMES[offset:] + FIELD_PRIMES[:offset]:
        if len(primes_used) >= attempts:
            break
        try:
            r = rank_mod_p(source, p)
        except BadPrimeError:
            continue
        primes_used.append(p)
        best_modular = max(best_modular, r)
        if r == maxp:
            return RankCertificate(genus, r, maxp, True, "modular", tuple(primes_used),
                                   time.perf_counter() - start)
    rank = rank_exact(source)
    if rank < best_modular:
        raise AssertionError(
            f"exact rank {rank} below a modular lower bound {best_modular}: arithmetic bug")
    return RankCertificate(genus, rank, maxp, rank == maxp,
                           "both" if primes_used else "bareiss", tuple(primes_used),
                           time.perf_counter() - start)
