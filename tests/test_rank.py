"""rank-engine: modular and fraction-free ranks, certificates."""

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from prymgauss import (BadPrimeError, FIELD_PRIMES, GaussMatrix, assemble_matrix,
                       assemble_mod_p, build_curve, builtin_params, certify, matrix_checksum,
                       matrix_shape, rank_exact, rank_mod_p, reduce_mod_p, seeded_params)
from prymgauss import gaussmap
from prymgauss import rank as rank_module
from prymgauss.exact import clear_denominators
from prymgauss.induction import family_curve
from prymgauss.rank import det_exact

P = FIELD_PRIMES[0]


def frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def naive_rank(rows):
    """Independent oracle: plain Gaussian elimination over Fraction."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][c]
        for r in range(rank + 1, nrows):
            f = m[r][c] / pv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_identity_rank():
    eye = frac_rows([[1 if i == j else 0 for j in range(5)] for i in range(5)])
    for p in FIELD_PRIMES[:3]:
        assert rank_mod_p(eye, p) == 5
    assert rank_exact(eye) == 5


def test_zero_matrix_rank():
    zero = frac_rows([[0] * 4 for _ in range(3)])
    assert rank_mod_p(zero, P) == 0
    assert rank_exact(zero) == 0


def test_proportional_rows():
    m = frac_rows([[1, 2], [2, 4]])
    assert rank_exact(m) == 1
    assert rank_mod_p(m, P) == 1


def test_rank_with_rational_entries():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(5)], [Fraction(2), Fraction(4, 3)]]
    # row3 = 4 * row1, row2 independent
    assert rank_exact(m) == 2
    assert rank_mod_p(m, P) == 2


def test_bad_prime_detection():
    m = [[Fraction(1, P), Fraction(1)]]
    with pytest.raises(BadPrimeError):
        rank_mod_p(m, P)
    # the next prime is fine
    assert rank_mod_p(m, FIELD_PRIMES[1]) == 1


def test_certify_skips_bad_primes():
    m = [[Fraction(1, P), Fraction(1)], [Fraction(0), Fraction(2)]]
    cert = certify(m, seed=0)
    assert cert.rank == 2 and cert.is_maximal
    assert P not in cert.primes_used


def test_genus8_injectivity_rank():
    a1, a2 = seeded_params(8, 4)
    m = assemble_matrix(build_curve(8, a1, a2))
    assert rank_exact(m) == 21                       # C(7,2)
    for p in FIELD_PRIMES[:3]:
        assert rank_mod_p(m, p) == 21


def test_modular_bounded_by_exact_on_seeded_matrices():
    rng = random.Random(7)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        target_rank = rng.randint(0, min(nrows, ncols))
        # build a matrix of known rank as a product of random factors
        left = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(target_rank)]
                for _ in range(nrows)]
        right = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(ncols)]
                 for _ in range(target_rank)]
        m = [[sum((left[i][t] * right[t][j] for t in range(target_rank)), Fraction(0))
              for j in range(ncols)] for i in range(nrows)]
        exact = rank_exact(m)
        assert exact == naive_rank(m) <= target_rank
        assert rank_mod_p(m, P) <= exact <= min(nrows, ncols)


def test_exact_matches_naive_oracle_on_random_matrices():
    rng = random.Random(99)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        m = [[Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(ncols)]
             for _ in range(nrows)]
        assert rank_exact(m) == naive_rank(m)


def test_modular_agreement_on_small_matrices():
    # on matrices with rows*cols <= 2500, the exact rank should agree with
    # the modular rank at 2 of 3 distinct good primes (probabilistic sanity)
    for genus, seed in ((5, 0), (6, 1), (7, 2), (8, 3), (9, 4)):
        a1, a2 = seeded_params(genus, seed)
        m = assemble_matrix(build_curve(genus, a1, a2))
        assert m.rows * m.cols <= 2500
        exact = rank_exact(m)
        agreement = sum(1 for p in FIELD_PRIMES[:3] if rank_mod_p(m, p) == exact)
        assert agreement >= 2, (genus, seed, agreement)


def test_certificate_fast_policy_maximal():
    a1, a2 = seeded_params(7, 11)
    matrix = assemble_matrix(build_curve(7, a1, a2))
    cert = certify(matrix, policy="fast", seed=3)
    assert cert.genus == 7
    assert cert.rank == cert.max_possible == 15
    assert cert.is_maximal and cert.method == "modular"
    assert cert.primes_used and all(p in FIELD_PRIMES for p in cert.primes_used)


@pytest.mark.parametrize("seed,first", [(0, 0), (24, 24), (25, 0), (-1, 24)])
def test_certify_seed_offset_wraps_around_the_prime_list(seed, first):
    assert len(FIELD_PRIMES) == 25
    cert = certify(frac_rows([[1, 2], [3, 4]]), policy="fast", seed=seed)
    assert cert.is_maximal and cert.method == "modular"
    assert cert.primes_used == (FIELD_PRIMES[first],)


def test_certificate_exact_policy():
    a1, a2 = seeded_params(6, 2)
    matrix = assemble_matrix(build_curve(6, a1, a2))
    cert = certify(matrix, policy="exact")
    assert cert.method == "bareiss"
    assert cert.primes_used == ()
    assert cert.rank == 10 and cert.is_maximal


def test_certificate_on_deficient_matrix():
    a1, a2 = seeded_params(6, 5)
    m = assemble_matrix(build_curve(6, a1, a2))
    rows = list(m.entries)
    rows[3] = rows[0]                               # duplicate a row
    deficient = GaussMatrix(genus=6, convention=m.convention, entries=tuple(rows))
    cert = certify(deficient, policy="fast", seed=0)
    assert not cert.is_maximal
    assert cert.method == "both"                    # modular first, exact fallback
    assert cert.rank == 9 == rank_exact(deficient)


def test_certificates_are_deterministic():
    a1, a2 = seeded_params(6, 8)
    matrix = assemble_matrix(build_curve(6, a1, a2))
    a = certify(matrix, policy="fast", seed=5)
    b = certify(matrix, policy="fast", seed=5)
    assert (a.rank, a.max_possible, a.is_maximal, a.method, a.primes_used) == \
           (b.rank, b.max_possible, b.is_maximal, b.method, b.primes_used)
    # a different seed starts at a different prime offset
    c = certify(matrix, policy="fast", seed=6)
    assert c.primes_used != a.primes_used


def test_certificate_json_fields():
    a1, a2 = seeded_params(5, 1)
    cert = certify(assemble_matrix(build_curve(5, a1, a2)))
    data = cert.to_json_dict()
    assert set(data) == {"genus", "rank", "max_possible", "is_maximal", "method",
                         "primes_used", "elapsed_ms"}
    assert set(cert.to_json_dict(with_timing=False)) == {
        "genus", "rank", "max_possible", "is_maximal", "method", "primes_used"}


def test_invalid_policy_rejected():
    with pytest.raises(ValueError):
        certify(frac_rows([[1]]), policy="guess")


def test_reduce_mod_p_matches_field_reduction():
    m = [[Fraction(-7, 3), Fraction(0)], [Fraction(2**80 + 1, 5), Fraction(P + 2, 1)]]
    red = reduce_mod_p(m, P)
    assert red.tolist() == [[(-7 * pow(3, -1, P)) % P, 0],
                            [(2**80 + 1) * pow(5, -1, P) % P, 2]]
    assert reduce_mod_p([], P).shape == (0, 0)
    with pytest.raises(ValueError, match="differ in length"):
        reduce_mod_p([[Fraction(1), Fraction(2)], [Fraction(3)]], P)
    with pytest.raises(BadPrimeError):
        reduce_mod_p([[Fraction(1), Fraction(1, 2 * P)]], P)


@pytest.mark.parametrize("p", [2**61 - 1, 2**31, 2**30, 97, 32771 * 32779, 2**31 - 1,
                               1073741827.0, True, np.int64(FIELD_PRIMES[0])])
def test_modulus_outside_word_range_is_rejected(p):
    # exact rank 1; an int64 elimination mod 2^61 - 1 overflows and reads 2.
    # 32771 * 32779 lies in (2^30, 2^31) but is composite, and 2^31 - 1 is
    # prime but not a field prime: only FIELD_PRIMES are accepted, and only as
    # an int (a float or numpy integer equal to one is not).
    m = [[Fraction(1, 3), Fraction(1)], [Fraction(1), Fraction(3)]]
    with pytest.raises(ValueError, match="outside"):
        rank_mod_p(m, p)
    with pytest.raises(ValueError, match="outside"):
        assemble_mod_p(build_curve(5, *seeded_params(5, 0)), p)
    assert rank_mod_p(m, FIELD_PRIMES[-1]) == 1 == rank_exact(m)


@st.composite
def square_rational_matrices(draw):
    """1x1..5x5 rational matrices; about half are made singular by setting
    one row to a multiple of another row, or to zero."""
    n = draw(st.integers(1, 5))
    entry = st.fractions(min_value=-40, max_value=40, max_denominator=12)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(entry) if i != j else Fraction(0)
        rows[i] = [c * x for x in rows[j]]
    return rows


@settings(max_examples=100, deadline=None)
@given(square_rational_matrices())
def test_det_exact_matches_sympy(rows):
    want = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in rows]).det()
    got = det_exact(rows)
    assert sympy.Rational(got.numerator, got.denominator) == want
    assert (got == 0) == (rank_exact(rows) < len(rows))


@pytest.mark.parametrize("rows", [
    frac_rows([[2, -3], [Fraction(-2, 3), 1]]),
    [[Fraction(0)] * 5 if i == 3 else [Fraction(i * 5 + j + 1, j + 2) for j in range(5)]
     for i in range(5)],
], ids=["2x2-proportional-rows", "5x5-zero-row"])
def test_det_exact_of_a_singular_matrix_is_zero(rows):
    assert det_exact(rows) == 0


def test_det_exact_rejects_non_square_rows():
    with pytest.raises(ValueError, match="non-square"):
        det_exact(frac_rows([[1, 2], [3, 4], [5, 6]]))


# -- rank_exact: primitive columns, then Bareiss ----------------------

def sympy_rank(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in rows]).rank()


@st.composite
def column_scaled_matrices(draw):
    """Rational matrices of up to 6x8 whose columns are multiplied by integers
    of up to 200 bits, with zero columns, zero rows and proportional rows."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    entry = st.fractions(min_value=-40, max_value=40, max_denominator=12)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    scales = draw(st.lists(st.integers(-2**200, 2**200), min_size=ncols, max_size=ncols))
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        scales[j] = 0                                   # a zero column
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        c = draw(st.just(Fraction(0)) | entry)          # zero row, or proportional
        rows[i] = [c * x for x in rows[j]]
    return [[x * k for x, k in zip(row, scales)] for row in rows]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rank_exact_matches_sympy_on_column_scaled_matrices(data):
    # also under a column permutation, which rank_exact's column order must absorb
    rows = data.draw(column_scaled_matrices())
    order = data.draw(st.permutations(range(len(rows[0]))))
    permuted = [[row[j] for j in order] for row in rows]
    assert rank_exact(permuted) == rank_exact(rows) == sympy_rank(rows)


@pytest.mark.parametrize("genus", [7, 8, 9, 10])
def test_rank_exact_on_proportional_parameter_rows(genus):
    # a1 = 2 * a2 with a seeded rational a2: rank 4g - 14, not maximal
    a2 = seeded_params(genus, 0)[1]
    m = assemble_matrix(build_curve(genus, [2 * x for x in a2], a2))
    unscaled = rank_module._bareiss(clear_denominators(m.entries)[0])[0]
    assert rank_exact(m) == unscaled == 4 * genus - 14


@pytest.mark.parametrize("genus,rank", [(9, 27), (10, 33)])
def test_rank_exact_on_squared_parameter_rows(genus, rank):
    # a1 = a2 * a2 entrywise, with a seeded rational a2: not maximal either
    a2 = seeded_params(genus, 0)[1]
    m = assemble_matrix(build_curve(genus, [x * x for x in a2], a2))
    assert rank_exact(m) == rank < min(m.rows, m.cols)


def test_rank_exact_on_the_induction_family_curve():
    # det5 != 0 on this curve is a claim about one 5x5 block; the full
    # Gaussian map of the curve is far from its maximum of 60
    curve = family_curve(13, 2)
    m = assemble_matrix(curve)
    assert (m.rows, m.cols) == (66, 60)
    assert rank_exact(m) == rank_exact(curve) == 38 == 4 * 13 - 14


def test_rank_exact_reads_no_residue(monkeypatch):
    def refuse(*args):
        raise AssertionError("modular arithmetic on the exact path")
    monkeypatch.setattr(rank_module, "reduce_mod_p", refuse)
    monkeypatch.setattr(rank_module, "_echelon_rank", refuse)
    m = assemble_matrix(build_curve(6, *seeded_params(6, 2)))
    assert rank_exact(m) == 10
    assert certify(m, policy="exact").rank == 10


def test_rank_exact_leaves_its_input_unchanged():
    m = assemble_matrix(build_curve(7, *seeded_params(7, 4)))
    checksum = matrix_checksum(m)
    rows = [list(row) for row in m.entries]
    assert rank_exact(m) == rank_exact(rows) == 15
    assert matrix_checksum(m) == checksum
    assert rows == [list(row) for row in m.entries]


# -- _bareiss: left-looking, against the right-looking reference -------

def right_looking_bareiss(rows):
    """Reference: the right-looking elimination `_bareiss` replaced.  Each
    step updates every column to the right of the pivot, in every row
    below it; the result is (rank, last pivot, sign of the row swaps)."""
    work = [list(row) for row in rows if any(row)]
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
                row[c:] = [x * pv // prev for x in row[c:]]
        prev = pv
        rank += 1
        if rank == nrows:
            break
    return rank, prev, sign


@st.composite
def integer_matrices(draw):
    """1..8 x 1..10 integer matrices with entries of up to 200 bits, and zero,
    duplicate and proportional rows and columns."""
    nrows, ncols = draw(st.integers(1, 8)), draw(st.integers(1, 10))
    bits = draw(st.sampled_from([2, 8, 64, 200]))
    entry = st.integers(-2**bits, 2**bits) | st.just(0)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    factor = st.integers(-2**bits, 2**bits)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        k = draw(st.sampled_from([0, 1]) | factor)      # zero, duplicate, proportional
        rows[i] = [k * x for x in rows[j]]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, ncols - 1)), draw(st.integers(0, ncols - 1))
        k = draw(st.sampled_from([0, 1]) | factor)
        for row in rows:
            row[i] = k * row[j]
    return rows


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_bareiss_matches_the_right_looking_reference(rows):
    before = [list(row) for row in rows]
    assert rank_module._bareiss(rows) == right_looking_bareiss(rows)
    assert rows == before


class Untouchable(int):
    """An int that raises on arithmetic: marks entries that must not be used."""

    def _refuse(self, *args):
        raise AssertionError(f"arithmetic on an entry after the last pivot ({int(self)})")

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _refuse
    __floordiv__ = __rfloordiv__ = __neg__ = __abs__ = __pow__ = __mod__ = _refuse


def test_bareiss_stops_at_the_last_pivot():
    head = [[2, 1, 3], [1, 5, 7], [4, 1, 1]]
    rows = [row + [Untouchable(9), Untouchable(-4)] for row in head]
    with pytest.raises(AssertionError, match="after the last pivot"):
        rows[0][3] * 2
    rank, pivot, sign = rank_module._bareiss(rows)
    assert (rank, sign * pivot) == (3, -34)             # full row rank; det of the head
    assert (rank, pivot, sign) == right_looking_bareiss([row + [9, -4] for row in head])


# -- the modular elimination kernel -------------------------------------

def reference_rank_mod_p(rows, p):
    """Independent oracle: plain Gaussian elimination over Z/p, row by row."""
    m = [[x % p for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    rank = 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, p)
        for r in range(rank + 1, len(m)):
            f = m[r][c] * inv % p
            if f:
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def kernel_rank(rows, p=P):
    return rank_module._echelon_rank(np.array(rows, dtype=np.int64), p)


residues = st.just(0) | st.just(1) | st.just(P - 1) | st.integers(0, P - 1)


@st.composite
def residue_arrays(draw):
    """Tall, square and wide arrays of residues mod P, zeros favoured."""
    nrows, ncols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    return draw(st.lists(st.lists(residues, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))


def products(nrows, ncols, r):
    """U.V mod P for random U (nrows x r) and V (r x ncols): rank at most r."""
    def mul(u, v):
        return [[sum(row[t] * v[t][j] for t in range(r)) % P for j in range(ncols)]
                for row in u]
    return st.builds(
        mul,
        st.lists(st.lists(residues, min_size=r, max_size=r), min_size=nrows, max_size=nrows),
        st.lists(st.lists(residues, min_size=ncols, max_size=ncols), min_size=r, max_size=r))


@st.composite
def low_rank_products(draw):
    nrows, ncols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    return draw(products(nrows, ncols, draw(st.integers(0, min(nrows, ncols)))))


@st.composite
def deficient_prefix_arrays(draw):
    """Tall arrays of full column rank whose first ncols rows are deficient:
    a square prefix of rank at most ncols - 1, then random rows and the unit
    rows in a drawn order."""
    ncols = draw(st.integers(1, 8))
    prefix = draw(products(ncols, ncols, ncols - 1))
    extra = draw(st.lists(st.lists(residues, min_size=ncols, max_size=ncols), max_size=4))
    units = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    return prefix + draw(st.permutations(extra + units))


@settings(max_examples=300, deadline=None)
@given(residue_arrays() | low_rank_products() | deficient_prefix_arrays())
def test_echelon_rank_matches_the_reference(rows):
    assert kernel_rank(rows) == reference_rank_mod_p(rows, P)


@settings(max_examples=200, deadline=None)
@given(residue_arrays() | deficient_prefix_arrays())
def test_rank_mod_p_of_rows_matches_the_reference(rows):
    # rows are reduced whole, then eliminated in blocks of ncols rows
    assert rank_mod_p(rows, P) == reference_rank_mod_p(rows, P)


@st.composite
def multi_block_arrays(draw):
    """Arrays of more than 2 ncols rows, so that rank_mod_p runs three or
    more blocks of ncols rows, whose first one or two blocks are jointly
    deficient: of rank at most ncols - 1 throughout, or reaching full rank
    in a middle block (a permuted identity block, then at least one row)."""
    ncols = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return draw(products(draw(st.integers(2 * ncols + 1, 4 * ncols)), ncols, ncols - 1))
    head_blocks = draw(st.integers(1, 2))
    head = draw(products(head_blocks * ncols, ncols, ncols - 1))
    units = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    tail = draw(st.lists(st.lists(residues, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=(3 - head_blocks) * ncols))
    return head + draw(st.permutations(units)) + tail


@settings(max_examples=200, deadline=None)
@given(multi_block_arrays())
def test_rank_mod_p_continues_over_row_blocks(rows):
    assert rank_mod_p(rows, P) == reference_rank_mod_p(rows, P)


def spy_assemble_mod_p(monkeypatch):
    """Record the row range of every block rank_mod_p builds."""
    built = []

    def spy(curve, p, rows=slice(None)):
        built.append(rows)
        return assemble_mod_p(curve, p, rows)
    monkeypatch.setattr(rank_module, "assemble_mod_p", spy)
    return built


@pytest.mark.parametrize("genus", [13, 16, 40])
def test_rank_mod_p_builds_the_whole_image_after_a_deficient_prefix(monkeypatch, genus):
    # a1 = 2*a2 has rank 4g - 14, as Bareiss reads it above at g = 7..12 and on
    # the g = 13 induction family curve (also a1 = 2*a2).  Its rank stays below
    # ncols, so every block is built: consecutive ranges of at most ncols rows
    # from row 0 (four at g = 40), each row once.
    built = spy_assemble_mod_p(monkeypatch)
    a2 = seeded_params(genus, 0)[1]
    curve = build_curve(genus, [2 * x for x in a2], a2)
    nrows, ncols = matrix_shape(genus)
    for p in FIELD_PRIMES[:3]:
        assert rank_mod_p(curve, p) == 4 * genus - 14
        assert built == [slice(start, start + ncols) for start in range(0, nrows, ncols)]
        lengths = [len(range(nrows)[rows]) for rows in built]
        assert max(lengths) <= ncols and sum(lengths) == nrows
        built.clear()


@pytest.mark.parametrize("genus,seed", [(13, 0), (21, 1), (40, 2)])
def test_rank_mod_p_builds_only_the_prefix_of_a_maximal_curve(monkeypatch, genus, seed):
    built = spy_assemble_mod_p(monkeypatch)
    ncols = matrix_shape(genus)[1]
    assert rank_mod_p(build_curve(genus, *seeded_params(genus, seed)), P) == ncols
    assert built == [slice(0, ncols)]


def test_echelon_rank_deficient_prefix_example():
    # the first three rows have rank 2 (row 2 is twice row 1); the fourth
    # row completes the rank
    rows = [[1, 0, 0], [2, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert kernel_rank(rows[:3]) == 2
    assert kernel_rank(rows) == reference_rank_mod_p(rows, P) == 3


# -- modular-first certification of curves -----------------------------

def ranks_mod_p(source):
    """rank_mod_p at the first three primes, None where the prime is bad."""
    ranks = []
    for p in FIELD_PRIMES[:3]:
        try:
            ranks.append(rank_mod_p(source, p))
        except BadPrimeError:
            ranks.append(None)
    return ranks


def same_certificate(curve, **kwargs):
    matrix = assemble_matrix(curve)
    from_curve = certify(curve, **kwargs).to_json_dict(with_timing=False)
    from_matrix = certify(matrix, **kwargs).to_json_dict(with_timing=False)
    assert from_curve == from_matrix
    assert ranks_mod_p(curve) == ranks_mod_p(matrix)
    return from_curve


def refuse_rational_matrix(monkeypatch):
    """Make gaussmap.assemble_matrix raise, under every name a prymgauss
    module binds it to, so that no route can build the rational matrix."""
    def refuse(*args):
        raise AssertionError("rational matrix assembled")
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "prymgauss" and hasattr(module, "assemble_matrix"):
            monkeypatch.setattr(module, "assemble_matrix", refuse)
    assert gaussmap.assemble_matrix is refuse


@pytest.mark.parametrize("genus,seed", [
    (3, 1), (4, 0), (5, 2), (6, 4), (7, 3), (8, 6), (9, 7), (10, 8), (11, 5), (12, 1),
    (13, 2), (14, 3), (15, 4), (16, 9), (17, 5), (18, 6), (19, 7), (20, 8), (21, 9)])
def test_certify_curve_equals_certify_matrix(genus, seed):
    a1, a2 = seeded_params(genus, seed)
    for convention in ("paper", "script"):
        curve = build_curve(genus, a1, a2, convention)
        cert = same_certificate(curve, seed=seed)
        assert cert["method"] == "modular" and cert["is_maximal"]
        if genus <= 10:
            assert rank_exact(curve) == rank_exact(assemble_matrix(curve)) == cert["rank"]


def test_certify_curve_skips_a_prime_at_which_its_data_does_not_reduce():
    # a1_1 has denominator P: neither the curve's data nor its rational
    # matrix reduces mod P, so both skip P and certify at the next prime.
    curve = build_curve(5, [Fraction(1, P), 2, 3, 4], [5, -7, Fraction(1, 2), 9])
    with pytest.raises(BadPrimeError):
        rank_mod_p(curve, P)
    with pytest.raises(BadPrimeError):
        rank_mod_p(assemble_matrix(curve), P)
    cert = same_certificate(curve, seed=0)
    assert cert["primes_used"] == [FIELD_PRIMES[1]]


def test_certify_curve_skips_a_prime_at_which_only_its_matrix_reduces():
    # a2_1 = 3/P: the curve's data does not reduce mod P, but no entry of the
    # rational matrix has P in its denominator.  The curve skips P, as at any
    # bad prime, and its matrix certifies at P: the one input class where
    # the two certificates differ, in primes_used only.
    curve = build_curve(3, [1, 2], [Fraction(3, P), 5])
    matrix = assemble_matrix(curve)
    with pytest.raises(BadPrimeError):
        assemble_mod_p(curve, P)
    with pytest.raises(BadPrimeError):
        rank_mod_p(curve, P)
    assert rank_mod_p(matrix, P) == 1
    from_curve = certify(curve, seed=0).to_json_dict(with_timing=False)
    from_matrix = certify(matrix, seed=0).to_json_dict(with_timing=False)
    assert from_curve["primes_used"] == [FIELD_PRIMES[1]] and from_matrix["primes_used"] == [P]
    assert {**from_curve, "primes_used": [P]} == from_matrix
    assert from_matrix["rank"] == 1 and from_matrix["is_maximal"] and from_matrix["method"] == "modular"


@settings(max_examples=40, deadline=None)
@given(genus=st.integers(3, 9), seed=st.integers(0, 10**6), row=st.sampled_from(["a1", "a2"]),
       convention=st.sampled_from(["paper", "script"]),
       part=st.sampled_from(["numerator", "denominator"]), data=st.data())
def test_certify_curve_with_a_planted_prime(genus, seed, row, convention, part, data):
    # one parameter gets the factor P: the curve's data may then fail to
    # reduce mod P, and certify must skip P without building the matrix
    rows = dict(zip(("a1", "a2"), seeded_params(genus, seed)))
    idx = data.draw(st.integers(0, genus - 2))
    x = rows[row][idx]
    x = Fraction(x.numerator * P, x.denominator) if part == "numerator" \
        else Fraction(x.numerator, x.denominator * P)
    rows[row] = rows[row][:idx] + (x,) + rows[row][idx + 1:]
    curve = build_curve(genus, rows["a1"], rows["a2"], convention)
    from_matrix = certify(assemble_matrix(curve))
    with pytest.MonkeyPatch.context() as mp:
        refuse_rational_matrix(mp)
        cert = certify(curve)
        assert cert.rank == rank_exact(curve)
    assert (cert.rank, cert.is_maximal) == (from_matrix.rank, from_matrix.is_maximal)
    for p in cert.primes_used:
        assemble_mod_p(curve, p)            # BadPrimeError at a bad prime


@pytest.mark.parametrize("to_matrix", [False, True])
def test_certificate_without_a_good_prime_reads_bareiss(to_matrix):
    # a1_1 = 1/(product of FIELD_PRIMES): every prime is bad, so no modular
    # rank runs and the fast certificate is the exact one
    curve = build_curve(5, [Fraction(1, math.prod(FIELD_PRIMES)), 2, 3, 4],
                        [5, -7, Fraction(1, 2), 9])
    source = assemble_matrix(curve) if to_matrix else curve
    fast = certify(source).to_json_dict(with_timing=False)
    assert fast == certify(source, policy="exact").to_json_dict(with_timing=False)
    assert fast["method"] == "bareiss" and fast["primes_used"] == []
    assert fast["rank"] == 6 and fast["is_maximal"]


def test_certify_curve_lazy_bareiss_fallback():
    # a1 = 2*a2 puts the curve in special position: no modular rank is
    # maximal, so all three primes are tried before Bareiss runs
    _, a2 = seeded_params(7, 0)
    cert = same_certificate(build_curve(7, [2 * x for x in a2], a2))
    assert cert["method"] == "both" and len(cert["primes_used"]) == 3
    assert cert["rank"] == 14 and cert["max_possible"] == 15 and not cert["is_maximal"]


def test_certify_curve_exact_policy():
    a1, a2 = seeded_params(6, 2)
    cert = same_certificate(build_curve(6, a1, a2, "script"), policy="exact")
    assert cert["method"] == "bareiss" and cert["rank"] == 10


def test_certify_curve_builds_no_rational_matrix_on_the_modular_route(monkeypatch):
    refuse_rational_matrix(monkeypatch)
    a1, a2 = seeded_params(14, 1)
    cert = certify(build_curve(14, a1, a2), seed=1)
    assert cert.method == "modular" and cert.rank == 65 and cert.genus == 14


def _special_strata():
    for genus in range(7, 12):
        a2 = seeded_params(genus, 0)[1]
        yield pytest.param(build_curve(genus, [2 * x for x in a2], a2), 4 * genus - 14,
                           id=f"twice-g{genus}")
    for genus, rank in ((9, 27), (10, 33)):
        a2 = seeded_params(genus, 0)[1]
        yield pytest.param(build_curve(genus, [x * x for x in a2], a2), rank,
                           id=f"squared-g{genus}")
    yield pytest.param(family_curve(13, 2), 38, id="family-g13")


@pytest.mark.parametrize("curve,rank", _special_strata())
def test_certify_curve_equals_certify_matrix_on_special_strata(curve, rank):
    # Bareiss on the cleared integer rows against Bareiss on the rational
    # matrix: the same rank, method and primes under both policies
    fast = same_certificate(curve)
    assert fast["rank"] == rank and fast["method"] == "both" and len(fast["primes_used"]) == 3
    exact = same_certificate(curve, policy="exact")
    assert exact["rank"] == rank and exact["method"] == "bareiss" and exact["primes_used"] == []
    assert rank_exact(curve) == rank


@pytest.mark.parametrize("genus", [11, 12])
def test_certify_curve_on_proportional_parameter_rows(genus):
    a2 = seeded_params(genus, 0)[1]
    cert = certify(build_curve(genus, [2 * x for x in a2], a2))
    assert cert.rank == 4 * genus - 14 and not cert.is_maximal
    assert cert.method == "both" and cert.primes_used == FIELD_PRIMES[:3]


def test_certify_curve_exact_policy_builds_no_rational_matrix_and_no_residue(monkeypatch):
    # nor clears the curve's integer rows again
    def refuse(*args):
        raise AssertionError("residues or clearing on the exact route")
    for name in ("reduce_mod_p", "_echelon_rank", "clear_denominators"):
        monkeypatch.setattr(rank_module, name, refuse)
    refuse_rational_matrix(monkeypatch)
    cert = certify(build_curve(8, *seeded_params(8, 2)), policy="exact")
    assert cert.method == "bareiss" and cert.rank == 21 and cert.is_maximal
    # 55x55 of full rank: every row and column of the cleared matrix counts
    cert = certify(build_curve(12, *builtin_params(12)), policy="exact")
    assert cert.method == "bareiss" and cert.rank == 55 and cert.is_maximal


def test_certify_curve_builds_no_rational_matrix_on_the_fallback(monkeypatch):
    refuse_rational_matrix(monkeypatch)
    _, a2 = seeded_params(8, 0)
    cert = certify(build_curve(8, [2 * x for x in a2], a2))
    assert cert.method == "both" and cert.rank == 18 and len(cert.primes_used) == 3
    # nor at a bad prime: with a2_1 = 1/P, the curve's data does not reduce
    # mod P, which is skipped
    a2 = (Fraction(1, P), *a2[1:])
    cert = certify(build_curve(8, [2 * x for x in a2], a2))
    assert cert.method == "both" and cert.rank == 18
    assert cert.primes_used == FIELD_PRIMES[1:4]


def test_certify_calls_rank_mod_p_once_per_prime_tried(monkeypatch):
    # Each prime certify tries on a curve is one rank_mod_p call, a skipped
    # bad prime included, and the Bareiss step is one rank_exact call, so
    # spans around the two count the curve route's work.
    calls = []

    def spy(name):
        original = getattr(rank_module, name)

        def wrapped(source, *args):
            calls.append((name, type(source).__name__, *args))
            return original(source, *args)
        monkeypatch.setattr(rank_module, name, wrapped)
    spy("rank_mod_p")
    spy("rank_exact")
    bad = build_curve(5, [Fraction(1, P), 2, 3, 4], [5, -7, Fraction(1, 2), 9])
    assert certify(bad, seed=0).primes_used == (FIELD_PRIMES[1],)
    assert calls == [("rank_mod_p", "PrymBinaryCurve", P),
                     ("rank_mod_p", "PrymBinaryCurve", FIELD_PRIMES[1])]
    calls.clear()
    _, a2 = seeded_params(7, 0)
    assert certify(build_curve(7, [2 * x for x in a2], a2)).method == "both"
    assert calls == [("rank_mod_p", "PrymBinaryCurve", p) for p in FIELD_PRIMES[:3]] + \
        [("rank_exact", "PrymBinaryCurve")]
