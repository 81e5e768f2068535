"""gauss-map: Wronskian blocks, closed forms, torsion values, assembly."""

import json
import random
from fractions import Fraction

import pytest

import numpy as np

from prymgauss import (BadPrimeError, FIELD_PRIMES, GaussMatrix, assemble_matrix,
                       assemble_mod_p, build_curve, builtin_params, evaluation_points,
                       family_curve, matrix_checksum, matrix_from_bytes, matrix_from_json,
                       matrix_shape, matrix_to_bytes, matrix_to_json, nu_closed_form,
                       reduce_mod_p, row_pairs, seeded_params)
from prymgauss import gaussmap
from prymgauss.curves import CONVENTIONS, _cleared_alphas
from prymgauss.exact import clear_denominators
from sympy_reference import Reference

# Frozen values below were computed with an independent symbolic
# differentiation of the embedding coordinates (rational functions), then
# substituting the node parameters.

G5_SYMMETRIC = ([1, 2, 3, 4], [2, 4, 6, 8])          # a_{i,2} = 2 a_{i,1}
G5_GENERIC = (["1", "2", "3", "4"], ["5", "-7", "1/2", "9"])


@pytest.fixture
def sym_curve():
    return build_curve(5, *G5_SYMMETRIC)


@pytest.fixture
def gen_curve():
    return build_curve(5, *G5_GENERIC)


def nu_block(matrix, row, h):
    """The stored coefficients of nu_{ij,h} for the pair of `row`, ascending."""
    start, end = matrix.layout[f"nu{h}"]
    return matrix.entries[row][start:end]


def value(coeffs, x):
    """Value at x of the polynomial with ascending coefficients `coeffs`."""
    return sum(c * x ** d for d, c in enumerate(coeffs))


def derivative(coeffs):
    return [d * c for d, c in enumerate(coeffs)][1:]


def wronskian(curve, i, j, h):
    """_wronskian of the cleared coordinates P_i, P_j of component h."""
    polys, _ = _cleared_alphas(curve, h)
    p, q = polys[i - 1], polys[j - 1]
    return gaussmap._wronskian(p, q, 2 * curve.genus - 3)


def test_wronskian_is_p_dq_minus_q_dp():
    # the paired sum against the two products, on integer lists of equal length
    rng = random.Random(0)
    for n in range(2, 14):
        p, q = ([rng.randint(-10**9, 10**9) for _ in range(n)] for _ in range(2))
        direct = [0] * (2 * n - 2)
        for a in range(n):
            for b, (dq, dp) in enumerate(zip(derivative(q), derivative(p))):
                direct[a + b] += p[a] * dq - q[a] * dp
        assert gaussmap._wronskian(p, q, 2 * n - 3) == direct[:-1] and direct[-1] == 0


def test_wronskian_of_equal_rows_is_zero(sym_curve):
    assert not any(wronskian(sym_curve, 2, 2, 1))


def test_wronskian_antisymmetry(sym_curve):
    for h in (1, 2):
        assert wronskian(sym_curve, 1, 3, h) == [-x for x in wronskian(sym_curve, 3, 1, h)]


def test_nu_34_1_closed_value(sym_curve):
    # (a_3 - a_4) a_3 a_4 / A2^2 * ((t-1)(t-2))^2 with A2 = 384:
    # ((t-1)(t-2))^2 = t^4 - 6t^3 + 13t^2 - 12t + 4
    expected = tuple(Fraction(-12, 384 ** 2) * c for c in (4, -12, 13, -6, 1, 0, 0))
    m = assemble_matrix(sym_curve)
    assert nu_block(m, m.pairs.index((3, 4)), 1) == expected
    assert nu_closed_form(sym_curve, 3, 4, 1) == expected


def test_closed_form_regimes_match_wronskian():
    for g, seeds in ((5, (0, 1)), (6, (2,)), (9, (3,)), (11, (4,))):
        for seed in seeds:
            a1, a2 = seeded_params(g, seed)
            c = build_curve(g, a1, a2, "paper")
            m = assemble_matrix(c)
            for row, (i, j) in enumerate(m.pairs):
                for h in (1, 2):
                    assert nu_closed_form(c, i, j, h) == nu_block(m, row, h), (g, seed, i, j, h)


def test_closed_form_requires_paper_convention():
    c = build_curve(5, *G5_SYMMETRIC, convention="script")
    with pytest.raises(ValueError):
        nu_closed_form(c, 1, 2, 1)


def test_closed_form_requires_ordered_pair(sym_curve):
    with pytest.raises(ValueError):
        nu_closed_form(sym_curve, 3, 3, 1)
    with pytest.raises(ValueError):
        nu_closed_form(sym_curve, 4, 2, 1)


def test_nu_degree_bounds():
    a1, a2 = seeded_params(9, 17)
    c = build_curve(9, a1, a2)
    k = c.k
    m = assemble_matrix(c)
    for row, (i, j) in enumerate(m.pairs):
        for h in (1, 2):
            nu = nu_block(m, row, h)
            degree = max(d for d, x in enumerate(nu) if x)
            assert len(nu) == 2 * 9 - 3
            if j <= k:
                assert degree == 2 * 9 - 4
            if i > k:
                assert degree <= 2 * 9 - 6


def test_nu_double_vanishing():
    a1, a2 = seeded_params(7, 8)
    c = build_curve(7, a1, a2)
    m = assemble_matrix(c)
    for h in (1, 2):
        params = c.params(h)
        nu = nu_block(m, m.pairs.index((2, 5)), h)
        for l in range(1, 7):
            if l not in (2, 5):
                assert value(nu, params[l - 1]) == 0
                assert value(derivative(nu), params[l - 1]) == 0


# -- torsion ------------------------------------------------------------

def tau(curve, i, j, h):
    """The assembled torsion entry of (i, j) at the node P_h, h = 1..g+1."""
    m = assemble_matrix(curve)
    return m.entries[m.pairs.index((i, j))][m.layout["tau_interior"][0] + h - 1]


def test_tau_interior_frozen_oracle_values(sym_curve, gen_curve):
    # symmetric curve: a_{i,2} = 2 a_{i,1} forces extra vanishing
    assert tau(sym_curve, 1, 2, 3) == 0
    assert tau(sym_curve, 2, 4, 1) == 2
    # generic curve
    assert tau(gen_curve, 1, 2, 3) == Fraction(1989, 8)
    assert tau(gen_curve, 1, 3, 2) == Fraction(-3616, 105)
    assert tau(gen_curve, 2, 4, 5) == Fraction(-92, 5)   # sentinel node P_g
    assert tau(gen_curve, 1, 4, 1) == Fraction(-148, 105)


def test_tau_infinity_frozen_oracle_values(sym_curve, gen_curve):
    assert tau(sym_curve, 2, 3, 6) == Fraction(-1, 4)
    assert tau(gen_curve, 1, 2, 6) == Fraction(-221, 2)
    assert tau(gen_curve, 2, 3, 6) == Fraction(19, 63)
    assert tau(gen_curve, 1, 4, 6) == Fraction(26, 45)


def test_tau_infinity_is_uchart_degree_one_coefficient(gen_curve):
    # uchart_i(u) = prod_{r != i} (1 - a_r u) (delta_i - c_i u), expanded by
    # sympy from the parameters; its degree-1 coefficient is the slope at u = 0
    sp = pytest.importorskip("sympy")
    u = sp.symbols("u")

    def slope(i, eps):
        delta, c = gen_curve.coeff_pair(i, eps)
        chart = sp.Rational(delta) - sp.Rational(c.numerator, c.denominator) * u
        for r, a in enumerate(gen_curve.params(eps), 1):
            if r != i:
                chart *= 1 - sp.Rational(a.numerator, a.denominator) * u
        coeff = sp.expand(chart).coeff(u, 1)
        return Fraction(int(coeff.p), int(coeff.q))
    g1 = [slope(i, 1) for i in range(1, 5)]
    g2 = [slope(i, 2) for i in range(1, 5)]
    for i, j in row_pairs(5):
        assert tau(gen_curve, i, j, 6) == g1[j - 1] * g2[i - 1] - g1[i - 1] * g2[j - 1]


def test_live_symbolic_oracle_on_seeded_curve():
    # independent route: differentiate the embedding coordinates as symbolic
    # rational functions and compare blockwise with the assembled matrix
    sp = pytest.importorskip("sympy")
    t = sp.symbols("t")
    g, seed = 6, 14
    a1, a2 = seeded_params(g, seed)
    c = build_curve(g, a1, a2, "paper")
    k = g // 2
    sa = {1: {i + 1: sp.Rational(x.numerator, x.denominator) for i, x in enumerate(a1)},
          2: {i + 1: sp.Rational(x.numerator, x.denominator) for i, x in enumerate(a2)}}
    A2 = sp.prod(list(sa[2].values()))
    M = {h: sp.prod([(t - sa[h][i]) for i in range(1, g)]) for h in (1, 2)}
    alpha = {}
    for h in (1, 2):
        for i in range(1, g):
            if i <= k:
                alpha[(i, h)] = sp.cancel(t * M[h] / (t - sa[h][i]))
            elif h == 1:
                alpha[(i, h)] = sp.cancel(sa[1][i] * M[1] / (A2 * (t - sa[1][i])))
            else:
                alpha[(i, h)] = sp.cancel(-sa[2][i] * M[2] / (A2 * (t - sa[2][i])))

    def as_sympy(coeffs):
        return sum(sp.Rational(co.numerator, co.denominator) * t ** d
                   for d, co in enumerate(coeffs))

    m = assemble_matrix(c)

    # P_{g+1}: slopes at u = 0 of the far chart u^(g-1) alpha(1/u)
    u = sp.symbols("u")
    slope = {key: sp.diff(sp.cancel(u ** (g - 1) * poly.subs(t, 1 / u)), u).subs(u, 0)
             for key, poly in alpha.items()}

    for (i, j) in ((1, 2), (2, 5), (3, 4)):
        row = m.pairs.index((i, j))
        for h in (1, 2):
            sym = sp.expand(alpha[(i, h)] * sp.diff(alpha[(j, h)], t)
                            - alpha[(j, h)] * sp.diff(alpha[(i, h)], t))
            assert sp.expand(sym - as_sympy(nu_block(m, row, h))) == 0
        for hnode in (1, 4, g):
            p1 = sa[1][hnode] if hnode < g else sp.Integer(0)
            p2 = sa[2][hnode] if hnode < g else sp.Integer(0)
            sym_tau = (sp.diff(alpha[(j, 1)], t).subs(t, p1) * sp.diff(alpha[(i, 2)], t).subs(t, p2)
                       - sp.diff(alpha[(i, 1)], t).subs(t, p1) * sp.diff(alpha[(j, 2)], t).subs(t, p2))
            mine = tau(c, i, j, hnode)
            assert sp.Rational(mine.numerator, mine.denominator) == sp.nsimplify(sym_tau)
        sym_tau = slope[(j, 1)] * slope[(i, 2)] - slope[(i, 1)] * slope[(j, 2)]
        mine = tau(c, i, j, g + 1)
        assert sp.Rational(mine.numerator, mine.denominator) == sym_tau


# -- modular image -------------------------------------------------------

def evaluation_basis(matrix, p):
    """reduce_p(M) * blockdiag(V, V, I), V[d, k] = x_k^d at the sample points."""
    g = matrix.genus
    points = evaluation_points(g)
    width = len(points)
    vander = np.array([[pow(x, d, p) for x in points] for d in range(width)], dtype=object)
    out = reduce_mod_p(matrix, p).astype(object)
    for block in (slice(0, width), slice(width, 2 * width)):
        out[:, block] = out[:, block].dot(vander) % p
    return out.astype(np.int64)


def test_evaluation_points_are_distinct():
    for g in (3, 12, 40):
        points = evaluation_points(g)
        assert len(points) == 2 * g - 3 == len(set(points))


@pytest.mark.parametrize("genus", range(3, 21))
def test_modular_image_is_reduced_matrix_in_evaluation_basis(genus):
    # Three seeds below genus 13, one above: assembling the rational oracle
    # grows like g^4.
    seeds = (genus, 100 + genus, 200 + genus) if genus <= 12 else (genus,)
    for seed in seeds:
        a1, a2 = seeded_params(genus, seed)
        for convention in ("paper", "script"):
            curve = build_curve(genus, a1, a2, convention)
            matrix = assemble_matrix(curve)
            for p in (FIELD_PRIMES[0], FIELD_PRIMES[13]):
                got = assemble_mod_p(curve, p)
                assert got.dtype == np.int64 and got.shape == matrix_shape(genus)
                assert np.array_equal(got, evaluation_basis(matrix, p)), (seed, convention, p)


def test_modular_image_with_parameters_colliding_mod_p():
    # a1_1 = p is 0 mod p (a sample point and the node P_g), and a2_1, a2_2
    # agree mod p: the product formulas divide by nothing, so they still hold.
    p = FIELD_PRIMES[2]
    for convention in ("paper", "script"):
        curve = build_curve(6, [p, 1, 2, Fraction(-3, 7), 5], [1, 1 + p, 4, 9, -2], convention)
        assert np.array_equal(assemble_mod_p(curve, p), evaluation_basis(assemble_matrix(curve), p))


@pytest.mark.parametrize("genus", range(3, 31))
def test_modular_image_prefix_is_the_first_rows_of_the_whole_image(genus):
    # a row range, prefix or not, builds exactly that slice of the whole image:
    # one row, the square prefix, the second block of rank_mod_p, the whole
    # range, an empty range and one past the end (the second block at g < 13)
    rows, cols = matrix_shape(genus)
    ranges = (slice(0, 1), slice(cols), slice(cols, 2 * cols), slice(rows), slice(None),
              slice(0, 0), slice(rows, rows + cols), slice(rows - 1, rows + cols))
    for seed in (genus, 300 + genus):
        convention = CONVENTIONS[seed % 2]
        curve = build_curve(genus, *seeded_params(genus, seed), convention)
        for p in FIELD_PRIMES[:3]:
            whole = assemble_mod_p(curve, p)
            assert whole.shape == (rows, cols)
            for rng in ranges:
                got = assemble_mod_p(curve, p, rng)
                assert got.dtype == np.int64 and got.shape == (len(range(rows)[rng]), cols)
                assert np.array_equal(got, whole[rng]), (seed, convention, p, rng)


def test_modular_image_rejects_curves_that_do_not_reduce():
    p = FIELD_PRIMES[0]
    with pytest.raises(BadPrimeError):
        assemble_mod_p(build_curve(5, [Fraction(1, p), 2, 3, 4], [5, 6, 7, 8]), p)
    # a2_4 = p makes A2 vanish mod p, so c_i = a2_i / A2 has p in its denominator
    with pytest.raises(BadPrimeError):
        assemble_mod_p(build_curve(5, [1, 2, 3, 4], [5, 6, 7, p]), p)


# -- assembly -----------------------------------------------------------

def test_matrix_shape_bookkeeping():
    assert matrix_shape(12) == (55, 55)
    assert matrix_shape(13) == (66, 60)


def test_assembled_dimensions():
    a1, a2 = seeded_params(6, 1)
    m = assemble_matrix(build_curve(6, a1, a2))
    assert (m.rows, m.cols) == matrix_shape(6) == (10, 25)
    layout = m.layout
    assert layout["nu1"] == [0, 9]
    assert layout["nu2"] == [9, 18]
    assert layout["tau_interior"] == [18, 24]
    assert layout["tau_infinity"] == 24


def test_assembled_rows_match_block_functions(gen_curve):
    # block by block against the sympy reference's nu and tau
    m = assemble_matrix(gen_curve)
    ref = Reference(gen_curve)
    width = 2 * 5 - 3
    for r, (i, j) in enumerate(m.pairs):
        row = m.entries[r]
        assert list(nu_block(m, r, 1)) == ref.nu_block(i, j, 1)
        assert list(nu_block(m, r, 2)) == ref.nu_block(i, j, 2)
        for h in range(1, 6):
            assert row[2 * width + h - 1] == ref.tau(i, j, h)
        assert row[-1] == ref.tau(i, j, 6)


def _oracle_curves():
    for conv in CONVENTIONS:
        for g in range(3, 21):
            for seed in (0, 1, 2) if g <= 12 else (0,):
                yield pytest.param(g, *seeded_params(g, seed), conv, id=f"g{g}-seed{seed}-{conv}")
        yield pytest.param(12, *builtin_params(12), conv, id=f"integer-g12-{conv}")
        a2 = seeded_params(10, 0)[1]
        yield pytest.param(10, [2 * x for x in a2], a2, conv, id=f"twice-g10-{conv}")
        a2 = seeded_params(9, 0)[1]
        yield pytest.param(9, [x * x for x in a2], a2, conv, id=f"squared-g9-{conv}")
        # Denominators sharing the factors 2, 3 and 5 within and across rows.
        yield pytest.param(8, ["1/6", "5/12", "-7/18", "1/24", "11/30", "-13/36", "5/42"],
                           ["3/4", "-5/8", "7/10", "-9/14", "11/20", "13/22", "-1/28"], conv,
                           id=f"shared-denominators-g8-{conv}")


def check_cleared_rows(curve, matrix):
    """`_cleared_rows` over its column denominators is `matrix`, entrywise,
    and differs from `clear_denominators(matrix.entries)` by a column scaling.

    One fixed denominator per column: den_1^2 on nu_1, den_2^2 on nu_2,
    den_1 den_2 (m_1 m_2)^(g-2) at an interior node whose parameters have
    denominators m_1, m_2, and den_1 den_2 at P_{g+1}.
    """
    g = curve.genus
    rows, dens = gaussmap._cleared_rows(curve)
    den1, den2 = (_cleared_alphas(curve, eps)[1] for eps in (1, 2))
    nodes = [x.denominator * y.denominator for x, y in zip(curve.a1, curve.a2)] + [1]
    width = 2 * g - 3
    assert dens == ([den1 * den1] * width + [den2 * den2] * width
                    + [den1 * den2 * m ** (g - 2) for m in nodes] + [den1 * den2])
    assert len(rows) == matrix.rows and all(len(row) == matrix.cols for row in rows)
    assert all(type(x) is int and x * e.denominator == e.numerator * d
               for row, entries in zip(rows, matrix.entries)
               for x, d, e in zip(row, dens, entries))
    # the matrix's own column clearing is the same form up to a column
    # scaling: each lcm L_c divides the fixed D_c, and N' D_c = N L_c
    ints, lcms = clear_denominators(matrix.entries)
    assert all(d % m == 0 for d, m in zip(dens, lcms, strict=True))
    assert all(y * d == x * m
               for row, cleared in zip(rows, ints, strict=True)
               for x, y, d, m in zip(row, cleared, dens, lcms, strict=True))


@pytest.mark.parametrize("genus,a1,a2,convention", list(_oracle_curves()))
def test_assembled_matrix_equals_the_entrywise_oracle(genus, a1, a2, convention):
    # a nu of too high a degree makes its row too long to compare equal
    curve = build_curve(genus, a1, a2, convention)
    matrix = assemble_matrix(curve)
    assert matrix.entries == Reference(curve).entries()
    check_cleared_rows(curve, matrix)


@pytest.mark.parametrize("a", [2, Fraction(-5, 7)])
def test_assembled_family_curve_equals_the_entrywise_oracle(a):
    curve = family_curve(13, a)
    matrix = assemble_matrix(curve)
    assert matrix.entries == Reference(curve).entries()
    check_cleared_rows(curve, matrix)


def test_assemble_matrix_rejects_a_nu_above_degree_2g_minus_4(monkeypatch):
    cleared = gaussmap._cleared_alphas

    def one_degree_too_many(curve, eps):
        polys, den = cleared(curve, eps)
        return [poly + [int(i == 0)] for i, poly in enumerate(polys)], den
    monkeypatch.setattr(gaussmap, "_cleared_alphas", one_degree_too_many)
    with pytest.raises(ValueError, match="nonzero coefficient above degree 6"):
        assemble_matrix(build_curve(5, *G5_GENERIC))


def test_assembled_nu_block_double_zero():
    a1, a2 = seeded_params(8, 9)
    c = build_curve(8, a1, a2)
    m = assemble_matrix(c)
    nu1 = nu_block(m, m.pairs.index((2, 6)), 1)
    for l in range(1, 8):
        if l not in (2, 6):
            assert value(nu1, c.a1[l - 1]) == 0
            assert value(derivative(nu1), c.a1[l - 1]) == 0


def test_golden_checksum_script_convention_g12():
    a1, a2 = builtin_params(12)
    m = assemble_matrix(build_curve(12, a1, a2, "script"))
    assert matrix_checksum(m) == \
        "d2c2ac85e4a60edd317750c5fb51b7cbac13b3d05aa1ef27f7fcc2cde035e5d2"


def test_json_roundtrip(gen_curve):
    m = assemble_matrix(gen_curve)
    again = matrix_from_json(matrix_to_json(m))
    assert again == m
    assert matrix_checksum(again) == matrix_checksum(m)


def test_binary_roundtrip():
    a1, a2 = builtin_params(6)
    m = assemble_matrix(build_curve(6, a1, a2, "script"))
    again = matrix_from_bytes(matrix_to_bytes(m))
    assert again == m


def test_binary_rejects_garbage():
    with pytest.raises(ValueError):
        matrix_from_bytes(b"NOPE" + b"\x00" * 32)


@pytest.fixture
def g5_dump(gen_curve):
    return matrix_to_bytes(assemble_matrix(gen_curve))


@pytest.mark.parametrize("keep", [4, 5, 12, 20])
def test_binary_rejects_short_header(g5_dump, keep):
    with pytest.raises(ValueError, match="truncated"):
        matrix_from_bytes(g5_dump[:keep])


@pytest.mark.parametrize("cut", [1, 3, 5])
def test_binary_rejects_truncated_cell(g5_dump, cut):
    with pytest.raises(ValueError, match="truncated"):
        matrix_from_bytes(g5_dump[:-cut])


def test_binary_rejects_trailing_bytes(g5_dump):
    with pytest.raises(ValueError, match="trailing"):
        matrix_from_bytes(g5_dump + b"0")


def test_binary_rejects_header_genus_mismatch(g5_dump):
    # genus 6 needs a 10 x 25 matrix; the header still says 6 x 20
    with pytest.raises(ValueError, match="does not match genus"):
        matrix_from_bytes(g5_dump[:5] + (6).to_bytes(4, "little") + g5_dump[9:])


def test_binary_rejects_unknown_convention_flag(g5_dump):
    with pytest.raises(ValueError, match="convention flag"):
        matrix_from_bytes(g5_dump[:9] + b"\x02" + g5_dump[10:])


def test_binary_rejects_unsupported_version(g5_dump):
    with pytest.raises(ValueError, match="unsupported matrix dump version 2"):
        matrix_from_bytes(g5_dump[:4] + b"\x02" + g5_dump[5:])


def test_json_rejects_shape_mismatch(gen_curve):
    m = assemble_matrix(gen_curve)
    short = GaussMatrix(genus=5, convention="paper", entries=m.entries[:-1])
    with pytest.raises(ValueError, match="does not match genus"):
        matrix_from_json(matrix_to_json(short))
    ragged = GaussMatrix(genus=5, convention="paper", entries=m.entries[:-1] + (m.entries[-1][:-1],))
    with pytest.raises(ValueError, match="differ in length"):
        matrix_from_json(matrix_to_json(ragged))


def test_json_checks_the_shape_before_any_cell(gen_curve):
    data = json.loads(matrix_to_json(assemble_matrix(gen_curve)))
    data["rows"][0][0] = "1/0"
    ragged = json.loads(json.dumps(data))
    ragged["rows"][-1].pop()
    with pytest.raises(ValueError, match="differ in length"):
        matrix_from_json(json.dumps(ragged))
    data["rows"].pop()
    with pytest.raises(ValueError, match="does not match genus"):
        matrix_from_json(json.dumps(data))


@pytest.mark.parametrize("text", [
    "{}",
    "[]",
    '"rows"',
    '{"convention": "paper", "rows": []}',
    '{"genus": 5, "rows": []}',
    '{"genus": 5, "convention": "paper"}',
    '{"genus": 5, "convention": "paper", "rows": 5}',
    '{"genus": 5, "convention": "paper", "rows": [5]}',
    '{"genus": 5, "convention": "paper", "rows": {"0": []}}',
])
def test_json_rejects_non_matrix_objects(text):
    with pytest.raises(ValueError):
        matrix_from_json(text)


@pytest.mark.parametrize("cell", [True, False])
def test_json_rejects_boolean_cells(gen_curve, cell):
    data = json.loads(matrix_to_json(assemble_matrix(gen_curve)))
    data["rows"][0][0] = cell
    with pytest.raises(ValueError, match="boolean"):
        matrix_from_json(json.dumps(data))


@pytest.mark.parametrize("convention", ["mystery", None, ["paper"]])
def test_json_rejects_unknown_convention(gen_curve, convention):
    data = json.loads(matrix_to_json(assemble_matrix(gen_curve)))
    data["convention"] = convention
    with pytest.raises(ValueError, match="convention"):
        matrix_from_json(json.dumps(data))
