"""induction-verifier: 5x5 blocks, reference matrices, tau closed forms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prymgauss import (assemble_matrix, build_curve, build_induction_submatrix,
                       check_scaled_matrix, check_tau_closed_form, family_curve, induction_sweep,
                       selected_pairs, tau_closed_form, verify_det5)
from prymgauss.induction import reference_matrix
from prymgauss import curves, gaussmap
from prymgauss import induction as induction_module
from prymgauss.curves import projection_node_index
from prymgauss.rank import det_exact
from sympy_reference import Reference, evaluate


def value(coeffs, x):
    """Value at x of the polynomial with ascending coefficients `coeffs`."""
    return sum(c * x ** d for d, c in enumerate(coeffs))


def derivative(coeffs):
    return [d * c for d, c in enumerate(coeffs)][1:]


def assembled_tau(curve, i, j, h):
    """The torsion entry of (i, j) at the interior node P_h of the assembled matrix."""
    m = assemble_matrix(curve)
    return m.entries[m.pairs.index((i, j))][m.layout["tau_interior"][0] + h - 1]


def test_selected_pairs_even():
    assert selected_pairs(14) == ((1, 7), (2, 7), (7, 12), (7, 13), (6, 8))


def test_selected_pairs_odd():
    assert selected_pairs(13) == ((2, 7), (3, 7), (7, 11), (7, 12), (5, 8))


@pytest.mark.parametrize("bad_a", [0, 1, "0", "1"])
def test_family_parameter_restrictions(bad_a):
    with pytest.raises(ValueError):
        family_curve(14, bad_a)


def test_family_genus_floor():
    with pytest.raises(ValueError):
        family_curve(12, 2)


def test_family_curve_parameters():
    c = family_curve(13, Fraction(-5, 7))
    assert c.a1 == tuple(Fraction(-5 * i, 7) for i in range(1, 13))
    assert c.a2 == tuple(Fraction(i) for i in range(1, 13))
    assert c.convention == "paper"


family_values = st.one_of(st.integers(-10**4, 10**4),
                          st.fractions(min_value=-10**3, max_value=10**3, max_denominator=97)
                          ).filter(lambda a: a not in (0, 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(13, 60), family_values)
def test_family_rows_pass_the_validator(g, a):
    # family_curve builds its rows without build_curve; they must be ones it accepts
    c = family_curve(g, a)
    checked = build_curve(g, c.a1, c.a2)
    assert (checked.a1, checked.a2, checked.convention) == (c.a1, c.a2, c.convention)


def test_family_curve_does_not_revalidate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("build_curve called")
    monkeypatch.setattr(curves, "build_curve", refuse)
    monkeypatch.setattr(induction_module, "build_curve", refuse, raising=False)
    assert verify_det5(13, Fraction(-5, 7)).ok


def test_submatrix_last_column_nu_entries_vanish():
    # the fifth pair avoids the projection index, so its nu rows are zero
    for g in (13, 14):
        block = build_induction_submatrix(g, 2)
        assert all(block[p][4] == 0 for p in range(4))
        assert block[4][4] != 0


def test_submatrix_rows_match_assembled_matrix():
    # no independent nu formulas: entries equal evaluations of the
    # assembled matrix blocks on the same curve
    g = 13
    curve = family_curve(g, 2)
    block = build_induction_submatrix(g, 2)
    m = assemble_matrix(curve)
    r = projection_node_index(g)
    pt1 = curve.params(1)[r - 1]
    pt2 = curve.params(2)[r - 1]
    layout = m.layout
    for q, pair in enumerate(selected_pairs(g)):
        row = m.entries[m.pairs.index(pair)]
        nu1 = row[slice(*layout["nu1"])]
        nu2 = row[slice(*layout["nu2"])]
        assert block[0][q] == value(nu1, pt1)
        assert block[1][q] == value(derivative(nu1), pt1)
        assert block[2][q] == value(nu2, pt2)
        assert block[3][q] == value(derivative(nu2), pt2)
        assert block[4][q] == row[layout["tau_interior"][0] + r - 1]


@pytest.mark.parametrize("g,a", [(13, 2), (14, 2), (15, 3), (16, Fraction(-5, 7))])
def test_det5_nonzero(g, a):
    report = verify_det5(g, a)
    assert report.det5_nonzero and report.det5 != 0
    assert report.selected_columns == selected_pairs(g)
    assert report.node_index == projection_node_index(g)


def test_even_reference_row1():
    assert reference_matrix(14)[0] == (-35, -42, -72, -65)


def test_odd_reference_row1():
    assert reference_matrix(13)[0] == (-35, -28, -4, -5)


def test_reference_determinants_nonzero_sweep():
    for k in range(6, 51):
        for ref in (reference_matrix(2 * k), reference_matrix(2 * k + 1)):
            rows = [[Fraction(x) for x in row] for row in ref]
            assert det_exact(rows) != 0, (k, ref)


@pytest.mark.parametrize("g,a", [(13, 2), (14, 2), (17, 3), (18, Fraction(-5, 7))])
def test_scaled_matrix_diagnostic(g, a):
    assert check_scaled_matrix(build_induction_submatrix(g, a), g) is True


def test_scaling_test_detects_mismatch():
    block = build_induction_submatrix(14, 2)
    from prymgauss.induction import _scaling_match
    target = [list(row) for row in reference_matrix(14)]
    target[2][3] += 1
    computed = [row[:4] for row in block[:4]]
    assert _scaling_match(computed, target) is False


# A 4x4 target with an interior zero, and its rescaling by row scalars R
# and column scalars C (computed * R[p] * C[q] == target).
SCALING_TARGET = ((1, 2, 3, 4), (5, 0, 7, 8), (9, 10, 11, 12), (13, 14, 15, 16))
R = (Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 2))
C = (Fraction(3), Fraction(1, 5), Fraction(1), Fraction(-2))


def scaling_case(computed_cells=(), target_cells=()):
    """(computed, target) for the scaled block with the given cells overridden."""
    target = [list(row) for row in SCALING_TARGET]
    computed = [[Fraction(x) / (R[p] * C[q]) for q, x in enumerate(row)]
                for p, row in enumerate(SCALING_TARGET)]
    for (p, q), x in computed_cells:
        computed[p][q] = Fraction(x)
    for (p, q), x in target_cells:
        target[p][q] = x
    return computed, target


@pytest.mark.parametrize("computed,target,want", [
    (*scaling_case(computed_cells=[((2, 3), 0)]), False),
    (*scaling_case(computed_cells=[((1, 1), 1)]), False),
    (*scaling_case(computed_cells=[((0, 2), 0)], target_cells=[((0, 2), 0)]), None),
    (*scaling_case(computed_cells=[((3, 0), 0)], target_cells=[((3, 0), 0)]), None),
    (*scaling_case(), True),
    (*scaling_case(computed_cells=[((2, 3), 7)]), False),
], ids=["computed-zero-target-not", "target-zero-computed-not", "zero-in-first-row",
        "zero-in-first-column", "scaled-with-interior-zero", "one-cell-changed"])
def test_scaling_match_outcomes(computed, target, want):
    from prymgauss.induction import _scaling_match
    assert _scaling_match(computed, target) is want


def gauge_scaling_match(computed, target):
    """Reference for `_scaling_match`: the same False and None branches, then
    the scalars solved from the first row and column (gauge r_0 = 1) and
    checked on every cell, in Fractions."""
    n = len(target)
    cells = [(p, q) for p in range(n) for q in range(n)]
    if any((computed[p][q] == 0) != (target[p][q] == 0) for p, q in cells):
        return False
    if 0 in computed[0] or any(row[0] == 0 for row in computed):
        return None
    col_scale = [Fraction(target[0][q]) / computed[0][q] for q in range(n)]
    row_scale = [Fraction(target[p][0]) / (computed[p][0] * col_scale[0]) for p in range(n)]
    return all(computed[p][q] * row_scale[p] * col_scale[q] == target[p][q] for p, q in cells)


small = st.integers(-6, 6)
nonzero_fractions = st.builds(Fraction, small.filter(bool), st.integers(1, 6))


@st.composite
def scaling_cases(draw):
    """(computed, target) 4x4 pairs with zeros: random, or computed the target
    divided by planted row and column scalars, with up to two cells changed."""
    target = draw(st.lists(st.lists(small, min_size=4, max_size=4), min_size=4, max_size=4))
    if draw(st.booleans()):
        cell = st.builds(Fraction, small, st.integers(1, 6))
        computed = draw(st.lists(st.lists(cell, min_size=4, max_size=4), min_size=4, max_size=4))
    else:
        rows = draw(st.lists(nonzero_fractions, min_size=4, max_size=4))
        cols = draw(st.lists(nonzero_fractions, min_size=4, max_size=4))
        computed = [[x / (rows[p] * cols[q]) for q, x in enumerate(row)]
                    for p, row in enumerate(target)]
        for _ in range(draw(st.integers(0, 2))):
            p, q = draw(st.integers(0, 3)), draw(st.integers(0, 3))
            computed[p][q] = draw(st.builds(Fraction, small, st.integers(1, 6)))
    return computed, target


@settings(max_examples=500, deadline=None)
@given(scaling_cases())
def test_scaling_match_equals_the_gauge_solve(case):
    from prymgauss.induction import _scaling_match
    computed, target = case
    assert _scaling_match(computed, target) is gauge_scaling_match(computed, target)


@pytest.mark.parametrize("a", [2, 3, Fraction(-5, 7), Fraction(9, 2), -1, Fraction(11, 3)])
def test_scaling_match_equals_the_gauge_solve_on_family_blocks(a):
    from prymgauss.induction import _scaling_match
    for g in (*range(13, 61), 100, 101):
        computed = [row[:4] for row in build_induction_submatrix(g, a)[:4]]
        target = reference_matrix(g)
        assert _scaling_match(computed, target) is gauge_scaling_match(computed, target), g


@pytest.mark.parametrize("g,a", [(13, 2), (14, 2), (19, 3), (20, Fraction(-5, 7))])
def test_tau_closed_form_matches(g, a):
    assert check_tau_closed_form(build_induction_submatrix(g, a), tau_closed_form(g, a))


def test_tau_closed_form_value_even():
    # g = 14, k = 7, a = 2: magnitude 2*7*8 * 2^12 / 13! * prod of squares;
    # the sign depends on the torsion-order convention, checked separately.
    g, k, a = 14, 7, 2
    a2_product = 1
    for i in range(1, g):
        a2_product *= i
    prod = 1
    for l in range(1, g):
        if l not in (k - 1, k, k + 1):
            prod *= (k - l) ** 2
    displayed_magnitude = Fraction(2 * k * (k + 1) * a ** (g - 2), a2_product) * prod
    curve = family_curve(g, a)
    tau = assembled_tau(curve, k - 1, k + 1, k)
    assert abs(tau) == displayed_magnitude
    assert tau == tau_closed_form(g, a) == -displayed_magnitude


def test_tau_closed_form_value_odd():
    g, k, a = 13, 6, 2
    a2_product = 1
    for i in range(1, g):
        a2_product *= i
    prod = 1
    for l in range(1, g):
        if l not in (k - 1, k + 1, k + 2):
            prod *= (k + 1 - l) ** 2
    displayed = Fraction(-4 * (k + 1) * (k + 2) * a ** (g - 2), a2_product) * prod
    curve = family_curve(g, a)
    assert assembled_tau(curve, k - 1, k + 2, k + 1) == displayed == tau_closed_form(g, a)


def test_display_sign_diagnostic():
    assert verify_det5(14, 2).tau_sign_matches_display is False   # even parity
    assert verify_det5(13, 2).tau_sign_matches_display is True    # odd parity


def test_sweep_is_ordered_and_complete():
    reports = induction_sweep(13, 16, [3, 2])
    keys = [(r.genus, r.a) for r in reports]
    assert keys == sorted(keys)
    assert len(reports) == 4 * 2
    assert all(r.det5_nonzero for r in reports)


def test_report_json_shape():
    data = verify_det5(13, 2).to_json_dict()
    assert set(data) == {"genus", "parity", "a", "node_index", "selected_columns",
                         "det5", "det5_nonzero", "scaled4x4_matches",
                         "tau_closed_form_matches", "tau_sign_matches_display"}
    assert data["parity"] == "odd"
    assert data["a"] == "2"


@pytest.mark.parametrize("a", [2, 3, Fraction(-5, 7), Fraction(9, 2)])
def test_jet_block_equals_wronskian_oracle(a):
    # the block is built from alpha jets; the Wronskians of the sympy
    # coordinates, their derivatives and its tau on the same curve must give
    # the same entries exactly
    for g in range(13, 41):
        curve = family_curve(g, a)
        ref = Reference(curve)
        block = build_induction_submatrix(g, a)
        r = projection_node_index(g)
        pt1, pt2 = curve.params(1)[r - 1], curve.params(2)[r - 1]
        for q, (i, j) in enumerate(selected_pairs(g)):
            (nu1, den1), (nu2, den2) = ref.nu(i, j, 1), ref.nu(i, j, 2)
            expected = (evaluate(nu1, pt1) / den1, evaluate(nu1.diff(), pt1) / den1,
                        evaluate(nu2, pt2) / den2, evaluate(nu2.diff(), pt2) / den2,
                        ref.tau(i, j, r))
            assert tuple(block[p][q] for p in range(5)) == expected, (g, a, (i, j))


def test_verify_det5_builds_no_polynomial(monkeypatch):
    # the block comes from alpha jets, never from the cleared coordinates
    def refuse(*args, **kwargs):
        raise AssertionError("polynomial built")
    monkeypatch.setattr(curves, "_cleared_alphas", refuse)
    monkeypatch.setattr(gaussmap, "_cleared_alphas", refuse)
    for g in (13, 14, 100):
        report = verify_det5(g, Fraction(-5, 7))
        assert report.ok and report.scaled4x4_matches is True


def test_verify_det5_makes_one_jet_pass_on_component_2(monkeypatch):
    # component 1's rows are component 2's rescaled by powers of a
    calls = []
    alpha_jets = curves.PrymBinaryCurve.alpha_jets

    def spy(self, eps, x, indices):
        calls.append((eps, x))
        return alpha_jets(self, eps, x, indices)
    monkeypatch.setattr(curves.PrymBinaryCurve, "alpha_jets", spy)
    for g, a in ((13, 2), (14, Fraction(-5, 7)), (41, Fraction(9, 2)), (100, -1)):
        calls.clear()
        assert verify_det5(g, a).ok
        assert calls == [(2, projection_node_index(g))], (g, a)


def test_inconclusive_diagnostic_is_reported_once_as_none(monkeypatch):
    calls = []

    def inconclusive(block, genus):
        calls.append((block, genus))
        return None
    monkeypatch.setattr(induction_module, "check_scaled_matrix", inconclusive)
    report = verify_det5(14, 2)
    assert report.scaled4x4_matches is None
    assert report.to_json_dict()["scaled4x4_matches"] is None
    assert calls == [(build_induction_submatrix(14, 2), 14)]
    assert report.ok                       # diagnostics never override det5


def test_check_tau_closed_form_reads_the_given_block():
    block = build_induction_submatrix(14, 2)
    assert check_tau_closed_form(block, tau_closed_form(14, 2))
    entries = [list(row) for row in block]
    entries[4][4] += 1
    tampered = tuple(tuple(row) for row in entries)
    assert not check_tau_closed_form(tampered, tau_closed_form(14, 2))
