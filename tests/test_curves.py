"""curve-model: construction, node checks, projection."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prymgauss import (ParameterError, build_curve, family_curve, node_check,
                       node_table, project_node, projection_node_index, seeded_params)
from prymgauss import curves, gaussmap
from prymgauss.curves import _cleared_alphas, _homogeneous_value
from sympy_reference import Reference, evaluate


@pytest.fixture
def g5_curve():
    # genus 5, a_{i,1} = i, a_{i,2} = 2i
    return build_curve(5, [1, 2, 3, 4], [2, 4, 6, 8])


def alpha(curve, i, eps):
    """Ascending rational coefficients of alpha(i, eps), from the cleared P_i/den."""
    polys, den = _cleared_alphas(curve, eps)
    return [Fraction(c, den) for c in polys[i - 1]]


def test_alpha_first_block(g5_curve):
    # i=1 <= k=2: t * M / (t - 1) = t(t-2)(t-3)(t-4) = t^4 - 9t^3 + 26t^2 - 24t
    assert alpha(g5_curve, 1, 1) == [0, -24, 26, -9, 1]


def test_alpha_second_block_paper(g5_curve):
    # i=3 > k: a_3 M / (A2 (t - 3)) with A2 = 2*4*6*8 = 384,
    # (t-1)(t-2)(t-4) = t^3 - 7t^2 + 14t - 8
    assert g5_curve.A2 == 384
    assert alpha(g5_curve, 3, 1) == [Fraction(3, 384) * c for c in (-8, 14, -7, 1, 0)]


def test_alpha_second_block_script():
    paper = build_curve(5, [1, 2, 3, 4], [2, 4, 6, 8], "paper")
    script = build_curve(5, [1, 2, 3, 4], [2, 4, 6, 8], "script")
    # component 1, late coordinates differ by A2^2; everything else agrees
    for i in (3, 4):
        assert alpha(script, i, 1) == [384 ** 2 * c for c in alpha(paper, i, 1)]
        assert alpha(script, i, 2) == alpha(paper, i, 2)
    for i in (1, 2):
        assert alpha(script, i, 1) == alpha(paper, i, 1)


def test_duplicate_parameter_rejected():
    with pytest.raises(ParameterError, match=r"a1\[1\] and a1\[2\]"):
        build_curve(5, [7, 7, 3, 4], [2, 4, 6, 8])


def test_zero_parameter_rejected():
    with pytest.raises(ParameterError, match=r"a2\[3\] is zero"):
        build_curve(5, [1, 2, 3, 4], [2, 4, 0, 8])


def test_wrong_length_rejected():
    with pytest.raises(ParameterError, match="4 entries"):
        build_curve(5, [1, 2, 3], [2, 4, 6, 8])


def test_genus_floor():
    with pytest.raises(ParameterError):
        build_curve(2, [1], [2])


@pytest.mark.parametrize("genus", [5.0, "5", True, Fraction(5)])
def test_genus_must_be_an_int(genus):
    # 5.0 used to build a curve that certify, node_check and assemble_matrix
    # then refused with TypeError
    with pytest.raises(ParameterError, match="genus must be an int >= 3"):
        build_curve(genus, [1, 2, 3, 4], [2, 4, 6, 8])


def test_unknown_convention_rejected():
    with pytest.raises(ParameterError):
        build_curve(5, [1, 2, 3, 4], [2, 4, 6, 8], "mystery")


def test_node_table_patterns():
    nodes = node_table(5)
    assert len(nodes) == 6
    assert nodes[1] == (0, 1, 0, 0)
    assert nodes[4] == (0, 0, 1, 1)     # P_g: zeros on the first k slots
    assert nodes[5] == (1, 1, 0, 0)     # P_{g+1}: complementary


def test_node_vectors(g5_curve):
    # interior node P_2 on component 1: only alpha_2 survives at t = 2
    vec = [_homogeneous_value(alpha(g5_curve, i, 1), 2, 1) for i in range(1, 5)]
    assert vec[0] == vec[2] == vec[3] == 0 and vec[1] != 0
    # P_g on component 2: (0, 0, 1, 1) pattern at t = 0
    vec = [alpha(g5_curve, i, 2)[0] for i in range(1, 5)]
    assert vec[0] == vec[1] == 0 and vec[2] == vec[3] != 0
    # P_{g+1}: top-degree coefficients give (1, 1, 0, 0)
    vec = [alpha(g5_curve, i, 1)[4] for i in range(1, 5)]
    assert vec == [1, 1, 0, 0]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12),
       st.integers(-50, 50), st.integers(1, 50))
def test_homogeneous_value_is_the_scaled_value(coeffs, n, m):
    x = Fraction(n, m)
    assert _homogeneous_value(coeffs, n, m) == \
        m ** (len(coeffs) - 1) * sum(c * x ** d for d, c in enumerate(coeffs))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12))
def test_homogeneous_value_at_infinity_is_the_top_coefficient(coeffs):
    # node_check evaluates P_{g+1} as the homogeneous point (1, 0)
    assert _homogeneous_value(coeffs, 1, 0) == coeffs[-1]


def test_node_check_passes_on_valid_curves(g5_curve):
    assert node_check(g5_curve) == ()
    for seed in (1, 9, 33):
        for convention in ("paper", "script"):
            a1, a2 = seeded_params(8, seed)
            assert node_check(build_curve(8, a1, a2, convention)) == ()


def test_alpha_degrees():
    for g, seed in ((6, 0), (9, 4), (12, 7)):
        a1, a2 = seeded_params(g, seed)
        c = build_curve(g, a1, a2)
        k = g // 2
        for eps in (1, 2):
            for i in range(1, g):
                expected = g - 1 if i <= k else g - 2
                coeffs = alpha(c, i, eps)
                assert len(coeffs) == g and max(d for d, x in enumerate(coeffs) if x) == expected


def test_alpha_simple_zeros():
    a1, a2 = seeded_params(7, 5)
    c = build_curve(7, a1, a2)
    for eps in (1, 2):
        params = c.params(eps)
        for i in range(1, 7):
            for l in range(1, 7):
                if l != i:
                    x = params[l - 1]
                    assert _homogeneous_value(alpha(c, i, eps), x.numerator, x.denominator) == 0


def test_projection_node_index():
    assert projection_node_index(12) == 6
    assert projection_node_index(13) == 7
    assert projection_node_index(14) == 7


def test_project_node_drops_index_r():
    a1, a2 = seeded_params(13, 2)
    c = build_curve(13, a1, a2)
    proj = project_node(c)          # r = 7
    assert proj.genus == 12
    assert len(proj.a1) == 11
    assert proj.a1 == a1[:6] + a1[7:]
    assert proj.a2 == a2[:6] + a2[7:]
    assert proj.convention == c.convention


def test_project_node_even_shift():
    a1, a2 = seeded_params(12, 3)
    c = build_curve(12, a1, a2)
    proj = project_node(c)          # r = 6
    assert proj.a1[5] == a1[6]


def test_projection_preserves_node_check():
    a1, a2 = seeded_params(10, 11)
    c = build_curve(10, a1, a2, "script")
    assert node_check(project_node(c)) == ()


def test_double_projection_closure():
    a1, a2 = seeded_params(9, 13)
    c = build_curve(9, a1, a2)
    twice = project_node(project_node(c))
    assert twice.genus == 7
    assert node_check(twice) == ()


def test_project_genus3_unsupported():
    c = build_curve(3, [1, 2], [3, 4])
    with pytest.raises(ParameterError):
        project_node(c)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 20), st.integers(0, 10**6), st.sampled_from(["paper", "script"]))
def test_projected_rows_pass_the_validator(g, seed, convention):
    # project_node builds its rows without build_curve; they must be ones it accepts
    proj = project_node(build_curve(g, *seeded_params(g, seed), convention))
    checked = build_curve(g - 1, proj.a1, proj.a2, proj.convention)
    assert (checked.a1, checked.a2, checked.convention) == (proj.a1, proj.a2, convention)


def test_project_node_does_not_revalidate(monkeypatch):
    c = build_curve(9, *seeded_params(9, 13))
    def refuse(*args, **kwargs):
        raise AssertionError("build_curve called")
    monkeypatch.setattr(curves, "build_curve", refuse)
    assert project_node(c).genus == 8


def test_build_curve_builds_no_polynomial(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("polynomial built")
    monkeypatch.setattr(curves, "_cleared_alphas", refuse)
    monkeypatch.setattr(gaussmap, "_cleared_alphas", refuse)
    a1, a2 = seeded_params(40, 2)
    curve = build_curve(40, a1, a2)
    assert curve.k == 20 and curve.A2 == math.prod(curve.a2)


def test_curve_holds_only_its_parameters():
    curve = build_curve(9, *seeded_params(9, 4), "script")
    assert set(vars(curve)) == {"genus", "convention", "a1", "a2", "k", "A2"}


def test_alpha_jet_matches_polynomial_derivatives():
    # against the sympy construction of the coordinates, in both conventions:
    # every index in one call, at every parameter, at 0 and at 3/7
    a1, a2 = seeded_params(8, 6)
    for convention in ("script", "paper"):
        curve = build_curve(8, a1, a2, convention)
        ref = Reference(curve)
        for eps in (1, 2):
            polys = {i: ref.alpha(i, eps) for i in range(1, 8)}
            for x in curve.params(eps) + (Fraction(0), Fraction(3, 7)):
                assert jet_values(curve.alpha_jets(eps, x, range(1, 8))) == {
                    i: tuple(evaluate(p, x) for p in (poly, poly.diff(), poly.diff().diff()))
                    for i, poly in polys.items()}, (convention, eps, x)


def jet_values(jets):
    """{i: (alpha, alpha', alpha'')} as Fractions from the integer jets (N, N', N'', D)."""
    assert all(type(v) is int for jet in jets.values() for v in jet)
    assert all(jet[3] > 0 for jet in jets.values())
    return {i: tuple(Fraction(n, jet[3]) for n in jet[:3]) for i, jet in jets.items()}


def fraction_jets(curve, eps, x, indices):
    """Reference for `alpha_jets`: the product rule over Fractions, one step per factor."""
    diffs = [x - root for root in curve.params(eps)]
    jets = {}
    for i in indices:
        delta, c = curve.coeff_pair(i, eps)
        q, dq, ddq = Fraction(1), Fraction(0), Fraction(0)
        for s, d in enumerate(diffs, start=1):
            if s != i:
                q, dq, ddq = q * d, dq * d + q, ddq * d + 2 * dq
        lin = delta * x - c
        jets[i] = q * lin, dq * lin + q * delta, ddq * lin + 2 * dq * delta
    return jets


def assert_jets_match(curve, eps, points):
    indices = range(1, curve.genus)
    for x in points:
        want = fraction_jets(curve, eps, x, indices)
        assert jet_values(curve.alpha_jets(eps, x, indices)) == want, (eps, x)


@st.composite
def random_curves(draw):
    """Genus 3..30, either convention, rows of distinct nonzero rationals, and
    a parameter index h."""
    g = draw(st.integers(3, 30))
    entry = st.builds(Fraction, st.integers(-900, 900).filter(bool), st.integers(1, 30))
    row = st.lists(entry, min_size=g - 1, max_size=g - 1, unique=True)
    curve = build_curve(g, draw(row), draw(row), draw(st.sampled_from(["paper", "script"])))
    return curve, draw(st.integers(1, g - 1))


@settings(max_examples=40, deadline=None)
@given(random_curves(), st.fractions(min_value=-60, max_value=60, max_denominator=30))
def test_alpha_jet_matches_fraction_recurrence(curve_and_h, x):
    # each a_h is a zero factor for i != h and the skipped factor for i = h
    curve, _ = curve_and_h
    for eps in (1, 2):
        assert_jets_match(curve, eps, curve.params(eps) + (Fraction(0), x))


@settings(max_examples=40, deadline=None)
@given(random_curves())
def test_A2_is_the_product_of_the_second_row(curve_and_h):
    curve, _ = curve_and_h
    assert curve.A2 == math.prod(curve.a2)


@pytest.mark.parametrize("a", [2, 3, Fraction(-5, 7)])
@pytest.mark.parametrize("g", [13, 14, 41, 100])
def test_alpha_jet_matches_fraction_recurrence_at_family_node(g, a):
    curve = family_curve(g, a)
    r = projection_node_index(g)
    for eps in (1, 2):
        assert_jets_match(curve, eps, [curve.params(eps)[r - 1], Fraction(0), Fraction(-11, 13)])


@pytest.mark.parametrize("a", [2, 3, Fraction(-5, 7), Fraction(9, 2), -1, Fraction(-9, 2)])
def test_family_component_1_is_component_2_rescaled(a):
    # the lemma behind the induction block: on the family, with sigma_i = +1
    # for i <= k and -1 for i > k,
    # alpha^(d)_{i,1}(a t) = sigma_i a^(g-1-d) alpha^(d)_{i,2}(t)
    a = Fraction(a)
    for g in [*range(13, 61), 100]:
        curve = family_curve(g, a)
        r = projection_node_index(g)
        indices = range(1, g)
        powers = [a ** (g - 1 - d) for d in range(3)]
        for t in (curve.a2[r - 1], Fraction(-11, 13)):
            one, two = curve.alpha_jets(1, a * t, indices), curve.alpha_jets(2, t, indices)
            for i in indices:
                sigma = 1 if i <= g // 2 else -1
                *n1, d1 = one[i]
                *n2, d2 = two[i]
                for d in range(3):
                    want = sigma * powers[d] * Fraction(n2[d], d2)
                    assert Fraction(n1[d], d1) == want, (g, t, i, d)


@pytest.mark.parametrize("i", [0, 5, -1])
def test_coordinate_index_out_of_range(g5_curve, monkeypatch, i):
    with pytest.raises(ValueError):
        g5_curve.coeff_pair(i, 1)
    def refuse(eps):
        raise AssertionError("a product was formed")
    monkeypatch.setattr(g5_curve, "params", refuse)    # the rows are read only after the check
    for indices in ([i], [1, i], [i, 4, 2]):
        with pytest.raises(ValueError, match="coordinate index"):
            g5_curve.alpha_jets(2, Fraction(1), indices)


def test_alpha_jets_duplicate_and_empty_indices(g5_curve):
    assert g5_curve.alpha_jets(1, Fraction(5, 2), []) == {}
    jets = g5_curve.alpha_jets(1, Fraction(5, 2), [3, 1, 3, 1])
    assert jet_values(jets) == fraction_jets(g5_curve, 1, Fraction(5, 2), (1, 3))
