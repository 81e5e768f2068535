"""class-algebra: pushforward rules, Riemann-Roch degree-1 parts, reports."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prymgauss import (DivisorClass, SurfaceClassExpr, classes_report, degeneracy_class,
                       grr_c1, hodge_c1, kodaira_residual, pushforward, source_c1,
                       square_of_line_bundle)
from prymgauss.classes import CANONICAL_CLASS, KOSZUL_DIVISOR

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


def D(lam=0, d0p=0, d0pp=0, d0ram=0):
    return DivisorClass.of(lam, d0p, d0pp, d0ram)


def test_pushforward_omega_squared():
    assert pushforward(SurfaceClassExpr.of(omega2=1)) == D(12, -1, -1, -2)


def test_pushforward_omega_P_vanishes():
    assert pushforward(SurfaceClassExpr.of(omegaP=1)) == D()


def test_pushforward_P_squared():
    assert pushforward(SurfaceClassExpr.of(P2=1)) == D(0, 0, 0, Fraction(-1, 2))


def test_pushforward_nodal_cycle():
    assert pushforward(SurfaceClassExpr.of(Z=1)) == D(0, 1, 1, 2)


@settings(max_examples=40, deadline=None)
@given(rationals, rationals, rationals, rationals, rationals, rationals,
       rationals, rationals, rationals, rationals)
def test_pushforward_linearity(a, b, w1, p1, q1, z1, w2, p2, q2, z2):
    e1 = SurfaceClassExpr.of(w1, p1, q1, z1)
    e2 = SurfaceClassExpr.of(w2, p2, q2, z2)
    assert pushforward(a * e1 + b * e2) == a * pushforward(e1) + b * pushforward(e2)


def test_classes_of_different_bases_do_not_add():
    with pytest.raises(TypeError):
        DivisorClass.of(1) + SurfaceClassExpr.of(1)
    with pytest.raises(TypeError):
        SurfaceClassExpr.of(1) - DivisorClass.of(1)


def test_classes_multiply_only_by_scalars():
    assert DivisorClass.of(1, 2) * Fraction(1, 2) == "1/2" * DivisorClass.of(1, 2) \
        == DivisorClass.of("1/2", 1)
    for left, right in ((DivisorClass.of(1), DivisorClass.of(2)),
                        (SurfaceClassExpr.of(1), DivisorClass.of(1)),
                        (DivisorClass.of(1), None), ([1], DivisorClass.of(1))):
        with pytest.raises(TypeError):
            left * right
    with pytest.raises(ValueError, match="floats are not accepted"):
        0.5 * DivisorClass.of(1)


def test_line_bundle_square():
    assert square_of_line_bundle(3, 2) == SurfaceClassExpr.of(9, 12, 4, 0)


def test_grr_target_bundle():
    assert grr_c1(3, 2, True) == D(37, -4, -4, -9)


def test_grr_equals_hodge_for_weight_one():
    assert grr_c1(1, 1, False) == hodge_c1(1) == D(1, 0, 0, Fraction(-1, 4))


def test_grr_pure_dualizing_sheaf():
    assert grr_c1(1, 0, False) == D(1)


def test_hodge_examples():
    assert hodge_c1(0) == D(1)
    assert hodge_c1(1) == D(1, 0, 0, Fraction(-1, 4))
    assert hodge_c1(3) == D(37, -3, -3, Fraction(-33, 4))


def test_source_bundle_c1():
    assert source_c1() == D(10, 0, 0, Fraction(-5, 2))


def test_degeneracy_class_value():
    expected = 55 * D(27, -4, -4, Fraction(-13, 2))
    assert degeneracy_class() == expected


def test_degeneracy_interior_lambda():
    assert degeneracy_class().interior_restriction() == 1485


def test_degeneracy_slope_exceeds_threshold():
    d = degeneracy_class()
    # coefficient of lambda over the coefficient of the combined (d' + d'')
    # term; d0p == d0pp so the combined coefficient is just -d0p
    assert d.d0p == d.d0pp
    assert d.lam / -d.d0p == Fraction(27, 4) > Fraction(13, 2)


def test_degeneracy_antisymmetry():
    target = grr_c1(3, 2, True)
    forward = 55 * target - 55 * source_c1()
    backward = 55 * source_c1() - 55 * target
    assert forward == -1 * backward


def test_kodaira_residual_is_zero_and_effective():
    residual = kodaira_residual()
    assert residual == DivisorClass()
    assert residual.is_effective()
    assert KOSZUL_DIVISOR.lam == 364               # 56 * 13/2
    assert CANONICAL_CLASS == D(13, -2, -2, -3)


def test_classes_report_payload():
    report = classes_report()
    assert set(report) == {"hodge_c1_i1", "source_exterior_square_c1", "grr_target_c1",
                           "degeneracy_class", "kodaira"}
    assert report["grr_target_c1"]["lambda"] == "37"
    assert report["degeneracy_class"]["interior_lambda_coefficient"] == "1485"
    assert "undetermined" in report["degeneracy_class"]["note"]
    assert report["kodaira"]["residual_effective"] is True
