"""Divisor-class arithmetic on the genus-12 moduli of Prym pairs.

Classes live in the 4-dimensional rational vector space spanned by the
ordered basis (lambda, delta'_0, delta''_0, delta_0^ram): the Hodge class
and the three boundary classes of the partial compactification by 1-nodal
irreducible curves.  Loci of codimension >= 2 are ignored throughout, which
is why four coefficients suffice.

Degree-2 classes upstairs (on the universal family) are formal combinations
of omega^2, omega*P, P^2 and the nodal cycle [Z], where omega = c1 of the
relative dualizing sheaf and P = c1 of the 2-torsion (Prym) bundle.  The
pushforward to the base is the linear extension of

    omega^2   ->  12*lambda - psi[Z]
    omega*P   ->  0
    P^2       ->  -delta_0^ram / 2
    [Z]       ->  delta'_0 + delta''_0 + 2*delta_0^ram

`grr_c1(a, b, with_IZ)` implements the Riemann-Roch degree-1 part for the
pushforward of L = a*omega + b*P (optionally twisted by the ideal of nodes):
push(L^2/2 - L*omega/2 + (omega^2 + [Z])/12 - (with_IZ ? [Z] : 0)).

The genus-12 degeneracy locus of the Gaussian map is a divisor; both source
and target bundles have rank 55, so its class is
55 * c1(target) - 55 * c1(source), with c1(source) = 10 * c1(F_1).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction

from .exact import RationalLike, format_rational, parse_rational

# Genus-12 constants: h^0 = 11 sections, both sides of the map have rank 55.
SOURCE_BUNDLE_RANK = 11
MAP_RANK = 55

BASIS = ("lambda", "delta0_prime", "delta0_doubleprime", "delta0_ram")


@dataclass(frozen=True)
class _Combination:
    """Exact coefficients over a fixed basis, the fields of a subclass,
    with the vector-space operations written once."""

    @classmethod
    def of(cls, *values: RationalLike, **named: RationalLike):
        """Parse each coefficient; omitted ones are zero."""
        return cls(*map(parse_rational, values),
                   **{name: parse_rational(v) for name, v in named.items()})

    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(*(x + y for x, y in zip(self.coefficients(), other.coefficients())))

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float, Fraction, str)):
            return NotImplemented
        s = parse_rational(scalar)
        return type(self)(*(s * c for c in self.coefficients()))

    __rmul__ = __mul__


@dataclass(frozen=True)
class DivisorClass(_Combination):
    """Exact coefficients over (lambda, delta'_0, delta''_0, delta_0^ram)."""
    lam: Fraction = Fraction(0)
    d0p: Fraction = Fraction(0)
    d0pp: Fraction = Fraction(0)
    d0ram: Fraction = Fraction(0)

    def is_effective(self) -> bool:
        """Componentwise nonnegativity over the tracked basis."""
        return all(c >= 0 for c in self.coefficients())

    def interior_restriction(self) -> Fraction:
        """Coefficient of lambda: the boundary classes restrict to zero on
        the open moduli."""
        return self.lam

    def to_json_dict(self) -> dict:
        return dict(zip(BASIS, (format_rational(c) for c in self.coefficients())))


@dataclass(frozen=True)
class SurfaceClassExpr(_Combination):
    """Formal degree-2 class upstairs: coefficients of omega^2, omega*P,
    P^2 and the nodal cycle [Z]."""
    omega2: Fraction = Fraction(0)
    omegaP: Fraction = Fraction(0)
    P2: Fraction = Fraction(0)
    Z: Fraction = Fraction(0)


def square_of_line_bundle(a_omega: RationalLike, b_P: RationalLike) -> SurfaceClassExpr:
    """(a*omega + b*P)^2 expanded in the degree-2 monomials."""
    a = parse_rational(a_omega)
    b = parse_rational(b_P)
    return SurfaceClassExpr.of(a * a, 2 * a * b, b * b, 0)


def pushforward(expr: SurfaceClassExpr) -> DivisorClass:
    """Linear extension of the four pushforward rules."""
    z_push = DivisorClass.of(0, 1, 1, 2)
    omega2_push = DivisorClass.of(12) - z_push
    p2_push = DivisorClass.of(0, 0, 0, Fraction(-1, 2))
    return (expr.omega2 * omega2_push
            + expr.P2 * p2_push
            + expr.Z * z_push)


def grr_c1(a_omega: int, b_P: int, with_IZ: bool) -> DivisorClass:
    """Degree-1 part of the Riemann-Roch pushforward for L = a*omega + b*P,
    optionally twisted by the ideal sheaf of the nodal locus."""
    a = parse_rational(a_omega)
    b = parse_rational(b_P)
    l_squared = square_of_line_bundle(a, b)
    l_omega = SurfaceClassExpr.of(a, b, 0, 0)          # L * omega
    z = SurfaceClassExpr.of(0, 0, 0, 1)
    omega2 = SurfaceClassExpr.of(1, 0, 0, 0)
    expr = (Fraction(1, 2) * l_squared
            - Fraction(1, 2) * l_omega
            + Fraction(1, 12) * (omega2 + z))
    if with_IZ:
        expr = expr - z
    return pushforward(expr)


def hodge_c1(i: int) -> DivisorClass:
    """c1 of the pushforward of (omega tensor P)^i:
    i(i-1)/2 * (12L - d' - d'' - 2d^ram) + L - i^2/4 * d^ram."""
    weight = Fraction(i * (i - 1), 2)
    base = DivisorClass.of(12, -1, -1, -2)
    return weight * base + DivisorClass.of(1) - DivisorClass.of(0, 0, 0, Fraction(i * i, 4))


def source_c1() -> DivisorClass:
    """c1 of the exterior square of the rank-11 section bundle:
    (rank - 1) * c1(F_1) = 10*lambda - 5/2 * delta_0^ram."""
    return (SOURCE_BUNDLE_RANK - 1) * hodge_c1(1)


def degeneracy_class() -> DivisorClass:
    """Class of the genus-12 degeneracy divisor:
    rank * c1(target) - rank * c1(source), both ranks 55."""
    target = grr_c1(3, 2, True)
    return MAP_RANK * target - MAP_RANK * source_c1()


# Canonical class of the partial compactification and the Koszul divisor
# class used in the effectivity comparison.
CANONICAL_CLASS = DivisorClass.of(13, -2, -2, -3)
KOSZUL_DIVISOR = 56 * DivisorClass.of(Fraction(13, 2), -1, -1, Fraction(-3, 2))


def kodaira_residual() -> DivisorClass:
    """canonical - (1/28) * Koszul divisor."""
    return CANONICAL_CLASS - Fraction(1, 28) * KOSZUL_DIVISOR


def classes_report() -> dict:
    """All class computations keyed by formula name (CLI payload).

    The degeneracy entry tracks only the four basis coefficients; further
    boundary coefficients of its closure are undetermined here.
    """
    deg = degeneracy_class()
    residual = kodaira_residual()
    return {
        "hodge_c1_i1": hodge_c1(1).to_json_dict(),
        "source_exterior_square_c1": source_c1().to_json_dict(),
        "grr_target_c1": grr_c1(3, 2, True).to_json_dict(),
        "degeneracy_class": {
            **deg.to_json_dict(),
            "interior_lambda_coefficient": format_rational(deg.interior_restriction()),
            "note": "coefficients beyond the four tracked boundary classes are undetermined",
        },
        "kodaira": {
            "canonical": CANONICAL_CLASS.to_json_dict(),
            "koszul_divisor": KOSZUL_DIVISOR.to_json_dict(),
            "residual": residual.to_json_dict(),
            "residual_effective": residual.is_effective(),
        },
    }
