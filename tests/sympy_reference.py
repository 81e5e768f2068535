"""The Gaussian-map matrix entry by entry, built with sympy.

An independent route to the entries of `assemble_matrix`.  Each embedding
coordinate is written from its definition in the `curves` module docstring,

    alpha_i(t) = M(t) * (delta_i * t - c_i) / (t - a_i),   M = prod_r (t - a_r),

as a sympy polynomial over QQ (the division is sympy's exact quotient) and
cleared to ZZ with `Poly.clear_denoms`, alpha_i = P_i / d_i.  A nu block is
the Wronskian P_i P_j' - P_j P_i' over d_i d_j, an interior torsion value
comes from alpha_i' at the node parameters (P_g at t = 0), and the torsion at
P_{g+1} from the slopes at u = 0 of the far chart, also from its definition:

    uchart_i(u) = MM(u) * (delta_i - c_i * u) / (1 - a_i * u),   MM = prod_r (1 - a_r u).

A `Reference` builds each piece once, on first use.
"""

from fractions import Fraction
from functools import reduce, wraps
from operator import mul

import sympy as sp

T, U = sp.symbols("t u")


def _linear(c1, c0, x):
    """The polynomial c1 x + c0 over QQ."""
    return sp.Poly.from_list([c1, c0], x, domain=sp.QQ)


def _fraction(x):
    x = sp.Rational(x)
    return Fraction(int(x.p), int(x.q))


def evaluate(poly, x):
    """The value of a sympy polynomial at the Fraction x, as a Fraction."""
    return _fraction(poly.eval(sp.Rational(x.numerator, x.denominator)))


def _once(method):
    """Keep a method's result per argument tuple on its instance."""
    @wraps(method)
    def cached(self, *args):
        key = (method.__name__,) + args
        if key not in self._results:
            self._results[key] = method(self, *args)
        return self._results[key]
    return cached


class Reference:
    """One curve's coordinates and Gaussian-map entries; indices are 1-based."""

    def __init__(self, curve):
        self.genus = g = curve.genus
        self._results = {}
        self.rows = {1: [sp.Rational(x.numerator, x.denominator) for x in curve.a1],
                     2: [sp.Rational(x.numerator, x.denominator) for x in curve.a2]}
        a1, a2 = self.rows[1], self.rows[2]
        A2 = sp.prod(a2)
        # (delta_i, c_i), straight from the curves module docstring
        self.pairs = {(i, eps): (1, sp.Integer(0)) for i in range(1, g // 2 + 1) for eps in (1, 2)}
        for i in range(g // 2 + 1, g):
            self.pairs[i, 2] = (0, a2[i - 1] / A2)
            self.pairs[i, 1] = (0, -a1[i - 1] / A2 if curve.convention == "paper"
                                else -a1[i - 1] * A2)

    @_once
    def m(self, eps):
        return reduce(mul, [_linear(1, -a, T) for a in self.rows[eps]])

    @_once
    def mm(self, eps):
        return reduce(mul, [_linear(-a, 1, U) for a in self.rows[eps]])

    @_once
    def alpha(self, i, eps):
        delta, c = self.pairs[i, eps]
        return self.m(eps).exquo(_linear(1, -self.rows[eps][i - 1], T)) * _linear(delta, -c, T)

    @_once
    def cleared(self, i, eps):
        """(P_i, d_i), alpha_i = P_i / d_i with P_i over ZZ."""
        den, poly = self.alpha(i, eps).clear_denoms(convert=True)
        return poly, int(den)

    def nu(self, i, j, eps):
        """(W, den), nu_{ij,eps} = W / den with W over ZZ."""
        (p, dp), (q, dq) = self.cleared(i, eps), self.cleared(j, eps)
        return p * q.diff(T) - q * p.diff(T), dp * dq

    @_once
    def derivative(self, i, eps):
        return self.alpha(i, eps).diff(T)

    @_once
    def slope(self, i, eps, h):
        """Derivative of coordinate i on component eps at the node P_h, in
        the t chart for h <= g and in the u chart for h = g+1."""
        g = self.genus
        if h <= g:
            x = self.rows[eps][h - 1] if h < g else 0
            return _fraction(self.derivative(i, eps).eval(x))
        delta, c = self.pairs[i, eps]
        far = self.mm(eps).exquo(_linear(-self.rows[eps][i - 1], 1, U)) * _linear(-c, delta, U)
        return _fraction(far.nth(1))

    def tau(self, i, j, h):
        """Torsion value of (i, j) at the node P_h, h = 1..g+1."""
        return self.slope(j, 1, h) * self.slope(i, 2, h) - self.slope(i, 1, h) * self.slope(j, 2, h)

    def nu_block(self, i, j, eps):
        """The 2g-3 coefficients of nu_{ij,eps}, ascending; longer if a
        coefficient above degree 2g-4 is nonzero."""
        w, den = self.nu(i, j, eps)
        coeffs = [Fraction(int(x), den) for x in reversed(w.all_coeffs())]
        return coeffs + [Fraction(0)] * (2 * self.genus - 3 - len(coeffs))

    def entries(self):
        """Every row of the matrix, pairs (i, j), i < j, in lexicographic order."""
        g = self.genus
        return tuple(tuple(self.nu_block(i, j, 1) + self.nu_block(i, j, 2)
                           + [self.tau(i, j, h) for h in range(1, g + 2)])
                     for i in range(1, g - 1) for j in range(i + 1, g))
