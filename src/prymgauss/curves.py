"""Prym-canonical binary curves from explicit rational parameters.

A binary curve of genus g is a union of two rational components meeting
transversally at g+1 nodes.  Each component is embedded in P^(g-2) by g-1
coordinate polynomials alpha[i] of degree <= g-1 in the affine chart t,
built from the parameter rows a1, a2 (one row per component, entries
pairwise distinct and nonzero within a row).  With k = floor(g/2),
M(t) = prod_r (t - a_r) and A2 = prod a2_r, the coordinates are

    alpha_i(t) = M(t) * (delta_i * t - c_i) / (t - a_i),

where delta_i = 1, c_i = 0 for i <= k, and for i > k:

    component 2 (both conventions):  delta_i = 0, c_i =  a2_i / A2
    component 1, convention "paper": delta_i = 0, c_i = -a1_i / A2
    component 1, convention "script":delta_i = 0, c_i = -a1_i * A2

The two conventions differ by the factor A2^2 on the late coordinates of
component 1; "script" reproduces a well-known computer-algebra construction
byte for byte, "paper" is the default normalization.  The second chart
(around u = 0, i.e. t = infinity) is

    uchart_i(u) = MM(u) * (delta_i - c_i * u) / (1 - a_i * u),

with MM(u) = prod_r (1 - a_r u); it satisfies
uchart_i(u) = u^(g-1) * alpha_i(1/u).

Nodes: P_l = e_l (standard basis) for l <= g-1 at parameter t = a_l on each
component; P_g at t = 0 with pattern (0..0, 1..1) (k zeros first); P_{g+1}
at u = 0 with the complementary pattern (1..1, 0..0).

`_cleared_alphas` builds the coordinates of one component over the integers,
alpha_i = P_i/den; it is the one construction that the Gaussian-map matrix
and `node_check` read.  A curve holds only its parameters and never changes
after construction.  All functions here are pure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .exact import RationalLike, format_rational, parse_rational

CONVENTIONS = ("paper", "script")


class ParameterError(ValueError):
    """Invalid curve parameters (zero, duplicate, wrong count, bad genus)."""


class PrymBinaryCurve:
    """Genus, convention and parameter rows, plus k and A2.

    Nothing else is stored: the coordinates are built from the parameters
    when they are used (`coeff_pair`, `alpha_jets`, `_cleared_alphas`).
    """

    def __init__(self, genus: int, a1: Sequence[Fraction], a2: Sequence[Fraction],
                 convention: str = "paper"):
        self.genus = genus
        self.convention = convention
        self.a1 = tuple(a1)
        self.a2 = tuple(a2)
        self.k = genus // 2
        self.A2 = Fraction(math.prod(a.numerator for a in self.a2),
                           math.prod(a.denominator for a in self.a2))

    # -- construction helpers ------------------------------------------

    def coeff_pair(self, i: int, eps: int) -> tuple[int, Fraction]:
        """(delta_i, c_i) for the numerator factor delta_i*t - c_i of alpha(i, eps)."""
        if not 1 <= i < self.genus:
            raise ValueError(f"coordinate index must be in 1..{self.genus - 1}, got {i}")
        if i <= self.k:
            return 1, Fraction(0)
        if eps == 2:
            return 0, self.a2[i - 1] / self.A2
        if self.convention == "paper":
            return 0, -self.a1[i - 1] / self.A2
        return 0, -self.a1[i - 1] * self.A2

    # -- accessors ------------------------------------------------------

    def params(self, eps: int) -> tuple[Fraction, ...]:
        if eps == 1:
            return self.a1
        if eps == 2:
            return self.a2
        raise ValueError(f"component index must be 1 or 2, got {eps}")

    def alpha_jets(self, eps: int, x: Fraction, indices: Iterable[int]) -> dict[int, tuple]:
        """{i: (N, N', N'', D)} with alpha(i, eps)^(d)(x) = N^(d)/D, for each i in indices.

        With x = n/m, a_s = n_s/d_s, x - a_s = e_s/w_s (e_s = n d_s - n_s m,
        w_s = m d_s), a forward pass keeps W (q, q', q''), W = prod w_s, of
        q = prod_{s<i} (x - a_s) at each requested i, over the integers by the
        product rule; a backward pass does so for s > i.  Each i joins its two
        jets and the factor delta_i x - c_i by the product rule.  Nothing is
        divided, so x may be a parameter.  Two O(g) integer passes; D > 0, unreduced.
        """
        pairs = {i: self.coeff_pair(i, eps) for i in indices}
        n, m = x.numerator, x.denominator
        factors = [(s, n * a.denominator - a.numerator * m, m * a.denominator)
                   for s, a in enumerate(self.params(eps), start=1)]
        kept: dict[int, list] = {i: [] for i in pairs}
        for order in (factors, reversed(factors)):
            Q, dQ, ddQ, W = 1, 0, 0, 1
            for s, e, w in order:
                if s in kept:
                    kept[s].append((Q, dQ, ddQ, W))
                Q, dQ, ddQ, W = Q * e, dQ * e + Q * w, ddQ * e + 2 * dQ * w, W * w
        jets = {}
        for i, ((P, dP, ddP, V), (S, dS, ddS, U)) in kept.items():
            delta, c = pairs[i]
            lin = delta * x - c
            ln, ld = lin.numerator, lin.denominator
            Q, dQ, ddQ, D = P * S, dP * S + P * dS, ddP * S + 2 * dP * dS + P * ddS, V * U * ld
            jets[i] = (Q * ln, dQ * ln + Q * delta * ld, ddQ * ln + 2 * dQ * delta * ld, D)
        return jets

    def __repr__(self) -> str:
        return (f"PrymBinaryCurve(genus={self.genus}, convention={self.convention!r}, "
                f"a1=({', '.join(format_rational(x) for x in self.a1)}), "
                f"a2=({', '.join(format_rational(x) for x in self.a2)}))")


def build_curve(genus: int, a1: Sequence[RationalLike], a2: Sequence[RationalLike],
                convention: str = "paper") -> PrymBinaryCurve:
    """Validate parameters from outside the package and materialize the curve.

    Raises ParameterError naming the offending index pair on any violated
    invariant (duplicate or zero entries within a row, wrong row length, a
    genus that is not an int >= 3; a bool is not an int here).
    """
    if type(genus) is not int or genus < 3:
        raise ParameterError(f"genus must be an int >= 3, got {genus!r}")
    if convention not in CONVENTIONS:
        raise ParameterError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    rows = {}
    for name, row in (("a1", a1), ("a2", a2)):
        vals = [parse_rational(x) for x in row]
        if len(vals) != genus - 1:
            raise ParameterError(f"{name} must have {genus - 1} entries for genus {genus}, got {len(vals)}")
        # keyed on the canonical (numerator, denominator): no Fraction hash
        seen: dict[tuple[int, int], int] = {}
        for idx, v in enumerate(vals, start=1):
            if v == 0:
                raise ParameterError(f"{name}[{idx}] is zero; all parameters must be nonzero")
            key = (v.numerator, v.denominator)
            if key in seen:
                raise ParameterError(
                    f"{name}[{seen[key]}] and {name}[{idx}] are both {format_rational(v)}; "
                    f"parameters must be pairwise distinct within a component")
            seen[key] = idx
        rows[name] = tuple(vals)
    return PrymBinaryCurve(genus, rows["a1"], rows["a2"], convention)


def node_table(genus: int) -> tuple[tuple[int, ...], ...]:
    """0/1 coordinates of the g+1 nodes in P^(g-2), as the curve hits them."""
    k = genus // 2
    dim = genus - 1
    nodes = []
    for i in range(1, genus):
        nodes.append(tuple(1 if j == i else 0 for j in range(1, genus)))
    nodes.append(tuple(0 if j <= k else 1 for j in range(1, genus)))   # P_g
    nodes.append(tuple(1 if j <= k else 0 for j in range(1, genus)))   # P_{g+1}
    assert all(len(n) == dim for n in nodes)
    return tuple(nodes)


def _cleared_alphas(curve: PrymBinaryCurve, eps: int) -> tuple[list[list[int]], int]:
    """(P, den), alpha(i, eps) = P[i-1]/den with integer P of length g: for
    a_r = n_r/d_r, c_i = cn_i/cd_i and L = lcm cd_i, den = L prod d_r and
    P_i = d_i (L/cd_i) (delta_i cd_i t - cn_i) prod_{r != i} (d_r t - n_r)."""
    roots = curve.params(eps)
    pairs = [curve.coeff_pair(i, eps) for i in range(1, curve.genus)]
    lcm = math.lcm(*(c.denominator for _, c in pairs))
    numerators = []
    for i, (delta, c) in enumerate(pairs):
        scale = roots[i].denominator * (lcm // c.denominator)
        poly = [-c.numerator * scale, delta * c.denominator * scale]
        for r, root in enumerate(roots):
            if r != i:   # poly * (d_r t - n_r)
                poly = [root.denominator * hi - root.numerator * lo
                        for hi, lo in zip([0] + poly, poly + [0])]
        numerators.append(poly)
    return numerators, lcm * math.prod(root.denominator for root in roots)


def _homogeneous_value(coeffs: list[int], n: int, m: int) -> int:
    """m^e times the value at n/m of the degree-e polynomial `coeffs`."""
    acc, power = 0, 1
    for c in reversed(coeffs):
        acc = acc * n + c * power
        power *= m
    return acc


def _proportional(vec: Sequence[int], pattern: Sequence[int]) -> int | None:
    """Index of the first coordinate where vec is not a nonzero multiple of
    the 0/1 pattern, or None if it is one."""
    value = None
    for idx, (v, p) in enumerate(zip(vec, pattern)):
        if p == 0:
            if v != 0:
                return idx
        elif v == 0 or (value is not None and v != value):
            return idx
        else:
            value = v
    return 0 if value is None else None


def node_check(curve: PrymBinaryCurve) -> tuple[str, ...]:
    """Failure lines, none if each chart sends the right parameters to the
    right nodes.

    For every component eps, on the cleared coordinates P_i of
    `_cleared_alphas`: the vector (P_i(a_l)) must be a nonzero multiple of
    P_l (l <= g-1), (P_i(0)) of P_g, and (P_i(infinity)) of P_{g+1}.  A node
    is the homogeneous point (n, m), t = n/m, evaluated as m^(g-1) P_i(n/m);
    P_{g+1} is the point (1, 0), whose value is P_i's top coefficient.  The
    factor m^(g-1)/den is common to the coordinates, so the patterns are
    those of the alpha_i.
    """
    g = curve.genus
    failures = []
    for eps in (1, 2):
        coords, _ = _cleared_alphas(curve, eps)
        points = [(x.numerator, x.denominator) for x in curve.params(eps)] + [(0, 1), (1, 0)]
        vectors = [[_homogeneous_value(c, n, m) for c in coords] for n, m in points]
        for l, (vec, pattern) in enumerate(zip(vectors, node_table(g)), start=1):
            bad = _proportional(vec, pattern)
            if bad is not None:
                failures.append(f"node P_{l}, component {eps}: coordinate {bad + 1} off pattern")
    return tuple(failures)


def projection_node_index(genus: int) -> int:
    """Index r of the node removed by the genus-lowering projection:
    r = k for genus 2k, r = k+1 for genus 2k+1."""
    k = genus // 2
    return k if genus % 2 == 0 else k + 1


def project_node(curve: PrymBinaryCurve) -> PrymBinaryCurve:
    """Project away node P_r, producing the genus-(g-1) curve.

    The parameter rows drop index r, so they stay valid and are not checked
    again; the result uses the same convention.  Genus 3 cannot be projected
    (the image would fall below the supported genus floor).
    """
    g = curve.genus
    if g < 4:
        raise ParameterError("cannot project a genus-3 curve: the image would have genus 2")
    r = projection_node_index(g)
    a1 = curve.a1[:r - 1] + curve.a1[r:]
    a2 = curve.a2[:r - 1] + curve.a2[r:]
    return PrymBinaryCurve(g - 1, a1, a2, curve.convention)

