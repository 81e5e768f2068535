"""Mechanical verification of the genus-induction step (g >= 13).

For the parameter family a_{i,1} = i*a (a != 0, 1), a_{i,2} = i, the
surjectivity induction reduces to the invertibility of one 5x5 block of the
Gaussian-map matrix at the projection node P_r (r = k for even genus,
r = k+1 for odd, k = floor(g/2)).  Its rows are

    nu_{ij,1}(a_{r,1}),  nu'_{ij,1}(a_{r,1}),
    nu_{ij,2}(a_{r,2}),  nu'_{ij,2}(a_{r,2}),  tau_{ij}(P_r)

and its columns are five selected pairs (i, j):

    even genus 2k:   (1,k)   (2,k)   (k,g-2)   (k,g-1)   (k-1,k+1)
    odd genus 2k+1:  (2,k+1) (3,k+1) (k+1,g-2) (k+1,g-1) (k-1,k+2)

The block is built from jets, not polynomials, and from component 2 alone:
one call of `PrymBinaryCurve.alpha_jets` gives the integer jets
(alpha_i, alpha_i', alpha_i'') = (N, N', N'')/D at t = r for every selected
index i, in one prefix and one suffix pass over the factors (t - s).
Component 1 is component 2 rescaled: with sigma_i = +1 for i <= k and -1
for i > k,

    alpha_{i,1}(a t) = sigma_i a^(g-1) alpha_{i,2}(t),

since prod_{s != i} (a t - s a) = a^(g-2) prod_{s != i} (t - s), and the
linear factor is a t against t for i <= k and -c_{i,1} = -a c_{i,2} for
i > k (`coeff_pair` divides both by A2).  Differentiating d times,
alpha^(d)_{i,1}(a r) = sigma_i a^(g-1-d) alpha^(d)_{i,2}(r).  So with
s = sigma_i sigma_j and the component-2 values
nu = alpha_i alpha_j' - alpha_j alpha_i', nu' = alpha_i alpha_j'' - alpha_j alpha_i'',
the block is a fixed row scaling of one a-free block B(g),

    block(g, a) = diag(a^(2g-3), a^(2g-4), 1, 1, a^(g-2)) B(g),
    columns of B(g):  s nu,  s nu',  nu,  nu',  (sigma_j - sigma_i) alpha_i' alpha_j',

since component 2's parameters 1..g-1 do not involve a.  The rows are the
values at P_r of the nu blocks of `assemble_matrix`, of their derivatives
and of its tau column (tau = alpha'_{j,1} alpha'_{i,2} - alpha'_{i,1}
alpha'_{j,2}), checked in the tests against a sympy construction.  So
det5(a) = a^(5g-9) det B(g): one nonzero det B(g) shows det5 != 0 for every
a != 0 at that genus, and `sweep` builds B(g), its determinant and the 4x4
diagnostic once per genus.  Neither diagnostic below depends on a: the 4x4
one is a rank-1 scaling test, which nonzero row scalars keep, and tau(P_r)
and its closed form share a^(g-2).

Both nu rows of the last column vanish (its indices avoid r), so
det5 = +/- tau * det4, where det4 is the upper-left 4x4 block.  The verdict
(`InductionReport.ok`, and the exit code of `induction`) is det5 != 0 and
tau(P_r) equal to its closed form (`check_tau_closed_form`)

    even:  -2 k (k+1) a^(g-2) / A2 * prod_{l != k-1,k,k+1} (k-l)^2
    odd:   -4 (k+1)(k+2) a^(g-2) / A2 * prod_{l != k-1,k+1,k+2} (k+1-l)^2

(l runs over 1..g-1; A2 = (g-1)!), whose signs are those of the torsion
order used throughout this package (j-derivative on component 1 first).
Two diagnostics are reported and never change `ok` or the exit code:

* `check_scaled_matrix` asks whether the evaluated 4x4 block equals the
  built-in integer reference matrix up to nonzero row and column scalings
  (a rank-1 scaling test, equivalent to replaying the hand simplification
  without re-deriving every division step);
* `tau_sign_matches_display` compares tau(P_r) with the closed form as it
  is often quoted: for even genus with the opposite sign, which belongs to
  the swapped torsion order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .curves import PrymBinaryCurve, projection_node_index
from .exact import RationalLike, format_rational, parse_rational
from .rank import det_exact


def _family_values(genus: int, a_values: Sequence[RationalLike]) -> list[Fraction]:
    """The family values as Fractions; 0 or 1 is refused first, then genus < 13."""
    values = [parse_rational(a) for a in a_values]
    if any(a in (0, 1) for a in values):
        raise ValueError("family parameter a must avoid 0 and 1")
    if genus < 13:
        raise ValueError(f"the induction step starts at genus 13, got {genus}")
    return values


def family_curve(genus: int, a: RationalLike) -> PrymBinaryCurve:
    """The induction family a_{i,1} = i*a, a_{i,2} = i, paper convention.  With
    a != 0 each row is nonzero and distinct, so the rows are not checked again."""
    a, = _family_values(genus, [a])
    a1 = [Fraction(i * a.numerator, a.denominator) for i in range(1, genus)]
    a2 = [Fraction(i) for i in range(1, genus)]
    return PrymBinaryCurve(genus, a1, a2, "paper")


def selected_pairs(genus: int) -> tuple[tuple[int, int], ...]:
    """The five column pairs of the induction submatrix."""
    k = genus // 2
    if genus % 2 == 0:
        return ((1, k), (2, k), (k, genus - 2), (k, genus - 1), (k - 1, k + 1))
    return ((2, k + 1), (3, k + 1), (k + 1, genus - 2), (k + 1, genus - 1), (k - 1, k + 2))


def _a_free_block(genus: int) -> tuple[tuple[Fraction, ...], ...]:
    """B(g), the block with its powers of a divided out (module docstring), as its
    rows: one `alpha_jets` call on component 2 (1..g-1; component 1 is never read)."""
    row = [Fraction(i) for i in range(1, genus)]
    curve = PrymBinaryCurve(genus, row, row, "paper")
    r, pairs = projection_node_index(genus), selected_pairs(genus)
    jets = curve.alpha_jets(2, row[r - 1], {i for pair in pairs for i in pair})
    sigma = {i: 1 if i <= curve.k else -1 for i in jets}
    cols = []
    for (i, j) in pairs:
        (ai, di, ddi, den_i), (aj, dj, ddj, den_j) = jets[i], jets[j]
        den, s = den_i * den_j, sigma[i] * sigma[j]
        nu, dnu = Fraction(ai * dj - aj * di, den), Fraction(ai * ddj - aj * ddi, den)
        cols.append((s * nu, s * dnu, nu, dnu, Fraction((sigma[j] - sigma[i]) * di * dj, den)))
    return tuple(zip(*cols))


def build_induction_submatrix(genus: int, a: RationalLike) -> tuple[tuple[Fraction, ...], ...]:
    """The 5x5 block as its rows: column q belongs to the q-th pair of
    `selected_pairs(genus)`, rows nu_1, nu_1', nu_2, nu_2' and tau.  It is
    B(g) with its rows scaled by a^(2g-3), a^(2g-4), 1, 1 and a^(g-2)."""
    a, = _family_values(genus, [a])
    scales = (a ** (2 * genus - 3), a ** (2 * genus - 4), 1, 1, a ** (genus - 2))
    return tuple(tuple(w * x for x in row) for w, row in zip(scales, _a_free_block(genus)))


def reference_matrix(genus: int) -> tuple[tuple[int, ...], ...]:
    """Integer reference for the simplified 4x4 block, genus 2k or 2k+1."""
    k = genus // 2
    if genus % 2 == 0:
        return (
            (-k * (k - 2), -k * (k - 1), -2 * (k - 1) ** 2, -(2 * k - 1) * (k - 2)),
            ((k - 2) ** 2, 2 * (k - 1) ** 2, -2 * (k - 1) ** 3, -(2 * k - 1) * (k - 2) ** 2),
            (-k * (k - 2), -k * (k - 1), 2 * (k - 1) ** 2, (2 * k - 1) * (k - 2)),
            ((k - 2) ** 2, 2 * (k - 1) ** 2, 2 * (k - 1) ** 3, (2 * k - 1) * (k - 2) ** 2),
        )
    return (
        (-(k + 1) * (k - 1), -(k + 1) * (k - 2), -(k - 2), -(k - 1)),
        (-(k * k - 2 * k - 1), -(k * k - 4 * k - 2), -(2 * k - 2), -(2 * k - 1)),
        ((k + 1) * (k - 1), (k + 1) * (k - 2), -(k - 2), -(k - 1)),
        ((k * k - 2 * k - 1), (k * k - 4 * k - 2), -(2 * k - 2), -(2 * k - 1)),
    )


def _scaling_match(computed: Sequence[Sequence[Fraction]],
                   target: Sequence[Sequence[int]]) -> bool | None:
    """Do nonzero row/column scalars exist with computed * r_p * c_q == target?

    False when the zero patterns differ; None (inconclusive) when the
    first row or column of `computed` has a zero.  Otherwise they exist
    exactly when the cellwise ratio target/computed has rank 1: every 2x2
    minor through cell (0, 0) vanishes, compared cross-multiplied over the
    numerators and denominators of `computed`, so no Fraction is built.
    """
    n = len(target)
    cells = [(p, q) for p in range(n) for q in range(n)]
    if any((computed[p][q] == 0) != (target[p][q] == 0) for p, q in cells):
        return False
    if 0 in computed[0] or any(row[0] == 0 for row in computed):
        return None
    num = [[x.numerator for x in row] for row in computed]
    den = [[x.denominator for x in row] for row in computed]
    return all(target[p][q] * target[0][0] * num[p][0] * num[0][q] * den[p][q] * den[0][0]
               == target[p][0] * target[0][q] * num[p][q] * num[0][0] * den[p][0] * den[0][q]
               for p, q in cells)


def check_scaled_matrix(block: Sequence[Sequence[Fraction]], genus: int) -> bool | None:
    """Diagnostic: is the evaluated 4x4 block a row/column rescaling of the
    integer reference matrix?  Never changes the verdict."""
    computed = [row[:4] for row in block[:4]]
    return _scaling_match(computed, reference_matrix(genus))


def tau_closed_form(genus: int, a: RationalLike) -> Fraction:
    """Closed form of tau at the projection node for the family parameters,
    in the torsion order used by this package: one integer product of the
    squares, over (g-1)!, times a^(g-2)."""
    a = parse_rational(a)
    k = genus // 2
    if genus % 2 == 0:
        excluded, center, lead = (k - 1, k, k + 1), k, -2 * k * (k + 1)
    else:
        excluded, center, lead = (k - 1, k + 1, k + 2), k + 1, -4 * (k + 1) * (k + 2)
    squares = math.prod((center - l) ** 2 for l in range(1, genus) if l not in excluded)
    return Fraction(lead * squares, math.factorial(genus - 1)) * a ** (genus - 2)


def check_tau_closed_form(block: Sequence[Sequence[Fraction]], closed: Fraction) -> bool:
    """Exact comparison of tau at the projection node (the block's entry
    [4][4]) with its closed form `closed`, tau_closed_form(genus, a) for the
    block's genus and a (a = 1 for B(g)), plus the nonvanishing assertion."""
    value = block[4][4]
    return value != 0 and value == closed


@dataclass(frozen=True)
class InductionReport:
    genus: int
    parity: str
    a: Fraction
    node_index: int
    selected_columns: tuple[tuple[int, int], ...]
    det5: Fraction
    det5_nonzero: bool
    scaled4x4_matches: bool | None
    tau_closed_form_matches: bool
    tau_sign_matches_display: bool

    @property
    def ok(self) -> bool:
        """det5 != 0 and tau(P_r) equal to its closed form; diagnostics never change it."""
        return self.det5_nonzero and self.tau_closed_form_matches

    def to_json_dict(self) -> dict:
        """The fields in their order, rationals as strings and pairs as lists."""
        return {**vars(self), "a": format_rational(self.a), "det5": format_rational(self.det5),
                "selected_columns": [list(p) for p in self.selected_columns]}


def _reports(genus: int, a_values: Sequence[RationalLike]) -> list[InductionReport]:
    """One report per value of a at one genus: B(g), its determinant and the
    scaling diagnostic are computed once, then scaled by powers of each a."""
    values, block = _family_values(genus, a_values), _a_free_block(genus)
    det = det_exact(block)
    shared = dict(genus=genus, parity="even" if genus % 2 == 0 else "odd",
                  node_index=projection_node_index(genus), selected_columns=selected_pairs(genus),
                  scaled4x4_matches=check_scaled_matrix(block, genus))
    reports = []
    for a in values:
        # tau(P_r) is a^(g-2) times B(g)'s, so B(g)'s is held to the closed form
        # over a^(g-2).  The even-parity closed form is usually displayed for the
        # swapped torsion order, i.e. with the opposite sign.
        closed = tau_closed_form(genus, a) / a ** (genus - 2)
        displayed = -closed if genus % 2 == 0 else closed
        det5 = a ** (5 * genus - 9) * det
        reports.append(InductionReport(
            a=a, det5=det5, det5_nonzero=det5 != 0,
            tau_closed_form_matches=check_tau_closed_form(block, closed),
            tau_sign_matches_display=(block[4][4] == displayed), **shared))
    return reports


def verify_det5(genus: int, a: RationalLike) -> InductionReport:
    """The verdict (det5, tau(P_r) against its closed form) and both diagnostics,
    the one-value case of `sweep`.  An inconclusive diagnostic is reported as None."""
    return _reports(genus, [a])[0]


def sweep(g_min: int, g_max: int, a_values: Sequence[RationalLike]) -> list[InductionReport]:
    """One report per (genus, a), ordered by (genus, a); the a-free work is
    done once per genus."""
    values = sorted({parse_rational(a) for a in a_values})
    return [report for genus in range(g_min, g_max + 1) if values
            for report in _reports(genus, values)]
