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
column (i, j) is

    s a^(2g-3) nu,  s a^(2g-4) nu',  nu,  nu',
    (sigma_j - sigma_i) a^(g-2) alpha_i' alpha_j',

each entry one Fraction of integers: the values at the node of the nu
blocks of `assemble_matrix`, of their derivatives and of its tau column
(tau = alpha'_{j,1} alpha'_{i,2} - alpha'_{i,1} alpha'_{j,2}) at P_r on the
same curve.  The tests check the block against a sympy construction of the
coordinates and the rescaling on both components.

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


def family_curve(genus: int, a: RationalLike) -> PrymBinaryCurve:
    """The induction family a_{i,1} = i*a, a_{i,2} = i, paper convention.  With
    a != 0 each row is nonzero and distinct, so the rows are not checked again."""
    a = parse_rational(a)
    if a in (0, 1):
        raise ValueError("family parameter a must avoid 0 and 1")
    if genus < 13:
        raise ValueError(f"the induction step starts at genus 13, got {genus}")
    a1 = [Fraction(i * a.numerator, a.denominator) for i in range(1, genus)]
    a2 = [Fraction(i) for i in range(1, genus)]
    return PrymBinaryCurve(genus, a1, a2, "paper")


def selected_pairs(genus: int) -> tuple[tuple[int, int], ...]:
    """The five column pairs of the induction submatrix."""
    k = genus // 2
    if genus % 2 == 0:
        return ((1, k), (2, k), (k, genus - 2), (k, genus - 1), (k - 1, k + 1))
    return ((2, k + 1), (3, k + 1), (k + 1, genus - 2), (k + 1, genus - 1), (k - 1, k + 2))


def build_induction_submatrix(genus: int, a: RationalLike) -> tuple[tuple[Fraction, ...], ...]:
    """The 5x5 block as its rows: column q belongs to the q-th pair of
    `selected_pairs(genus)`, rows nu_1, nu_1', nu_2, nu_2' and tau.  One
    `alpha_jets` call on component 2; component 1's rows are its rescaling by
    powers of a (module docstring), so no polynomial and no second jet pass."""
    curve = family_curve(genus, a)
    p, q = curve.a1[0].numerator, curve.a1[0].denominator      # a_{1,1} = a
    r = projection_node_index(genus)
    pairs = selected_pairs(genus)
    jets = curve.alpha_jets(2, curve.a2[r - 1], {i for pair in pairs for i in pair})
    sigma = {i: 1 if i <= curve.k else -1 for i in jets}
    p_tau, q_tau = p ** (genus - 2), q ** (genus - 2)
    p_nu, q_nu = p_tau * p_tau, q_tau * q_tau                  # a^(2g-4)
    cols = []
    for (i, j) in pairs:
        (ai, di, ddi, den_i), (aj, dj, ddj, den_j) = jets[i], jets[j]
        nu, dnu, den = ai * dj - aj * di, ai * ddj - aj * ddi, den_i * den_j
        s = sigma[i] * sigma[j]
        cols.append((Fraction(s * p_nu * p * nu, q_nu * q * den),
                     Fraction(s * p_nu * dnu, q_nu * den), Fraction(nu, den), Fraction(dnu, den),
                     Fraction((sigma[j] - sigma[i]) * p_tau * di * dj, q_tau * den)))
    return tuple(zip(*cols))


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
    [4][4]) with its closed form `closed`, which is tau_closed_form(genus, a)
    for the block's genus and a, plus the nonvanishing assertion."""
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
        return {
            "genus": self.genus,
            "parity": self.parity,
            "a": format_rational(self.a),
            "node_index": self.node_index,
            "selected_columns": [list(p) for p in self.selected_columns],
            "det5": format_rational(self.det5),
            "det5_nonzero": self.det5_nonzero,
            "scaled4x4_matches": self.scaled4x4_matches,
            "tau_closed_form_matches": self.tau_closed_form_matches,
            "tau_sign_matches_display": self.tau_sign_matches_display,
        }


def verify_det5(genus: int, a: RationalLike) -> InductionReport:
    """The verdict (det5, tau(P_r) against its closed form) and both diagnostics.

    An inconclusive scaling diagnostic is reported as None.
    """
    a = parse_rational(a)
    block = build_induction_submatrix(genus, a)
    det5 = det_exact(block)
    closed = tau_closed_form(genus, a)
    # Display convention: the even-parity closed form is usually quoted for
    # the swapped torsion order, i.e. with the opposite sign.
    displayed = -closed if genus % 2 == 0 else closed
    return InductionReport(
        genus=genus, parity="even" if genus % 2 == 0 else "odd", a=a,
        node_index=projection_node_index(genus), selected_columns=selected_pairs(genus),
        det5=det5, det5_nonzero=det5 != 0,
        scaled4x4_matches=check_scaled_matrix(block, genus),
        tau_closed_form_matches=check_tau_closed_form(block, closed),
        tau_sign_matches_display=(block[4][4] == displayed),
    )


def sweep(g_min: int, g_max: int, a_values: Sequence[RationalLike]) -> list[InductionReport]:
    """One report per (genus, a), ordered by (genus, a)."""
    values = sorted({parse_rational(a) for a in a_values})
    reports = []
    for genus in range(g_min, g_max + 1):
        for a in values:
            reports.append(verify_det5(genus, a))
    return reports
