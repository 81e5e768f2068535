"""The first Gaussian map of a Prym-canonical binary curve, as an exact matrix.

For sections sigma_i, sigma_j (the coordinate hyperplane sections) the map
splits into a polynomial part and a torsion part:

* nu_{ij,h}(t) = alpha_{i,h} alpha'_{j,h} - alpha_{j,h} alpha'_{i,h} on
  component h, a polynomial of degree <= 2g-4 (the top terms cancel);
* one scalar per node P_h, h = 1..g+1: with d_{i,eps,h} the slope of
  alpha_{i,eps} at P_h,

      tau(i,j)_h = d_{j,1,h} d_{i,2,h} - d_{i,1,h} d_{j,2,h},

  one antisymmetric product over the g+1 node rows.  At P_1..P_g (P_g at
  t=0) the slope is alpha_i' at the node's parameter; at P_{g+1} it is the
  u-chart derivative at u = 0.  Since uchart_i(u) = u^(g-1) alpha_i(1/u),
  that is alpha_i's coefficient of degree g-2.

The assembled matrix has one row per pair (i, j), 1 <= i < j <= g-1, in
lexicographic order, and 5g-5 columns: the 2g-3 coefficients of nu_{ij,1}
(ascending degree), the 2g-3 coefficients of nu_{ij,2}, tau at
P_1..P_{g+1}.  `_cleared_rows` works over the integer coordinates of
`curves._cleared_alphas`, and `assemble_matrix` divides its integer rows by
one fixed denominator per column: with alpha_i = P_i/den per component,
nu_{ij} = (P_i P_j' - P_j P_i')/den^2, alpha_i' at a node n/m is P_i' by
integer Horner homogenised by m^(g-2), over m^(g-2) den, and the slope at
P_{g+1} is P_i's coefficient of degree g-2 over den.

For the default normalization ("paper" convention) each nu_{ij,h} also has a
closed form in three regimes (k = floor(g/2), a = parameter row h,
B = prod_{r != i, j} (t - a_r)):

    i < j <= k:      (a_i - a_j) t^2 B^2
    k < i < j:       (a_i - a_j) a_i a_j / A2^2 * B^2
    i <= k < j:      (-1)^h a_j / A2 * (t^2 - 2 a_i t + a_i a_j) B^2

`nu_closed_form` evaluates them, and the `oracle` command checks the nu
blocks of `assemble_matrix` against it.

`assemble_mod_p` builds the image of the same map over Z/pZ without any
rational arithmetic, whole or one range of its rows (the fast rank's row
blocks).  It samples each nu_{ij,h} at the 2g-3 points 0..2g-4
(`evaluation_points`) instead of storing its coefficients, so its array
equals reduce_p(M) * blockdiag(V, V, I), where V[d, k] = x_k^d is the
Vandermonde matrix of the points.  V is invertible mod p (the points are
distinct and p > 2g), so the rank mod p is the rank of reduce_p(M).  numpy
is imported inside `assemble_mod_p` and `_cofactors_mod_p`, not with the
module, so the exact routes and the serializers run without it.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .curves import CONVENTIONS, PrymBinaryCurve, _cleared_alphas, _homogeneous_value
from .exact import format_rational, mod_p, parse_rational, reduce_mod_p

if TYPE_CHECKING:
    import numpy as np


def row_pairs(genus: int) -> tuple[tuple[int, int], ...]:
    """Lexicographic (i, j) pairs, 1 <= i < j <= g-1: the row order."""
    return tuple((i, j) for i in range(1, genus - 1) for j in range(i + 1, genus))


def matrix_shape(genus: int) -> tuple[int, int]:
    """(rows, cols) = ((g-1)(g-2)/2, 5g-5)."""
    return (genus - 1) * (genus - 2) // 2, 5 * genus - 5


def column_layout(genus: int) -> dict:
    """Column block boundaries, matching the row serialization."""
    width = 2 * genus - 3
    return {
        "nu1": [0, width],
        "nu2": [width, 2 * width],
        "tau_interior": [2 * width, 2 * width + genus],
        "tau_infinity": 2 * width + genus,
    }


def nu_closed_form(curve: PrymBinaryCurve, i: int, j: int, h: int) -> tuple[Fraction, ...]:
    """Closed form for nu_{ij,h}: its 2g-3 coefficients, ascending, laid out
    like a nu block of a matrix row.  Defined for the paper convention and
    i < j; B is a product of cleared linear factors (d_r t - n_r), so nothing
    is divided.
    """
    if curve.convention != "paper":
        raise ValueError("closed forms are stated for the paper convention only")
    if not 1 <= i < j <= curve.genus - 1:
        raise ValueError(f"need 1 <= i < j <= g-1, got ({i}, {j})")
    a = curve.params(h)
    ai, aj = a[i - 1], a[j - 1]
    b, den = [1], 1
    for r, root in enumerate(a, start=1):
        if r not in (i, j):   # b * (d_r t - n_r)
            b = [root.denominator * hi - root.numerator * lo for hi, lo in zip([0] + b, b + [0])]
            den *= root.denominator
    if j <= curve.k:
        scale, factor = ai - aj, (0, 0, 1)
    elif i > curve.k:
        scale, factor = (ai - aj) * ai * aj / (curve.A2 * curve.A2), (1,)
    else:
        scale, factor = (-1 if h == 1 else 1) * aj / curve.A2, (ai * aj, -2 * ai, 1)
    square = [0] * (2 * len(b) - 1)
    for d, x in enumerate(b):
        for e, y in enumerate(b, start=d):
            square[e] += x * y
    out = [0] * (2 * curve.genus - 3)   # factor * b^2, then scaled by scale / den^2
    for d, z in enumerate(factor):
        for e, x in enumerate(square, start=d):
            out[e] += z * x
    scale /= den * den
    return tuple(scale * x for x in out)


@dataclass(frozen=True)
class GaussMatrix:
    """Exact matrix of the first Gaussian map plus its layout descriptor."""
    genus: int
    convention: str
    entries: tuple[tuple[Fraction, ...], ...]

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return row_pairs(self.genus)

    @property
    def layout(self) -> dict:
        return column_layout(self.genus)


def _wronskian(p: list[int], q: list[int], width: int) -> list[int]:
    """Coefficients of p q' - q p' in degrees 0..width-1; ValueError if one
    of higher degree is nonzero (never a silent truncation).  The terms
    pair up: p q' - q p' = sum over a < c of (c - a)(p_a q_c - p_c q_a)
    t^(a+c-1), for p and q of equal length."""
    out = [0] * (2 * len(p) - 2)
    for c in range(1, len(p)):
        pc, qc = p[c], q[c]
        for a in range(c):
            out[a + c - 1] += (c - a) * (p[a] * qc - pc * q[a])
    if any(out[width:]):
        raise ValueError(f"nu has a nonzero coefficient above degree {width - 1}")
    return out[:width]


def _cleared_rows(curve: PrymBinaryCurve) -> tuple[list[list[int]], list[int]]:
    """(rows, column_dens): the integer numerators of every row, unreduced,
    and each column's fixed denominator, so that the matrix of
    `assemble_matrix` is rows[r][c] / column_dens[c] (see the module
    docstring)."""
    g = curve.genus
    width = 2 * g - 3
    comps = []
    for eps in (1, 2):
        polys, den = _cleared_alphas(curve, eps)
        derivs = [[d * c for d, c in enumerate(poly)][1:] for poly in polys]
        nodes = [(x.numerator, x.denominator) for x in curve.params(eps)] + [(0, 1)]
        # alpha_i' at P_1..P_g, then the u-chart slope at P_{g+1}.
        comps.append((polys, den,
                      [[_homogeneous_value(dp, n, m) for n, m in nodes] + [poly[g - 2]]
                       for poly, dp in zip(polys, derivs)],
                      [den * m ** (g - 2) for _, m in nodes] + [den]))
    (p1, den1, v1, n1), (p2, den2, v2, n2) = comps
    rows = []
    for i, j in row_pairs(g):
        i, j = i - 1, j - 1
        row = _wronskian(p1[i], p1[j], width)
        row += _wronskian(p2[i], p2[j], width)
        # tau(i, j) = d_{j,1} d_{i,2} - d_{i,1} d_{j,2} at each of the g+1 nodes.
        row += [a * b - c * d for a, b, c, d in zip(v1[j], v2[i], v1[i], v2[j])]
        rows.append(row)
    return rows, [den1 * den1] * width + [den2 * den2] * width + [x * y for x, y in zip(n1, n2)]


def assemble_matrix(curve: PrymBinaryCurve) -> GaussMatrix:
    """The rational matrix: one Fraction per cell of `_cleared_rows`."""
    rows, dens = _cleared_rows(curve)
    entries = tuple(tuple(map(Fraction, row, dens)) for row in rows)
    return GaussMatrix(genus=curve.genus, convention=curve.convention, entries=entries)


# -- modular image ------------------------------------------------------

def evaluation_points(genus: int) -> tuple[int, ...]:
    """The 2g-3 points at which `assemble_mod_p` samples each nu_{ij,h}."""
    return tuple(range(2 * genus - 3))


def _cofactors_mod_p(points: np.ndarray, roots: np.ndarray,
                     p: int) -> tuple[np.ndarray, np.ndarray]:
    """Q[i, h, k] = prod_{r != i} (x_{h,k} - roots_{h,r}) mod p, and dQ/dt there,
    for points (2, m) and roots (2, n), one row per component.  Built from
    prefix and suffix products and their derivatives (product rule), so
    nothing is divided and a point may equal a root."""
    import numpy as np

    diff = (points[None, :, :] - roots.T[:, :, None]) % p
    n = len(diff)
    pre = np.ones((n + 1, *diff.shape[1:]), dtype=np.int64)
    dpre = np.zeros_like(pre)
    suf = np.ones_like(pre)
    dsuf = np.zeros_like(pre)
    for r in range(n):
        pre[r + 1] = pre[r] * diff[r] % p
        dpre[r + 1] = (dpre[r] * diff[r] + pre[r]) % p
        s = n - 1 - r
        suf[s] = suf[s + 1] * diff[s] % p
        dsuf[s] = (dsuf[s + 1] * diff[s] + suf[s + 1]) % p
    q = mod_p(pre[:n] * suf[1:], p)
    dq = mod_p(mod_p(dpre[:n] * suf[1:], p) + pre[:n] * dsuf[1:], p)
    return q, dq


def _antisymmetric(x: np.ndarray, y: np.ndarray, first, second, p: int) -> np.ndarray:
    """x[i] y[j] - x[j] y[i] mod p for every pair (i, j), one row per pair."""
    return mod_p(mod_p(x[first] * y[second], p) - x[second] * y[first], p)


def assemble_mod_p(curve: PrymBinaryCurve, p: int, rows: slice = slice(None)) -> np.ndarray:
    """The rows `row_pairs(g)[rows]` (all by default) of the Gaussian-map
    matrix over Z/pZ in the evaluation basis (int64).

    Column block h holds nu_{ij,h} at `evaluation_points`; the torsion
    columns are those of `assemble_matrix`, reduced mod p.  Each value comes
    from product formulas in the reduced parameters, for both components at
    once: alpha_i = Q_i (delta_i t - c_i) with Q_i = M/(t - a_i), and the
    u-chart slope at P_{g+1} is -delta_i (sum_r a_r - a_i) - c_i.

    Raises BadPrimeError when a parameter a_r or a constant c_i has a
    denominator divisible by p; every entry of the rational matrix is a
    polynomial in those values, so otherwise none of its denominators is
    divisible by p either.
    """
    import numpy as np

    g = curve.genus
    constants = [[curve.coeff_pair(i, eps) for i in range(1, g)] for eps in (1, 2)]
    # One reduction per prime: rows a1, a2, c(component 1), c(component 2).
    reduced = reduce_mod_p([curve.a1, curve.a2] + [[c for _, c in row] for row in constants], p)
    roots, c = reduced[:2], reduced[2:]
    delta = np.array([[d for d, _ in row] for row in constants], dtype=np.int64)
    pairs = row_pairs(g)[rows]
    first, second = np.array(pairs, dtype=np.intp).reshape(-1, 2).T - 1
    width = 2 * g - 3
    # Sample points first, then the interior nodes t = a_1..a_{g-1}, 0.
    points = np.concatenate((np.broadcast_to(np.array(evaluation_points(g)), (2, width)),
                             roots, np.zeros((2, 1), dtype=np.int64)), axis=1)
    q, dq = _cofactors_mod_p(points, roots, p)
    lin = (delta.T[:, :, None] * points - c.T[:, :, None]) % p
    alpha = mod_p(q * lin, p)
    dalpha = mod_p(mod_p(dq * lin, p) + q * delta.T[:, :, None], p)
    nu = _antisymmetric(alpha[:, :, :width], dalpha[:, :, :width], first, second, p)
    slope = (delta * (roots - roots.sum(axis=1, keepdims=True) % p) - c) % p
    derivs = np.concatenate((dalpha[:, :, width:], slope.T[:, :, None]), axis=2)
    # tau(i, j) = d1_j d2_i - d1_i d2_j at P_1..P_{g+1}.
    tau = _antisymmetric(derivs[:, 1], derivs[:, 0], first, second, p)
    return np.concatenate((nu.reshape(len(pairs), 2 * width), tau), axis=1)


# -- serialization ------------------------------------------------------
#
# JSON: {"genus", "convention", "layout", "rows": [[rational strings]]}.
# Binary: the header "PGMX" + version byte 1, then genus, convention flag
# (0 = paper, 1 = script), row count and column count as little-endian
# uint32, then every cell in row-major order as a uint32 length prefix
# followed by that many ASCII bytes of the "p" or "p/q" decimal literal.
# Both formats are stable.  No command reads a matrix file:
# `matrix_from_bytes` and `matrix_from_json` read them back for the tests
# and the benchmark's round trips.

_BIN_MAGIC = b"PGMX"
_BIN_VERSION = 1
_BIN_HEADER = struct.Struct("<BIBII")


def matrix_to_json(matrix: GaussMatrix) -> str:
    payload = {
        "genus": matrix.genus,
        "convention": matrix.convention,
        "layout": {
            "row_pairs": [list(p) for p in matrix.pairs],
            "columns": matrix.layout,
        },
        "rows": [[format_rational(x) for x in row] for row in matrix.entries],
    }
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def _check_shape(genus, nrows: int, ncols: int) -> None:
    """ValueError unless (nrows, ncols) is the matrix shape of a genus >= 3."""
    if not isinstance(genus, int) or isinstance(genus, bool) or genus < 3:
        raise ValueError(f"matrix genus must be an integer >= 3, got {genus!r}")
    expected = matrix_shape(genus)
    if (nrows, ncols) != expected:
        raise ValueError(f"matrix shape {(nrows, ncols)} does not match genus "
                         f"{genus} (expected {expected})")


def matrix_from_json(text: str) -> GaussMatrix:
    """Parse `matrix_to_json` output; ValueError unless it is one whole matrix.

    The shape is checked before any cell is parsed, as `matrix_from_bytes`
    checks its header."""
    try:
        data = json.loads(text)
    except RecursionError as exc:
        raise ValueError("matrix JSON nests too deeply") from exc
    if not isinstance(data, dict):
        raise ValueError(f"matrix JSON must be an object, got {type(data).__name__}")
    missing = [key for key in ("genus", "convention", "rows") if key not in data]
    if missing:
        raise ValueError(f"matrix JSON lacks {', '.join(missing)}")
    if data["convention"] not in CONVENTIONS:
        raise ValueError(f"matrix convention must be one of {CONVENTIONS}, "
                         f"got {data['convention']!r}")
    rows = data["rows"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("matrix JSON rows must be a list of lists")
    ncols = len(rows[0]) if rows else 0
    _check_shape(data["genus"], len(rows), ncols)
    if any(len(row) != ncols for row in rows):
        raise ValueError("matrix rows differ in length")
    entries = tuple(tuple(parse_rational(x) for x in row) for row in rows)
    return GaussMatrix(genus=data["genus"], convention=data["convention"], entries=entries)


def matrix_to_bytes(matrix: GaussMatrix) -> bytes:
    flag = 0 if matrix.convention == "paper" else 1
    out = [_BIN_MAGIC, _BIN_HEADER.pack(_BIN_VERSION, matrix.genus, flag,
                                        matrix.rows, matrix.cols)]
    for row in matrix.entries:
        for cell in row:
            text = format_rational(cell).encode("ascii")
            out.append(struct.pack("<I", len(text)))
            out.append(text)
    return b"".join(out)


def matrix_from_bytes(blob: bytes) -> GaussMatrix:
    """Parse a binary dump; ValueError unless it is exactly one whole matrix."""
    if blob[:4] != _BIN_MAGIC:
        raise ValueError("not a matrix dump (bad magic)")
    offset = 4 + _BIN_HEADER.size
    if len(blob) < offset:
        raise ValueError(f"truncated matrix dump: {len(blob)} bytes, header needs {offset}")
    version, genus, flag, nrows, ncols = _BIN_HEADER.unpack_from(blob, 4)
    if version != _BIN_VERSION:
        raise ValueError(f"unsupported matrix dump version {version}")
    if flag not in (0, 1):
        raise ValueError(f"unknown convention flag {flag} in matrix dump")
    _check_shape(genus, nrows, ncols)
    size = len(blob)
    rows = []
    for _ in range(nrows):
        row = []
        for _ in range(ncols):
            start = offset + 4
            if start > size:
                raise ValueError(f"truncated matrix dump: cell length prefix at byte {offset}")
            end = start + int.from_bytes(blob[offset:start], "little")
            if end > size:
                raise ValueError(f"truncated matrix dump: cell at byte {start} ends past {size}")
            row.append(parse_rational(blob[start:end].decode("ascii")))
            offset = end
        rows.append(tuple(row))
    if offset != size:
        raise ValueError(f"{size - offset} trailing bytes after the last matrix cell")
    return GaussMatrix(genus=genus, convention="paper" if flag == 0 else "script",
                       entries=tuple(rows))


def matrix_checksum(matrix: GaussMatrix) -> str:
    """SHA-256 of the canonical JSON serialization (regression anchor)."""
    import hashlib

    return hashlib.sha256(matrix_to_json(matrix).encode("utf-8")).hexdigest()
