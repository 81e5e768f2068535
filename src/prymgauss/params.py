"""Curve parameter sources: built-in vectors, seeded draws, JSON files.

Three mutually exclusive sources feed `build_curve`:

* the built-in parameter vectors (prefixes of two fixed length-11 rows,
  enough for genus 4..12);
* a deterministic seeded draw — numerators uniform in [-10^4, 10^4] \\ {0},
  denominators uniform in [1, 100], redrawing on zero or on collision with
  an earlier entry of the same row (rejection is part of the deterministic
  stream, so a seed pins the parameters exactly);
* a JSON parameter file
  {"genus": g, "convention": "paper"|"script",
   "a1": [g-1 rational strings], "a2": [g-1 rational strings]}.

Floats are rejected everywhere; rational entries are "p" or "p/q" strings
(plain JSON integers are also accepted since they are exact).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from .curves import ParameterError
from .exact import format_rational, parse_rational

# Fixed test vectors for genus 4..12: row i of component 1 is 1..11, row i of
# component 2 the second list.  Genus g uses the length-(g-1) prefixes.
BUILTIN_A1: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
BUILTIN_A2: tuple[int, ...] = (326, -28, -875, -97, 20, -651, -523, -306, 369, -31, 99)

NUMERATOR_BOUND = 10_000
DENOMINATOR_BOUND = 100

# Mixing constant for deriving per-genus seeds inside sweeps, so cases are
# independent of execution order.
_SWEEP_SEED_STRIDE = 1_000_003


def builtin_params(genus: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Length-(g-1) prefixes of the built-in vectors; genus must be 4..12."""
    if not 4 <= genus <= len(BUILTIN_A1) + 1:
        raise ParameterError(
            f"built-in parameters cover genus 4..{len(BUILTIN_A1) + 1}, got {genus}")
    n = genus - 1
    return (tuple(Fraction(v) for v in BUILTIN_A1[:n]),
            tuple(Fraction(v) for v in BUILTIN_A2[:n]))


def _draw_row(rng: random.Random, count: int) -> tuple[Fraction, ...]:
    row: list[Fraction] = []
    while len(row) < count:
        num = rng.randint(-NUMERATOR_BOUND, NUMERATOR_BOUND)
        den = rng.randint(1, DENOMINATOR_BOUND)
        if num == 0:
            continue
        value = Fraction(num, den)
        if value in row:
            continue
        row.append(value)
    return tuple(row)


def seeded_params(genus: int, seed: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Deterministic parameter rows for the given seed; genus as in `build_curve`."""
    if type(genus) is not int or genus < 3:
        raise ParameterError(f"genus must be an int >= 3, got {genus!r}")
    rng = random.Random(seed)
    a1 = _draw_row(rng, genus - 1)
    a2 = _draw_row(rng, genus - 1)
    return a1, a2


def sweep_seed(seed: int, genus: int) -> int:
    """Per-genus seed used by sweeps: seed * 1_000_003 + genus."""
    return seed * _SWEEP_SEED_STRIDE + genus


def params_from_file(path: str | Path) -> tuple[int, str, tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Load (genus, convention, a1, a2) from a JSON parameter file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError as exc:
            raise ParameterError(f"parameter file {path} nests too deeply") from exc
    if not isinstance(data, dict):
        raise ParameterError(f"parameter file {path} must hold a JSON object")
    try:
        genus = data["genus"]
        convention = data.get("convention", "paper")
        raw1 = data["a1"]
        raw2 = data["a2"]
    except KeyError as exc:
        raise ParameterError(f"parameter file {path} is missing key {exc}") from exc
    if not isinstance(genus, int) or isinstance(genus, bool):
        raise ParameterError(f"genus must be a JSON integer, got {genus!r}")
    rows = []
    for name, raw in (("a1", raw1), ("a2", raw2)):
        if not isinstance(raw, list):
            raise ParameterError(f"{name} must be a list of rational strings")
        vals = []
        for entry in raw:
            if isinstance(entry, float):
                raise ParameterError(f"{name} contains a float ({entry!r}); only exact rationals are accepted")
            vals.append(parse_rational(entry))
        rows.append(tuple(vals))
    return genus, convention, rows[0], rows[1]


def params_to_file(path: str | Path, genus: int, convention: str,
                   a1, a2) -> None:
    """Write a parameter file in the canonical JSON format."""
    payload = {
        "genus": genus,
        "convention": convention,
        "a1": [format_rational(parse_rational(x)) for x in a1],
        "a2": [format_rational(parse_rational(x)) for x in a2],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
