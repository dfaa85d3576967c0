"""Exact rational parsing and formatting.

The package's API takes and returns exact values as ``fractions.Fraction``
(or int).  Inside, the checks and solvers work on ints at a common scale,
and the CLI formats a check's costs from them with :func:`format_ratio`.
Floats are rejected at all boundaries: the solvers decide strict
inequalities and exact ties, and a single rounded comparison would corrupt
verdicts.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

# Unicode minus/dash variants occasionally found in hand-written input files.
_DASHES = {"−": "-", "–": "-", "—": "-"}
# what instance files hold: an ASCII integer or integer ratio, read by int()
_PLAIN = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def to_fraction(value: Fraction | int | str) -> Fraction:
    """Convert an exact value to Fraction, rejecting floats."""
    if type(value) is str:  # an instance file's values: skip the slower tests below
        return parse_rational(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rational values")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(
        f"expected Fraction, int, or string, got {type(value).__name__}"
        " (floats are not exact; pass a string like '2.5' or '-21/2')"
    )


def parse_rational(text: str) -> Fraction:
    """Parse "3", "-21/2", or "2.5" into an exact Fraction."""
    plain = _PLAIN.fullmatch(text)
    if plain:
        num, den = plain.groups()
        try:
            if den is None:
                return Fraction(int(num))
            if int(den):
                return Fraction(int(num), int(den))
        except ValueError:  # past the interpreter's digit limit: reported below
            pass
    return _parse_text(text)


def _parse_text(text: str) -> Fraction:
    """``Fraction(text)`` after trimming whitespace and replacing Unicode dashes."""
    cleaned = text.strip()
    for bad, good in _DASHES.items():
        cleaned = cleaned.replace(bad, good)
    try:
        return Fraction(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "3" or "-21/2" (inverse of parse_rational)."""
    return str(value)


def format_ratio(num: int, den: int) -> str:
    """``format_rational(Fraction(num, den))`` for den > 0, with the common power
    of two shifted out: only the odd part of den, short for segment scales, meets gcd."""
    if not num:
        return "0"
    t = min((num & -num).bit_length(), (den & -den).bit_length()) - 1
    num, den = num >> t, den >> t
    g = gcd(num, den >> (den & -den).bit_length() - 1)
    return str(num // g) if den == g else f"{num // g}/{den // g}"
