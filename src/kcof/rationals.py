"""Exact rational parsing and formatting.

Every quantity in this package is a ``fractions.Fraction``.  Floats are
rejected at all boundaries: the solvers decide strict inequalities and exact
ties, and a single rounded comparison would corrupt verdicts.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

# Unicode minus/dash variants occasionally found in hand-written input files.
_DASHES = {"−": "-", "–": "-", "—": "-"}


def to_fraction(value: Fraction | int | str) -> Fraction:
    """Convert an exact value to Fraction, rejecting floats."""
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
