"""Exact rational parsing and formatting.

The package's API takes exact values as ``fractions.Fraction``, int or
string.  Inside, the checks and solvers work on ints at a common scale: a
list of values is read in one pass (:func:`as_scaled`) into a
:class:`Scaled`, the ints times the lcm of the values' denominators, and
the API hands out its ``Fraction`` values, made when first read.  The CLI
formats a check's costs from ints with :func:`format_ratio`.  Floats are
rejected at all boundaries: the solvers decide strict inequalities and exact
ties, and a single rounded comparison would corrupt verdicts.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Optional

# Unicode minus/dash variants occasionally found in hand-written input files.
_DASHES = {"−": "-", "–": "-", "—": "-"}
# what instance files hold: ASCII integers or integer ratios, read by int()
_PLAIN_LIST = re.compile(r"-?[0-9]+(?:/[0-9]+)?(?:,-?[0-9]+(?:/[0-9]+)?)*")


def to_fraction(value: Fraction | int | str) -> Fraction:
    """Convert an exact value to Fraction, rejecting floats."""
    return value if type(value) is Fraction else as_scaled((value,))[0]


class Scaled(Sequence):
    """Exact values held as ints over one positive scale: value i is
    ``ints[i] / scale``.  It reads as the tuple of those values, as
    ``Fraction``s made on the first read, and equals and hashes as that tuple."""

    __slots__ = ("scale", "ints", "_values")

    def __init__(self, scale: int, ints: Iterable[int]) -> None:
        self.scale, self.ints, self._values = scale, tuple(ints), None

    @property
    def values(self) -> tuple[Fraction, ...]:
        if self._values is None:
            self._values = tuple(Fraction(*_halved(v, self.scale)) for v in self.ints)
        return self._values

    def __len__(self) -> int:
        return len(self.ints)

    def __getitem__(self, i):
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        if isinstance(other, Scaled):
            if other.scale == self.scale:
                return self.ints == other.ints
            other = other.values
        return self.values == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return repr(self.values)


def as_scaled(values: Iterable, where: Optional[Callable[[int], str]] = None) -> Scaled:
    """The values as ints over the lcm of their denominators, in one pass.

    A list of what instance files hold, ASCII "n" and "n/m", is matched once,
    joined by commas, and each value read by int(), which refuses a value
    that holds a comma and digits past its limit.  Otherwise each value is
    read alone: a Fraction or an int as it is, a string by
    :func:`_parse_text`, and anything else, floats and booleans among them,
    is refused.  A Scaled is returned as it is.  With ``where``, the values
    are an instance file's: an error is a ValueError that starts with the
    value's place, ``where(i)``, and a float is refused as a JSON float.
    """
    if type(values) is Scaled:
        return values
    values = list(values)
    nums, dens = [], []
    try:
        if not _PLAIN_LIST.fullmatch(",".join(values)):
            raise ValueError("not all plain")
        for v in values:
            num, _, den = v.partition("/")
            num, den = int(num), int(den or 1)
            if not den:  # "n/0": reported below
                raise ZeroDivisionError(v)
            g = gcd(num, den)
            nums.append(num // g)
            dens.append(den // g)
    except (TypeError, ValueError, ZeroDivisionError):
        nums, dens = [], []
        for i, v in enumerate(values):
            try:
                if type(v) is Fraction:
                    pass
                elif isinstance(v, str):
                    v = _parse_text(v)
                elif isinstance(v, bool):
                    raise TypeError("booleans are not rational values")
                elif where and isinstance(v, float):
                    raise TypeError("JSON floats are not exact; write the value as a string")
                elif not isinstance(v, (Fraction, int)):
                    raise TypeError(
                        f"expected Fraction, int, or string, got {type(v).__name__}"
                        " (floats are not exact; pass a string like '2.5' or '-21/2')"
                    )
            except (ValueError, TypeError) as exc:
                if where is None:
                    raise
                raise ValueError(f"{where(i)}: {exc}") from exc
            nums.append(v.numerator)
            dens.append(v.denominator)
    d = lcm(*dens)
    return Scaled(d, nums if d == 1 else [v * (d // q) for v, q in zip(nums, dens)])


def _parse_text(text: str) -> Fraction:
    """``Fraction(text)`` after trimming whitespace and replacing Unicode dashes."""
    cleaned = text.strip()
    for bad, good in _DASHES.items():
        cleaned = cleaned.replace(bad, good)
    try:
        return Fraction(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def _halved(num: int, den: int) -> tuple[int, int]:
    """num / den with their common power of two shifted out, (0, 1) for 0: a
    gcd of huge ints is slow to find a large power of two, and is then short."""
    if not num:
        return 0, 1
    t = min((num & -num).bit_length(), (den & -den).bit_length()) - 1
    return num >> t, den >> t


def format_ratio(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for den > 0, with the common power of two
    shifted out: only the odd part of den, short for segment scales, meets gcd."""
    num, den = _halved(num, den)
    g = gcd(num, den >> (den & -den).bit_length() - 1)
    return str(num // g) if den == g else f"{num // g}/{den // g}"
