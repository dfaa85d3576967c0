"""Exact verification of finite-support mixed equilibria.

Players randomize independently over finite opinion supports.  Expectations
are computed by enumerating the full product distribution exactly - no
sampling anywhere.  :func:`check_mixed` enumerates it once, at one integer
scale for all opinions and the beliefs' ``GameInstance.s_int``, from
:meth:`kcof.game.GameInstance.at` (and each player's probabilities as
integers over their own lcm denominator, from :func:`kcof._accel.scaled`).
Per realization it sorts the opinions once (:func:`kcof._accel.sorted_view`)
and ranks every player with :func:`kcof._accel.span`, which walks out from
her belief through the sorted values, one group of equal values at a time,
to her k nearest opinions; from the spans it takes every player's cost and
every player's deviation interval.  The verdict, the expected player and social costs and
each player's best deterministic deviation are fields of its
:class:`MixedCheck`.  A realization costs O(n k log n), with at most two
walks per player.  The cap :data:`MAX_WORK` bounds realizations x n^2,
which keeps the largest admitted profile to seconds rather than hours.
That bound is loose for large n (a walk finds at most k + 2 groups, not
n - 1 opinions), and it stays the admission rule so that the same profiles
are admitted.

A profile is a mixed Nash equilibrium when no player can lower her expected
cost with any deterministic opinion.  Against a fixed realization of the
others, the deviator's cost is the distance to the farthest point of an
interval spanning her belief and her neighbors' opinions, so her expected
deviation cost is a convex piecewise-linear function of the deviation,
and every kink is the midpoint of one realization's interval.  It tends to
+infinity on both sides, so its smallest minimizer is a kink.  The kinks
alone are evaluated exactly, in one sweep over them in increasing order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from typing import Sequence

from ._accel import scaled, sorted_view, span
from .game import GameInstance
from .rationals import to_fraction

__all__ = [
    "MAX_WORK",
    "RandomizedOpinions",
    "as_randomized",
    "MixedViolation",
    "MixedVerdict",
    "MixedCheck",
    "check_mixed",
]

# realizations x n^2 bounds a check's work: one sort and n short walks per
# realization, and a sweep over each player's kinks for her deviation
MAX_WORK = 10**7

Support = tuple[tuple[Fraction, Fraction], ...]  # (opinion, probability) pairs
RandomizedOpinions = tuple[Support, ...]


def as_randomized(inst: GameInstance, rz: Sequence) -> RandomizedOpinions:
    """Validate per-player supports: positive probabilities, exact sum 1."""
    if len(rz) != inst.n:
        raise ValueError(f"expected {inst.n} supports, got {len(rz)}")
    out: list[Support] = []
    count = 1
    for i, support in enumerate(rz):
        pairs = tuple(
            (to_fraction(op), to_fraction(pr)) for op, pr in support
        )
        if not pairs:
            raise ValueError(f"player {i} has an empty support")
        opinions = [op for op, _ in pairs]
        if len(set(opinions)) != len(opinions):
            raise ValueError(f"player {i} lists a duplicate support opinion")
        if any(pr <= 0 for _, pr in pairs):
            raise ValueError(f"player {i} has a non-positive probability")
        if sum(pr for _, pr in pairs) != 1:
            raise ValueError(f"player {i}'s probabilities do not sum to 1")
        count *= len(pairs)
        out.append(pairs)
    work = count * inst.n**2
    if work > MAX_WORK:
        raise ValueError(
            f"{count} realizations of {inst.n} players: {count} x {inst.n}^2 = {work} "
            f"exceeds the exact-enumeration cap {MAX_WORK}"
        )
    return tuple(out)


def _mean_opinion(support: Support) -> Fraction:
    return sum((op * pr for op, pr in support), Fraction(0))


def _best_deviation(spans: dict[tuple[int, int], int]) -> tuple[int, int]:
    """Smallest minimizer of g(y) = sum of w * max(y - 2 lo, 2 hi - y), and g there.

    ``spans`` maps each deviation interval [lo, hi] to its weight; y runs
    over every kink lo + hi, in doubled units.  An interval whose kink is at
    most y contributes w * (y - 2 lo), the others w * (2 hi - y); the sweep
    moves the intervals from the second sum to the first in order of their
    kinks.
    """
    kinks = sorted((lo + hi, lo, hi, w) for (lo, hi), w in spans.items())
    w_left = lo_left = 0
    w_right = sum(w for *_, w in kinks)
    hi_right = sum(2 * hi * w for _, _, hi, w in kinks)
    best_y = best = None
    p = 0
    for y, _, _, _ in kinks:
        while p < len(kinks) and kinks[p][0] <= y:
            _, lo, hi, w = kinks[p]
            w_left += w
            lo_left += 2 * lo * w
            w_right -= w
            hi_right -= 2 * hi * w
            p += 1
        g = w_left * y - lo_left + hi_right - w_right * y
        if best is None or g < best:
            best_y, best = y, g
    assert best_y is not None and best is not None
    return best_y, best


@dataclass(frozen=True)
class MixedViolation:
    player: int
    deviation: Fraction
    improvement: Fraction


@dataclass(frozen=True)
class MixedVerdict:
    is_mne: bool
    violations: tuple[MixedViolation, ...]

    def __bool__(self) -> bool:
        return self.is_mne


@dataclass(frozen=True)
class MixedCheck:
    """Everything one enumeration of the realizations decides about a profile.

    ``deviations[i]`` is player i's best deterministic deviation and its
    expected cost (ties prefer the smallest deviation).
    """

    verdict: MixedVerdict
    expected_costs: tuple[Fraction, ...]
    expected_social_cost: Fraction
    deviations: tuple[tuple[Fraction, Fraction], ...]


def check_mixed(inst: GameInstance, rz: Sequence) -> MixedCheck:
    """Verdict, expected costs and best deviations in one pass over the realizations.

    Per realization each player is ranked with her realized opinion as the
    tie reference, which gives her cost.  Her deviation interval depends on
    the others' realization only, with the mean of her own strategy as the
    tie reference (for a one-point support that is exactly the
    deterministic tie rule), so it is taken once per realization of the
    others: where she plays her first support point.
    """
    supports = as_randomized(inst, rz)
    n, k = inst.n, inst.k
    means = [_mean_opinion(sup) for sup in supports]
    d, s, ints = inst.at((*means, *(op for sup in supports for op, _ in sup)))
    ref, ops = ints[:n], iter(ints[n:])
    qs, probs = zip(*(scaled([pr for _, pr in sup]) for sup in supports))
    q = prod(qs)  # the denominator of a realization's weight
    int_supports = [tuple((next(ops), pr) for pr in ps) for ps in probs]
    first = [sup[0] for sup in int_supports]

    totals = [0] * n
    spans: list[dict[tuple[int, int], int]] = [defaultdict(int) for _ in range(n)]
    for combo in product(*int_supports):
        z = [op for op, _ in combo]
        w = 1
        for _, pr in combo:
            w *= pr
        view = sorted_view(z)
        for i, zi in enumerate(z):
            _, lo, hi = span(s, z, k, i, zi, view)
            totals[i] += w * max(zi - lo, hi - zi)
            op0, w0 = first[i]
            if zi == op0:
                if ref[i] != zi:
                    _, lo, hi = span(s, z, k, i, ref[i], view)
                spans[i][lo, hi] += w // w0

    costs = tuple(Fraction(t, d * q) for t in totals)
    deviations = []
    violations = []
    for i in range(n):
        y, g = _best_deviation(spans[i])
        y_star, deviated = Fraction(y, 2 * d), Fraction(g, 2 * d * (q // qs[i]))
        deviations.append((y_star, deviated))
        if deviated < costs[i]:
            violations.append(MixedViolation(i, y_star, costs[i] - deviated))
    return MixedCheck(
        MixedVerdict(not violations, tuple(violations)),
        costs,
        Fraction(sum(totals), d * q),
        tuple(deviations),
    )
