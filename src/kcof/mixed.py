"""Exact verification of finite-support mixed equilibria.

Players randomize independently over finite opinion supports.  Expectations
are computed by enumerating the full product distribution exactly - no
sampling anywhere - which the realization cap keeps affordable (known
constructions randomize two players over two points each).

A profile is a mixed Nash equilibrium when no player can lower her expected
cost with any deterministic opinion.  Against a fixed realization of the
others, the deviator's cost is the distance to the farthest point of an
interval spanning her belief and her neighbors' opinions, so her expected
deviation cost is a convex piecewise-linear function of the deviation; its
minimum sits at a kink, and every kink is the midpoint of one realization's
interval.  Those midpoints (plus the player's own support and the beliefs,
as a belt-and-braces probe) are evaluated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Sequence

from ._accel import ranked
from .game import GameInstance, as_opinions, is_pure_nash, player_cost
from .rationals import to_fraction

__all__ = [
    "MAX_REALIZATIONS",
    "RandomizedOpinions",
    "as_randomized",
    "expected_player_cost",
    "expected_social_cost",
    "best_deterministic_deviation",
    "MixedViolation",
    "MixedVerdict",
    "is_mixed_nash",
]

MAX_REALIZATIONS = 10**6

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
    if count > MAX_REALIZATIONS:
        raise ValueError(
            f"{count} realizations exceed the exact-enumeration cap {MAX_REALIZATIONS}"
        )
    return tuple(out)


def _realizations(
    supports: Sequence[Support],
) -> Iterator[tuple[tuple[Fraction, ...], Fraction]]:
    for combo in product(*supports):
        prob = Fraction(1)
        for _, pr in combo:
            prob *= pr
        yield tuple(op for op, _ in combo), prob


def expected_player_cost(inst: GameInstance, rz: Sequence, i: int) -> Fraction:
    """Exact expectation of player i's cost over the product distribution."""
    supports = as_randomized(inst, rz)
    total = Fraction(0)
    for z, prob in _realizations(supports):
        total += prob * player_cost(inst, z, i)
    return total


def expected_social_cost(inst: GameInstance, rz: Sequence) -> Fraction:
    """Sum of expected player costs (one pass over the realizations)."""
    supports = as_randomized(inst, rz)
    total = Fraction(0)
    for z, prob in _realizations(supports):
        for i in range(inst.n):
            total += prob * player_cost(inst, z, i)
    return total


def _mean_opinion(support: Support) -> Fraction:
    return sum((op * pr for op, pr in support), Fraction(0))


def _deviation_intervals(
    inst: GameInstance, supports: RandomizedOpinions, i: int
) -> list[tuple[Fraction, Fraction, Fraction]]:
    """(probability, lo, hi) of the deviator's cost interval per realization.

    The neighborhood depends only on the others' realization, never on the
    deviation itself; distance ties to the belief break toward the mean of
    the player's own strategy (for a one-point support that is exactly the
    deterministic tie rule), then toward the smallest index.
    """
    s_i = inst.beliefs[i]
    ref = _mean_opinion(supports[i])
    out = []
    # the deviator's own slot is a placeholder that ranked() skips
    for combo in product(*supports[:i], ((ref, 1),), *supports[i + 1 :]):
        prob = Fraction(1)
        for _, pr in combo:
            prob *= pr
        z = [op for op, _ in combo]
        values = [z[j] for _, _, j in ranked(z, i, s_i, ref)[: inst.k]]
        out.append((prob, min(s_i, *values), max(s_i, *values)))
    return out


def best_deterministic_deviation(
    inst: GameInstance, rz: Sequence, i: int
) -> tuple[Fraction, Fraction]:
    """Global minimizer of the expected deviation cost, with its value.

    Returns (y_star, expected_cost); ties in the minimum prefer the smallest
    deviation.
    """
    supports = as_randomized(inst, rz)
    if not 0 <= i < inst.n:
        raise IndexError(f"player index {i} out of range")
    intervals = _deviation_intervals(inst, supports, i)

    def g(y: Fraction) -> Fraction:
        return sum(
            (prob * max(y - lo, hi - y) for prob, lo, hi in intervals), Fraction(0)
        )

    candidates = {(lo + hi) / 2 for _, lo, hi in intervals}
    candidates.update(op for op, _ in supports[i])
    candidates.update(inst.beliefs)
    best_y, best_cost = None, None
    for y in sorted(candidates):
        cost = g(y)
        if best_cost is None or cost < best_cost:
            best_y, best_cost = y, cost
    assert best_y is not None and best_cost is not None
    return best_y, best_cost


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


def is_mixed_nash(inst: GameInstance, rz: Sequence) -> MixedVerdict:
    """Exact check: every player's expected cost <= her best deviation cost."""
    supports = as_randomized(inst, rz)
    violations = []
    for i in range(inst.n):
        standing = expected_player_cost(inst, supports, i)
        y_star, deviated = best_deterministic_deviation(inst, supports, i)
        if deviated < standing:
            violations.append(MixedViolation(i, y_star, standing - deviated))
    return MixedVerdict(not violations, tuple(violations))
