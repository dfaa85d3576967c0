"""Closed-form bounds on optimal social cost and equilibrium player costs.

The optimal social cost of an instance is bracketed from below by belief-only
sums (no solver involved): a general-k bound driven by the tightest window of
k+1 consecutive beliefs around each player, and a sharper k=1 bound driven by
each player's nearest belief neighbor.  The same two quantities cap the cost
a player can suffer at any pure Nash equilibrium, which pins the worst-case
equilibrium/optimum ratio at 4(k+1) in general and 3 for k=1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import segments
from .game import GameInstance, check_pure, social_cost
from .optimize import optimize_social_cost

__all__ = [
    "star_window",
    "eta",
    "opt_lower_bound_k",
    "opt_lower_bound_1",
    "pne_player_cost_cap",
    "pne_player_cost_cap_1",
    "PoaBracket",
    "poa_bracket",
]


def star_window(inst: GameInstance, i: int) -> tuple[int, int]:
    """Tightest window of k+1 consecutive beliefs containing player i.

    Returns (l, r) with r - l = k and minimal s_r - s_l; ties take the
    smallest l.
    """
    if not 0 <= i < inst.n:
        raise IndexError(f"player index {i} out of range")
    s = inst.beliefs
    k = inst.k
    best: Optional[tuple[Fraction, int]] = None
    for left in range(max(0, i - k), min(i, inst.n - 1 - k) + 1):
        span = s[left + k] - s[left]
        if best is None or span < best[0]:
            best = (span, left)
    assert best is not None  # n >= k+1 guarantees one window
    return best[1], best[1] + k


def eta(inst: GameInstance, i: int) -> int:
    """The adjacent player with the closest belief; ties prefer i-1."""
    if not 0 <= i < inst.n:
        raise IndexError(f"player index {i} out of range")
    s = inst.beliefs
    candidates = [j for j in (i - 1, i + 1) if 0 <= j < inst.n]
    return min(candidates, key=lambda j: (abs(s[i] - s[j]), j))


def opt_lower_bound_k(inst: GameInstance) -> Fraction:
    """(1/(2(k+1))) * sum of star-window widths: a floor under every SC(z)."""
    s = inst.beliefs
    total = Fraction(0)
    for i in range(inst.n):
        left, right = star_window(inst, i)
        total += s[right] - s[left]
    return total / (2 * (inst.k + 1))


def opt_lower_bound_1(inst: GameInstance) -> Fraction:
    """(1/3) * sum of nearest-belief distances; valid for k=1 only."""
    if inst.k != 1:
        raise ValueError("this bound applies to k=1 games only")
    s = inst.beliefs
    return sum((abs(s[i] - s[eta(inst, i)]) for i in range(inst.n)), Fraction(0)) / 3


def pne_player_cost_cap(inst: GameInstance, i: int) -> Fraction:
    """2 * (star-window width): caps cost_i at any pure Nash equilibrium."""
    left, right = star_window(inst, i)
    return 2 * (inst.beliefs[right] - inst.beliefs[left])


def pne_player_cost_cap_1(inst: GameInstance, i: int) -> Fraction:
    """|s_i - s_eta(i)|: the sharper k=1 equilibrium cost cap."""
    if inst.k != 1:
        raise ValueError("this cap applies to k=1 games only")
    return abs(inst.beliefs[i] - inst.beliefs[eta(inst, i)])


@dataclass(frozen=True)
class PoaBracket:
    """Certified interval around an instance's price of anarchy.

    ratio_lower <= true PoA <= ratio_upper whenever both are defined;
    the exact PoA itself would need the exact optimum, which no component
    here computes.
    """

    worst_pne_cost: Optional[Fraction]
    opt_lower: Fraction
    opt_upper: Fraction
    ratio_lower: Optional[Fraction]
    ratio_upper: Optional[Fraction]
    ratio_upper_unbounded: bool = False


def poa_bracket(
    inst: GameInstance, *, use_optimizer: bool = True, starts: Sequence[Sequence] = ()
) -> PoaBracket:
    """Bracket the price of anarchy from closed-form bounds plus the optimizer.

    For k=1 the best and worst equilibria come from one segment graph.  For
    k >= 2 every start that passes :func:`check_pure` is a known
    equilibrium: the cheapest stands in for the best, the dearest for the
    worst, and without one the equilibrium side is reported absent.  The
    optimizer also descends from every start.  Every equilibrium is feasible,
    so the best one's cost caps the upper bound: the optimizer's result or,
    without the optimizer, the truthful vector's cost.
    """
    best_cost: Optional[Fraction] = None
    worst_cost: Optional[Fraction] = None
    if inst.k == 1:
        graph = segments.build_segment_graph(inst)
        best = segments.best_pne(graph)
        if best is not None:
            best_cost = best[1]
            worst_cost = segments.worst_pne(graph)[1]
    else:
        checked = (check_pure(inst, z) for z in starts)
        known = [c.social_cost for c in checked if c.verdict.is_pne]
        if known:
            best_cost, worst_cost = min(known), max(known)

    opt_lower = opt_lower_bound_k(inst)
    if inst.k == 1:
        opt_lower = max(opt_lower, opt_lower_bound_1(inst))

    if use_optimizer:
        _, opt_upper = optimize_social_cost(inst, starts=starts)
    else:
        # the truthful vector is always feasible
        opt_upper = social_cost(inst, inst.beliefs)
    if best_cost is not None:
        opt_upper = min(opt_upper, best_cost)

    ratio_lower: Optional[Fraction] = None
    ratio_upper: Optional[Fraction] = None
    unbounded = False
    if worst_cost is not None:
        if opt_upper > 0:
            ratio_lower = worst_cost / opt_upper
        elif worst_cost == 0:
            ratio_lower = Fraction(1)  # degenerate: all quantities zero
        if opt_lower > 0:
            ratio_upper = worst_cost / opt_lower
        elif worst_cost == 0:
            ratio_upper = Fraction(1)
        else:
            unbounded = True
    return PoaBracket(
        worst_pne_cost=worst_cost,
        opt_lower=opt_lower,
        opt_upper=opt_upper,
        ratio_lower=ratio_lower,
        ratio_upper=ratio_upper,
        ratio_upper_unbounded=unbounded,
    )
