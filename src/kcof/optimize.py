"""Heuristic upper bound on the optimal social cost.

No component of this package computes the exact optimum (its complexity is
open); instead, coordinate descent over a structured candidate grid produces
a feasible opinion vector whose exact social cost upper-bounds the optimum.
The grid holds every belief, all pairwise belief midpoints and both
third-points of every belief pair, refined twice by inserting midpoints
between adjacent candidates, in integers at 24 times the beliefs' lcm
denominator.  The best coordinate step is often off the grid: for beliefs
(0, 1, 5) with k=1 the descent returns social cost 23/8, while moving z_3
to 17/6 gives 17/6.

A step finds the exact best candidate for one coordinate in integers:
:func:`kcof._accel.coordinate_best` sums the breakpoints of the piecewise
linear cost per candidate index, sorts those indices once and evaluates
only the ends of its linear runs, from rankings that the descent keeps
across its moves.  A descent stops on a vector where every step fails, and
the later descents of the same call stop as soon as they reach such a
vector, one that starts on it with its stored cost.  The best vector's cost
is re-checked with the exact ``Fraction`` reference before it is returned.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from . import _accel
from .game import GameInstance, Opinions, as_opinions, social_cost

__all__ = [
    "MAX_PLAYERS",
    "optimize_social_cost",
]

# The time follows n: about n descents (one per distinct belief) of a few
# sweeps of n steps, each O(n (k + log m) + n log n).  The grid of m values
# grows with n too: m <= 4 (n + 3 n (n - 1) / 2) - 3, 24,445 at this cap.
MAX_PLAYERS = 64
_GRID_LEVELS = 2  # refinement levels of the candidate grid
_RESTARTS = 8  # random starts, drawn from random.Random(0)
_MAX_SWEEPS = 200


def _grid(inst: GameInstance) -> tuple[int, list[int]]:
    """The candidate grid in integers: (scale, sorted distinct values times it).

    The scale is 24 times the beliefs' lcm denominator: beliefs are then
    multiples of 24, their midpoints of 12 and their third-points of 8, and
    each of the two refinement levels halves a multiple of 4, then of 2.  A
    level puts a midpoint into every gap, so m values become 2m - 1.
    """
    distinct = sorted({24 * v for v in inst.s_int})
    cands = set(distinct)
    for a, x in enumerate(distinct):
        for y in distinct[a + 1 :]:
            cands.update(((x + y) // 2, (2 * x + y) // 3, (x + 2 * y) // 3))
    for _ in range(_GRID_LEVELS):
        ordered = sorted(cands)
        cands.update((u + v) // 2 for u, v in zip(ordered, ordered[1:]))
    return 24 * inst.scale, sorted(cands)


def _descend(
    s: list[int], z: list[int], k: int, cands: list[int], max_sweeps: int, stable: dict
) -> tuple[int, list[int]]:
    """Coordinate descent to a sweep-stable vector; cost never increases.

    Every player is ranked once with :func:`kcof._accel.ranked`, which gives
    the start cost, and :func:`kcof._accel.move` keeps the rankings current
    for the steps.  A coordinate step for i never reads z_i, so once a
    coordinate has moved, the other n - 1 failing to improve in a row prove
    the vector stable (with no move yet, all n must fail).  The descent
    stops there and stores the vector's cost in ``stable``, which the
    descents of one game and grid share: one that starts at a stored vector
    returns that cost without ranking, and one that moves onto one returns
    at once, as its failing steps would have.
    """
    known = stable.get(tuple(z))
    if known is not None:
        return known, z
    n = len(s)
    ranks = [_accel.ranked(z, j, s[j], z[j]) for j in range(n)]
    # j's cost: the farthest of its belief and its first k neighbours
    cost = sum(max(abs(z[j] - s[j]), *(key[1] for key in ranks[j][:k])) for j in range(n))
    need, fails = n, 0
    for _ in range(max_sweeps):
        for i in range(n):
            best_cost, best_y = _accel.coordinate_best(s, z, k, i, cands, ranks)
            if best_cost < cost:
                _accel.move(s, z, ranks, i, best_y)
                cost = best_cost
                if tuple(z) in stable:
                    return cost, z
                need, fails = n - 1, 0
            else:
                fails += 1
                if fails == need:
                    stable[tuple(z)] = cost
                    return cost, z
    return cost, z


def optimize_social_cost(
    inst: GameInstance, starts: Sequence[Sequence] = ()
) -> tuple[Opinions, Fraction]:
    """Best feasible vector found; its exact social cost bounds the optimum.

    Multi-start: the truthful vector, every caller-supplied start (catalog
    reference vectors, typically), and seeded random candidate assignments.
    Deterministic; ties prefer the lexicographically smallest vector.
    Instances of more than :data:`MAX_PLAYERS` players are refused with a
    ``ValueError``.
    """
    if inst.n > MAX_PLAYERS:
        raise ValueError(
            f"{inst.n} players exceed the optimizer's cap of {MAX_PLAYERS}"
            " (kcof bounds --no-opt skips the optimizer)"
        )
    scale, grid = _grid(inst)
    extra_starts = [as_opinions(inst, st) for st in starts]

    n = inst.n
    # 1/scale brings the grid onto the one scale of the beliefs and starts
    denom, s_int, ints = inst.at((Fraction(1, scale), *(v for st in extra_starts for v in st)))
    cand_int = [c * ints[0] for c in grid]

    start_vectors: list[list[int]] = [s_int]
    # herding starts: single-coordinate descent cannot merge a spread-out
    # vector onto one point, so seed one uniform start per distinct belief
    for b in sorted(set(s_int)):
        start_vectors.append([b] * n)
    for t in range(1, len(ints), n):
        start_vectors.append(ints[t : t + n])
    rng = random.Random(0)
    for _ in range(_RESTARTS):
        start_vectors.append([rng.choice(cand_int) for _ in range(n)])

    stable: dict = {}
    descents = (
        _descend(s_int, list(z0), inst.k, cand_int, _MAX_SWEEPS, stable) for z0 in start_vectors
    )
    cost_int, z_int = min((cost, tuple(z)) for cost, z in descents)
    opinions = tuple(Fraction(v, denom) for v in z_int)
    cost = Fraction(cost_int, denom)
    check = social_cost(inst, opinions)
    if check != cost:
        raise AssertionError(
            f"optimizer bookkeeping mismatch: kernel {cost} vs reference {check}"
        )
    return opinions, cost
