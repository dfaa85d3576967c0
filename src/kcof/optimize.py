"""Heuristic upper bound on the optimal social cost.

No component of this package computes the exact optimum (its complexity is
open); instead, coordinate descent over a structured candidate grid produces
a feasible opinion vector whose exact social cost upper-bounds the optimum.
The grid contains every belief, all pairwise belief midpoints, and both
third-points of every belief pair, refined twice by inserting midpoints
between adjacent candidates.  The best coordinate step is often off the grid:
for beliefs (0, 1, 5) with k=1 the descent returns social cost 23/8, while
moving z_3 to 17/6 gives 17/6.

The cost surface is piecewise linear with jumps where neighborhoods change,
so each coordinate move finds the exact minimum over the candidates, in
integers at the one scale of :func:`kcof._accel.scaled`:
:func:`kcof._accel.coordinate_best` evaluates only the ends of the linear
pieces, from rankings that a descent keeps up to date across its moves.
The best vector's cost is re-checked with the exact ``Fraction`` reference
before it is returned.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from . import _accel
from .game import GameInstance, Opinions, as_opinions, social_cost

__all__ = [
    "MAX_PLAYERS",
    "candidate_opinions",
    "optimize_social_cost",
]

# The time follows n: about n descents (one per distinct belief) of a few
# sweeps of n steps, each O(n (k + log m) + n log n).  The grid of m values
# grows with n too: m <= 4 (n + 3 n (n - 1) / 2) - 3, 24,445 at this cap.
MAX_PLAYERS = 64
_GRID_LEVELS = 2  # refinement levels of the candidate grid
_RESTARTS = 8  # random starts, drawn from random.Random(0)
_MAX_SWEEPS = 200


def candidate_opinions(inst: GameInstance) -> tuple[Fraction, ...]:
    """Beliefs, pairwise midpoints and third-points, refined twice.

    A refinement level puts a midpoint into every gap, so m values become
    2m - 1.
    """
    distinct = sorted(set(inst.beliefs))
    cands = set(distinct)
    for x in distinct:
        for y in distinct:
            if x < y:
                cands.add((x + y) / 2)
                cands.add((2 * x + y) / 3)
                cands.add((x + 2 * y) / 3)
    for _ in range(_GRID_LEVELS):
        ordered = sorted(cands)
        for u, v in zip(ordered, ordered[1:]):
            cands.add((u + v) / 2)
    return tuple(sorted(cands))


def _descend(
    s: list[int], z: list[int], k: int, cands: list[int], max_sweeps: int
) -> tuple[int, list[int]]:
    """Coordinate descent to a sweep-stable vector; cost never increases.

    Every player is ranked once with :func:`kcof._accel.ranked`, and
    :func:`kcof._accel.move` keeps the rankings current, so a step reads
    them instead of ranking anew.  A coordinate step for i never reads z_i,
    so once a coordinate has moved, the other n - 1 failing to improve in a
    row prove the vector stable (with no move yet, all n must fail).  The
    descent stops there: a full sweep more would make no move.
    """
    n = len(s)
    ranks = [_accel.ranked(z, j, s[j], z[j]) for j in range(n)]
    cost = _accel.social_cost(s, z, k)
    need, fails = n, 0
    for _ in range(max_sweeps):
        for i in range(n):
            best_cost, best_y = _accel.coordinate_best(s, z, k, i, cands, ranks)
            if best_cost < cost:
                _accel.move(s, z, ranks, i, best_y)
                cost = best_cost
                need, fails = n - 1, 0
            else:
                fails += 1
                if fails == need:
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
    cands = candidate_opinions(inst)
    extra_starts = [as_opinions(inst, st) for st in starts]

    n, m = inst.n, len(cands)
    denom, ints = _accel.scaled(
        (*inst.beliefs, *cands, *(v for st in extra_starts for v in st))
    )
    s_int, cand_int = ints[:n], ints[n : n + m]

    start_vectors: list[list[int]] = [s_int]
    # herding starts: single-coordinate descent cannot merge a spread-out
    # vector onto one point, so seed one uniform start per distinct belief
    for b in sorted(set(s_int)):
        start_vectors.append([b] * n)
    for t in range(n + m, len(ints), n):
        start_vectors.append(ints[t : t + n])
    rng = random.Random(0)
    for _ in range(_RESTARTS):
        start_vectors.append([rng.choice(cand_int) for _ in range(n)])

    descents = (
        _descend(s_int, list(z0), inst.k, cand_int, _MAX_SWEEPS) for z0 in start_vectors
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
