"""Integer kernels, and the one place the neighbour tie rule is defined.

The kernels take plain ints at one shared scale (beliefs and opinions
multiplied by a common denominator); Python ints never overflow, so any scale
is exact.  Best-response midpoints are tested without division via
2*z_i == lo + hi.

:func:`ranked` orders a player's candidate neighbours.  The kernels here, the
``Fraction`` API in :mod:`kcof.game` and the mixed checks in
:mod:`kcof.mixed` all select neighbours through it.
"""

from __future__ import annotations

from typing import Sequence


def ranked(z: Sequence, i: int, si, ref) -> list[tuple]:
    """Every player j != i in neighbour-rule order, as (|z_j - s_i|, |z_j - ref|, j).

    Distance to the belief s_i comes first; ties break toward ``ref`` (the
    player's own opinion, or the mean of the player's mixed support), then
    toward the smallest index.  The values may be ints or Fractions.
    """
    return sorted((abs(v - si), abs(v - ref), j) for j, v in enumerate(z) if j != i)


def _chosen(s: Sequence[int], z: Sequence[int], k: int, i: int) -> list[int]:
    return [j for _, _, j in ranked(z, i, s[i], z[i])[:k]]


def player_cost(s: Sequence[int], z: Sequence[int], k: int, i: int) -> int:
    """Max distance from z_i to the player's belief and chosen neighbors."""
    zi = z[i]
    cost = abs(zi - s[i])
    for j in _chosen(s, z, k, i):
        d = abs(z[j] - zi)
        if d > cost:
            cost = d
    return cost


def social_cost(s: Sequence[int], z: Sequence[int], k: int) -> int:
    return sum(player_cost(s, z, k, i) for i in range(len(s)))


def first_unstable(s: Sequence[int], z: Sequence[int], k: int) -> int:
    """Index of the first player whose opinion is not her exact best response.

    Returns -1 when the vector is a pure Nash equilibrium.
    """
    for i in range(len(s)):
        si = s[i]
        lo = hi = si
        for j in _chosen(s, z, k, i):
            v = z[j]
            if v < lo:
                lo = v
            elif v > hi:
                hi = v
        if 2 * z[i] != lo + hi:
            return i
    return -1


def coordinate_best(
    s: Sequence[int],
    z: Sequence[int],
    k: int,
    i: int,
    candidates: Sequence[int],
) -> tuple[int, int]:
    """Best (social cost, opinion) over candidate opinions for player i.

    Evaluates the full social cost for each candidate (moving one opinion can
    change every neighborhood); ties prefer the smallest candidate value.
    The sum is taken here rather than through :func:`social_cost`, so that
    the hooks of ``bench/tracing.py`` on ``social_cost`` see only calls from
    outside the kernel.
    """
    work = list(z)
    players = range(len(s))
    best_cost = -1
    best_y = 0
    for y in candidates:
        work[i] = y
        c = sum(player_cost(s, work, k, j) for j in players)
        if best_cost < 0 or c < best_cost or (c == best_cost and y < best_y):
            best_cost = c
            best_y = y
    return best_cost, best_y
