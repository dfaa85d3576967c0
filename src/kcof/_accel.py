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

    Only z_i moves, so the social cost is recomputed incrementally:

    * Every other player j keeps its order of the players other than i and
      j.  The set-up ranks them once with :func:`ranked` and keeps the k-th
      key, j's cost when i is chosen (belief and the first k - 1, without
      the distance to z_i) and j's cost when i is not (belief and the first
      k).  For a candidate y, j chooses i exactly when
      (|y - s_j|, |y - z_j|, i) is below the k-th key; when k = n - 1 there
      is no k-th key and i is always chosen.
    * Player i's own order by distance to s_i does not depend on y.
      Neighbours nearer than the k-th distance d_k are always chosen, and
      only their lowest and highest opinion matter.  The rest of the k are
      tied at d_k, so they sit at s_i - d_k or s_i + d_k, and the tie
      toward y decides whether the farther of the two values is reached.

    Set-up is O(n^2 log n), one ranking per player, and each candidate then
    costs O(n).  Ties prefer the smallest candidate value.
    """
    n = len(s)
    rows = []
    for j in range(n):
        if j == i:
            continue
        sj, zj = s[j], z[j]
        keys = [key for key in ranked(z, j, sj, zj) if key[2] != i]
        c_in = max([abs(zj - sj)] + [key[1] for key in keys[: k - 1]])
        kth = keys[k - 1] if k < n - 1 else None
        rows.append((sj, zj, kth, c_in, max(c_in, kth[1]) if kth else c_in))

    si = s[i]
    others = [v for j, v in enumerate(z) if j != i]
    d_k = sorted(abs(v - si) for v in others)[k - 1]
    inner = [v for v in others if abs(v - si) < d_k]
    lo, hi = min(inner, default=si), max(inner, default=si)
    tied = k - len(inner)  # how many of the k sit at distance d_k
    a, b = si - d_k, si + d_k
    at_a, at_b = others.count(a), others.count(b)

    best_cost = -1
    best_y = 0
    for y in candidates:
        # the farthest tied neighbour: the far side is reached only when the
        # near side holds fewer than `tied` players (y == s_i: both at d_k)
        if y < si:
            t = b - y if at_a < tied else abs(a - y)
        else:
            t = y - a if at_b < tied else abs(b - y)
        c = max(abs(y - si), t, y - lo, hi - y)
        for sj, zj, kth, c_in, c_out in rows:
            if kth is None or (abs(y - sj), abs(y - zj), i) < kth:
                d = abs(y - zj)
                c += d if d > c_in else c_in
            else:
                c += c_out
        if best_cost < 0 or c < best_cost or (c == best_cost and y < best_y):
            best_cost = c
            best_y = y
    return best_cost, best_y
