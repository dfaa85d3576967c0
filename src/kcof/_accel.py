"""The integer core: the one scale, the neighbour tie rule and the span.

Everything that decides an equilibrium or a cost works on plain ints at one
shared scale: :func:`scaled` multiplies the beliefs and opinions by the lcm
of their denominators.  Python ints never overflow, so any scale is exact.

:func:`ranked` orders a player's candidate neighbours by the tie rule, and
:func:`span` takes the first k of them and the interval [lo, hi] spanning
s_i and their opinions: the best reply is its midpoint, tested without
division as 2*z_i == lo + hi, and the cost of z_i is the distance to its far
end.  The ``Fraction`` API in :mod:`kcof.game`, the mixed checks in
:mod:`kcof.mixed` and the kernels here all rank through :func:`span`;
:func:`player_cost`, :func:`social_cost` and :func:`first_unstable` are
short views of it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Sequence


def scaled(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The lcm denominator d of the values and each value times d."""
    d = lcm(*[q.denominator for q in values])
    return d, [q.numerator * (d // q.denominator) for q in values]


def ranked(z: Sequence, i: int, si, ref) -> list[tuple]:
    """Every player j != i in neighbour-rule order, as (|z_j - s_i|, |z_j - ref|, j).

    Distance to the belief s_i comes first; ties break toward ``ref`` (the
    player's own opinion, or the mean of the player's mixed support), then
    toward the smallest index.  The values may be ints or Fractions.
    """
    return sorted((abs(v - si), abs(v - ref), j) for j, v in enumerate(z) if j != i)


def span(
    s: Sequence[int], z: Sequence[int], k: int, i: int, ref: int
) -> tuple[list[int], bool, int, int]:
    """One ranking of player i's candidates at the integer scale.

    Returns the k chosen neighbours, whether the k-th and (k+1)-th are tied
    on distance to s_i, and the ends of the span of s_i and the neighbours'
    opinions.  ``ref`` is the tie reference of :func:`ranked`.
    """
    order = ranked(z, i, s[i], ref)
    tie = len(order) > k and order[k - 1][0] == order[k][0]
    chosen = [j for _, _, j in order[:k]]
    lo = hi = s[i]
    for j in chosen:
        v = z[j]
        if v < lo:
            lo = v
        elif v > hi:
            hi = v
    return chosen, tie, lo, hi


def player_cost(s: Sequence[int], z: Sequence[int], k: int, i: int) -> int:
    """Max distance from z_i to the player's belief and chosen neighbors."""
    zi = z[i]
    _, _, lo, hi = span(s, z, k, i, zi)
    return max(zi - lo, hi - zi)


def social_cost(s: Sequence[int], z: Sequence[int], k: int) -> int:
    return sum(player_cost(s, z, k, i) for i in range(len(s)))


def first_unstable(s: Sequence[int], z: Sequence[int], k: int) -> int:
    """Index of the first player whose opinion is not her exact best response.

    Returns -1 when the vector is a pure Nash equilibrium.
    """
    for i in range(len(s)):
        _, _, lo, hi = span(s, z, k, i, z[i])
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

    Only z_i moves, and z_i itself is never read, so the social cost of every
    candidate comes from one sorted sweep:

    * Every other player j keeps its order of the players other than i and
      j.  The set-up ranks them once with :func:`ranked` and keeps the k-th
      key (d_j, e_j, l), j's cost c_in when i is chosen (belief and the first
      k - 1, without the distance to z_i) and c_out when i is not (belief and
      the first k).  For a candidate y, j chooses i exactly when
      (|y - s_j|, |y - z_j|, i) is below the k-th key; when k = n - 1 there
      is no k-th key and i is always chosen.
    * So j adds c_out everywhere, plus max(c_in, |y - z_j|) - c_out wherever
      it chooses i.  On the open interval (s_j - d_j, s_j + d_j) that is at
      most three linear pieces, split at z_j - c_in and z_j + c_in, and the
      two ends s_j - d_j and s_j + d_j are points where the tie decides.
      The pieces go into slope and intercept difference arrays over the
      index range of the sorted candidates, found by bisection, and the ends
      into the intercept array at one index each.
    * Player i's own order by distance to s_i does not depend on y.
      Neighbours nearer than the k-th distance d_k are always chosen, and
      only their lowest and highest opinion matter.  The rest of the k are
      tied at d_k, so they sit at s_i - d_k or s_i + d_k, and the tie
      toward y decides whether the farther of the two values is reached.
      That cost is O(1) per candidate.

    One pass over the sorted, deduplicated candidates then sums the arrays
    and adds player i's cost.  Set-up is O(n^2 log n), one ranking per
    player; the rows take O(n log m) and the sweep O(m) for m candidates
    (plus sorting them).  Ties prefer the smallest candidate value.
    """
    n = len(s)
    ys = sorted(set(candidates))
    m = len(ys)
    # difference arrays: each other player's term is slope * y + intercept
    slope = [0] * (m + 1)
    icpt = [0] * (m + 1)
    for j in range(n):
        if j == i:
            continue
        sj, zj = s[j], z[j]
        keys = [key for key in ranked(z, j, sj, zj) if key[2] != i]
        c_in = max([abs(zj - sj)] + [key[1] for key in keys[: k - 1]])
        if k == n - 1:
            c_out = c_in
            first, stop = 0, m
        else:
            kth = keys[k - 1]
            d = kth[0]
            c_out = max(c_in, kth[1])
            first, stop = bisect_right(ys, sj - d), bisect_left(ys, sj + d)
            for y in (sj - d, sj + d) if d else (sj,):
                t = bisect_left(ys, y)
                if t < m and ys[t] == y and (d, abs(y - zj), i) < kth:
                    delta = max(c_in, abs(y - zj)) - c_out
                    icpt[t] += delta
                    icpt[t + 1] -= delta
        icpt[0] += c_out
        if first < stop:
            p = min(max(bisect_right(ys, zj - c_in), first), stop)
            q = min(max(bisect_left(ys, zj + c_in), p), stop)
            for lo, hi, sl, ic in (
                (first, p, -1, zj - c_out),  # y <= z_j - c_in: z_j - y
                (p, q, 0, c_in - c_out),  # strictly between: c_in
                (q, stop, 1, -zj - c_out),  # y >= z_j + c_in: y - z_j
            ):
                if lo < hi:
                    slope[lo] += sl
                    slope[hi] -= sl
                    icpt[lo] += ic
                    icpt[hi] -= ic

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
    for y, sl, ic in zip(ys, accumulate(slope), accumulate(icpt)):
        # the farthest tied neighbour: the far side is reached only when the
        # near side holds fewer than `tied` players (y == s_i: both at d_k)
        if y < si:
            t = b - y if at_a < tied else abs(a - y)
        else:
            t = y - a if at_b < tied else abs(b - y)
        c = max(abs(y - si), t, y - lo, hi - y) + sl * y + ic
        if best_cost < 0 or c < best_cost:
            best_cost = c
            best_y = y
    return best_cost, best_y
