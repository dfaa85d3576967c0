"""The integer core: the one scale, the neighbour tie rule and the span.

Everything that decides an equilibrium or a cost works on plain ints at one
shared scale: :func:`scaled` multiplies the beliefs and opinions by the lcm
of their denominators.  Python ints never overflow, so any scale is exact.

:func:`ranked` defines the neighbour tie rule: it orders all of a player's
candidate neighbours.  A check needs only the first k + 1 of them, and those
are the opinions nearest the belief s_i, a run of the sorted opinions around
s_i.  So a check sorts the opinions once (:func:`sorted_view`), and
:func:`nearest` reads that run and yields exactly the prefix of
:func:`ranked`, in O(log n + k log k) per player (plus any opinions equal to
the lowest of the run) instead of a sort of n - 1 keys; a differential test
pins the two together on many-tie inputs.  :func:`span` takes the first k
and the interval [lo, hi] spanning s_i and their opinions: the best reply is
its midpoint, tested without division as 2*z_i == lo + hi, and the cost of
z_i is the distance to its far end.  The ``Fraction`` API in
:mod:`kcof.game`, the mixed checks in :mod:`kcof.mixed` and the kernels
here all rank through :func:`span`; :func:`player_cost`,
:func:`social_cost` and :func:`first_unstable` are short views of it.
The optimizer's coordinate descent keeps one :func:`ranked` list per player
across its moves (:func:`move`), and :func:`coordinate_best` reads them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence


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


def sorted_view(z: Sequence[int]) -> list[tuple[int, int]]:
    """Every (z_j, j), sorted: the players in order of opinion, ties by index."""
    return sorted(zip(z, range(len(z))))


def nearest(
    view: Sequence[tuple[int, int]], i: int, si: int, ref: int, count: int
) -> list[tuple[int, int, int]]:
    """``ranked(z, i, si, ref)[:count]``, read from ``view = sorted_view(z)``.

    The opinions nearest s_i are a run of the view around s_i: the count + 1
    entries from the first opinion >= s_i upward and the count + 1 below it
    (i is at most one of each).  Below s_i the distance falls as the position
    rises, and one value's entries tie on both distances, so the run is
    widened down to the start of its lowest value's group, whose smallest
    indices rank first.  Sorting the run's keys merges the two sides by the
    full key.  Two bisections and a sort of about 2 count keys, plus the
    size of that group.
    """
    mid = bisect_left(view, (si,))
    low = mid - count - 1
    low = bisect_left(view, (view[low][0],), 0, low) if low > 0 else 0
    keys = [(abs(v - si), abs(v - ref), j) for v, j in view[low : mid + count + 1] if j != i]
    keys.sort()
    return keys[:count]


def span(
    s: Sequence[int],
    z: Sequence[int],
    k: int,
    i: int,
    ref: int,
    view: Optional[Sequence[tuple[int, int]]] = None,
) -> tuple[list[int], bool, int, int]:
    """One ranking of player i's candidates at the integer scale.

    Returns the k chosen neighbours, whether the k-th and (k+1)-th are tied
    on distance to s_i, and the ends of the span of s_i and the neighbours'
    opinions.  ``ref`` is the tie reference of :func:`ranked`; ``view`` is
    ``sorted_view(z)``, made here when not given.
    """
    order = nearest(sorted_view(z) if view is None else view, i, s[i], ref, k + 1)
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
    view = sorted_view(z)
    total = 0
    for i, zi in enumerate(z):
        _, _, lo, hi = span(s, z, k, i, zi, view)
        total += max(zi - lo, hi - zi)
    return total


def first_unstable(s: Sequence[int], z: Sequence[int], k: int) -> int:
    """Index of the first player whose opinion is not her exact best response.

    Returns -1 when the vector is a pure Nash equilibrium.
    """
    view = sorted_view(z)
    for i, zi in enumerate(z):
        _, _, lo, hi = span(s, z, k, i, zi, view)
        if 2 * zi != lo + hi:
            return i
    return -1


def move(s: Sequence[int], z: list[int], ranks: list[list[tuple]], i: int, y: int) -> None:
    """Set z_i = y and keep every ranking ``ranks[j] == ranked(z, j, s[j], z[j])``.

    Each other player's ranking loses i's old key, found by bisection, and
    gains the new one by ``insort``; only i's own tie reference changed, so
    only i is ranked afresh.
    """
    old = z[i]
    z[i] = y
    for j, order in enumerate(ranks):
        if j != i:
            sj, zj = s[j], z[j]
            del order[bisect_left(order, (abs(old - sj), abs(old - zj), i))]
            insort(order, (abs(y - sj), abs(y - zj), i))
    ranks[i] = ranked(z, i, s[i], y)


def coordinate_best(
    s: Sequence[int],
    z: Sequence[int],
    k: int,
    i: int,
    ys: Sequence[int],
    ranks: Sequence[Sequence[tuple]],
) -> tuple[int, int]:
    """Best (social cost, opinion) over the candidate opinions ``ys`` for player i.

    ``ys`` is sorted and distinct, and ``ranks[j]`` is
    ``ranked(z, j, s[j], z[j])`` for every player (see :func:`move`).  Only
    z_i moves, and z_i itself is never read, so the social cost as a function
    of the candidate index is linear between breakpoints:

    * Every other player j keeps its order of the players other than i and
      j: its first k + 1 keys skipping i give the k-th key (d_j, e_j, l),
      j's cost c_in when i is chosen (belief and the first k - 1, without
      the distance to z_i) and c_out when i is not (belief and the first k).
      For a candidate y, j chooses i exactly when (|y - s_j|, |y - z_j|, i)
      is below the k-th key; when k = n - 1 there is no k-th key and i is
      always chosen.
    * So j adds c_out everywhere, plus max(c_in, |y - z_j|) - c_out wherever
      it chooses i.  On the open interval (s_j - d_j, s_j + d_j) that is at
      most three linear pieces, split at z_j - c_in and z_j + c_in, and the
      two ends s_j - d_j and s_j + d_j are points where the tie decides.
      Each piece end, found by bisection, changes the slope and intercept.
    * Player i's own order by distance to s_i does not depend on y.
      Neighbours nearer than the k-th distance d_k are always chosen, and
      only their lowest and highest opinion matter.  The rest of the k are
      tied at d_k, so they sit at s_i - d_k or s_i + d_k, and the tie
      toward y decides whether the farther of the two values is reached.
      Every term of that cost has slope +-1, so on y < s_i and on y >= s_i
      it is max(y - P, Q - y), with one kink at (P + Q) / 2.

    Between consecutive breakpoint indices the cost is slope * y +
    intercept, so its minimum over a run of candidates is at the first
    (slope >= 0, which keeps the smallest value on ties) or the last; only
    those are evaluated.  A step is O(n (k + log m) + n log n) for m
    candidates, with no per-candidate work.  Ties prefer the smallest
    candidate value.
    """
    n, m = len(s), len(ys)
    # slope and intercept changes of the other players' terms, by index
    dslope: dict[int, int] = defaultdict(int)
    dicpt: dict[int, int] = defaultdict(int)
    base = 0
    for j in range(n):
        if j == i:
            continue
        sj, zj = s[j], z[j]
        keys = [key for key in ranks[j][: k + 1] if key[2] != i]
        c_in = abs(zj - sj)
        for key in keys[: k - 1]:
            if key[1] > c_in:
                c_in = key[1]
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
                    dicpt[t] += delta
                    dicpt[t + 1] -= delta
        base += c_out
        if first < stop:
            # pieces z_j - y (y <= z_j - c_in), c_in, y - z_j (y >= z_j + c_in),
            # each starting where the one before it ends
            p = bisect_right(ys, zj - c_in, first, stop)
            q = bisect_left(ys, zj + c_in, p, stop)
            dslope[first] -= 1
            dicpt[first] += zj - c_out
            dslope[p] += 1
            dicpt[p] += c_in - zj
            dslope[q] += 1
            dicpt[q] -= zj + c_in
            dslope[stop] -= 1
            dicpt[stop] += zj + c_out

    si = s[i]
    d_k = ranks[i][k - 1][0]
    others = [v for j, v in enumerate(z) if j != i]
    inner = [v for v in others if abs(v - si) < d_k]
    tied = k - len(inner)  # how many of the k sit at distance d_k
    inner.append(si)
    lo, hi = min(inner), max(inner)
    a, b = si - d_k, si + d_k
    # (P, Q) of i's cost on y < s_i and on y >= s_i: the tied neighbours on
    # the far side of s_i are reached only when the near side holds fewer
    # than `tied` of them (at y == s_i both sides cost d_k)
    left = (lo, b) if others.count(a) < tied else (a, hi)
    right = (a, hi) if others.count(b) < tied else (lo, b)
    own_cuts = (
        bisect_left(ys, si),
        bisect_left(ys, (sum(left) + 1) // 2),  # first y >= (P + Q) / 2
        bisect_left(ys, (sum(right) + 1) // 2),
    )

    cuts = sorted({0, m, *own_cuts, *dslope, *dicpt})
    sl, ic = 0, base
    best_cost = -1
    best_y = 0
    for start, end in zip(cuts, cuts[1:]):
        sl += dslope.get(start, 0)
        ic += dicpt.get(start, 0)
        y = ys[start]
        low, high = left if y < si else right
        if sl + (1 if 2 * y >= low + high else -1) < 0:
            y = ys[end - 1]
        c = max(y - low, high - y) + sl * y + ic
        if best_cost < 0 or c < best_cost:
            best_cost = c
            best_y = y
    return best_cost, best_y
