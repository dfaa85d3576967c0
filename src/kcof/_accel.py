"""The integer core: the one scale, the neighbour tie rule and the span.

Everything that decides an equilibrium or a cost works on plain ints at one
shared scale: :func:`scaled` multiplies the beliefs and opinions by the lcm
of their denominators.  Python ints never overflow, so any scale is exact.

:func:`ranked` defines the neighbour tie rule: it orders all of a player's
candidate neighbours.  A check needs only the first k + 1, the opinions
nearest the belief s_i, so it sorts the opinions once (:func:`sorted_view`)
and :func:`nearest` reads the run around s_i, which yields exactly the
prefix of :func:`ranked` in O(log n + k log k) per player (plus any
opinions equal to the lowest of the run); a differential test pins the two
together on many-tie inputs.  :func:`span` reads that view, which its
caller sorts once per vector, and takes the first k and the interval
[lo, hi] spanning s_i and their opinions: the best reply is its midpoint,
tested without division as 2*z_i == lo + hi, and the cost of z_i is the
distance to its far end.  The ``Fraction`` API in :mod:`kcof.game`,
the mixed checks in :mod:`kcof.mixed` and the kernels here all rank through
:func:`span`; :func:`social_cost` and :func:`first_unstable` are short
views of it.  The optimizer's descent keeps one :func:`ranked` list per
player across its moves (:func:`move`); :func:`coordinate_best` reads their
first k + 1 keys in place, sums one step's breakpoints per candidate index
and sorts those indices once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from fractions import Fraction
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
    view: Sequence[tuple[int, int]],
) -> tuple[list[int], bool, int, int]:
    """One ranking of player i's candidates at the integer scale.

    Returns the k chosen neighbours, whether the k-th and (k+1)-th are tied
    on distance to s_i, and the ends of the span of s_i and the neighbours'
    opinions.  ``ref`` is the tie reference of :func:`ranked`; ``view`` is
    ``sorted_view(z)``.
    """
    order = nearest(view, i, s[i], ref, k + 1)
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
      j.  Its first k + 1 keys, read in place with i's skipped, give the
      k-th key (d_j, e_j, l), j's cost c_in when i is chosen (belief and the
      first k - 1, without the distance to z_i) and c_out when i is not.
      j chooses i at y exactly when (|y - s_j|, |y - z_j|, i) is below the
      k-th key (always when k = n - 1).  So j adds c_out everywhere, plus
      max(c_in, |y - z_j|) - c_out on (s_j - d_j, s_j + d_j): at most three
      linear pieces, split at z_j -+ c_in and found by bisection; the tie
      decides at the ends s_j -+ d_j themselves.
    * Player i's own order by distance to s_i does not depend on y.  Its
      ranking, read up to the k-th distance d_k, gives the lowest and
      highest opinion strictly nearer than d_k (always chosen) and how many
      sit at s_i - d_k and at s_i + d_k, tied at d_k, where the tie toward y
      decides whether the farther value is reached.  On y < s_i and on
      y >= s_i that cost is max(y - P, Q - y), with one kink at (P + Q) / 2.

    The breakpoints' slope and intercept changes are summed per candidate
    index, one dict entry per index, and the indices are sorted once; a
    boundary tie that changes nothing adds no entry.  Between consecutive
    indices the cost is slope * y + intercept, so its minimum over that run
    of candidates is at the first (slope >= 0, which keeps the smallest
    value on ties) or the last; only those are evaluated.  A step is
    O(n (k + log m) + n log n) for m candidates, with no per-candidate work.
    Ties prefer the smallest candidate value.
    """
    n, m = len(s), len(ys)
    # candidate index -> change of the slope, of the intercept; every index
    # with a slope change has an intercept entry
    slopes, icepts = {}, {}
    sget, iget = slopes.get, icepts.get
    base = 0
    for j in range(n):
        if j == i:
            continue
        sj, zj = s[j], z[j]
        row = ranks[j]
        # c_in over j's first k - 1 keys other than i; row[t] is the k-th one
        c_in, t = abs(zj - sj), k - 1
        for key in row[: k - 1]:
            if key[2] == i:
                t = k
            elif key[1] > c_in:
                c_in = key[1]
        if t == k:
            c_in = max(c_in, row[k - 1][1])
        elif row[t][2] == i:
            t = k
        if t == n - 1:
            c_out = c_in
            first, stop = 0, m
        else:
            d, e, l = row[t]
            c_out = e if e > c_in else c_in
            first, stop = bisect_right(ys, sj - d), bisect_left(ys, sj + d)
            # s_j - d and s_j + d, when candidates, sit at first - 1 and stop;
            # there j chooses i when (|y - z_j|, i) is below (e, l)
            for u in (first - 1, stop) if d else (first - 1,):
                if 0 <= u < m and abs(ys[u] - sj) == d:
                    f = abs(ys[u] - zj)
                    if f < e or (f == e and i < l):
                        delta = (f if f > c_in else c_in) - c_out
                        if delta:
                            icepts[u] = iget(u, 0) + delta
                            icepts[u + 1] = iget(u + 1, 0) - delta
        base += c_out
        if first < stop:
            # pieces z_j - y (y <= z_j - c_in), c_in, y - z_j (y >= z_j + c_in),
            # each starting where the one before it ends
            p = bisect_right(ys, zj - c_in, first, stop)
            q = bisect_left(ys, zj + c_in, p, stop)
            slopes[first] = sget(first, 0) - 1
            icepts[first] = iget(first, 0) + zj - c_out
            slopes[p] = sget(p, 0) + 1
            icepts[p] = iget(p, 0) + c_in - zj
            slopes[q] = sget(q, 0) + 1
            icepts[q] = iget(q, 0) - zj - c_in
            slopes[stop] = sget(stop, 0) - 1
            icepts[stop] = iget(stop, 0) + zj + c_out

    si = s[i]
    row = ranks[i]
    d_k = row[k - 1][0]
    a, b = si - d_k, si + d_k
    lo = hi = si
    inner = at_a = at_b = 0
    for d, _, l in row:
        if d > d_k:
            break
        v = z[l]
        if d < d_k:
            inner += 1
            lo, hi = min(lo, v), max(hi, v)
        elif v == a:
            at_a += 1
        else:
            at_b += 1
    # (P, Q) of i's cost on y < s_i and on y >= s_i: the k - inner tied
    # neighbours at distance d_k reach the far side of s_i only when the near
    # side holds fewer than k - inner of them (at y == s_i both cost d_k)
    left = (lo, b) if at_a < k - inner else (a, hi)
    right = (a, hi) if at_b < k - inner else (lo, b)
    for y in (si, (sum(left) + 1) // 2, (sum(right) + 1) // 2):  # s_i; first y >= (P + Q) / 2
        icepts.setdefault(bisect_left(ys, y), 0)
    icepts[m] = 0  # the scan ends here; what changes at m is never read

    sl, ic, start = 0, base, 0
    best_cost, best_y = -1, 0
    for end in sorted(icepts):
        if end > start:
            y = ys[start]
            low, high = left if y < si else right
            if sl + (1 if 2 * y >= low + high else -1) < 0:
                y = ys[end - 1]
            c = (y - low if y - low > high - y else high - y) + sl * y + ic
            if best_cost < 0 or c < best_cost:
                best_cost, best_y = c, y
            if end == m:
                break
            start = end
        sl += sget(end, 0)
        ic += icepts[end]
    return best_cost, best_y
