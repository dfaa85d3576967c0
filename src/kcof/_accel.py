"""The integer core: the one scale, the neighbour tie rule and the span.

Everything that decides an equilibrium or a cost works on plain ints at one
shared scale: :func:`scaled` multiplies values by the lcm of their
denominators, once per instance for the beliefs (``GameInstance.s_int`` at
``GameInstance.scale``).  Python ints never overflow, so any scale is exact.

:func:`ranked` defines the neighbour tie rule: it orders all of a player's
candidate neighbours.  A check needs only the first k + 1, the opinions
nearest the belief s_i, and of them only the span's ends and whether the
k-th ties with the next.  So it sorts the opinions once per vector
(:func:`sorted_view`), and :func:`span` walks out from s_i through the
sorted values one group of equal values at a time, in O(log n) per group,
to the interval [lo, hi] spanning s_i and the first k opinions of
:func:`ranked`; a differential test pins the two together on many-tie
inputs.  The best reply is the interval's midpoint, tested without
division as 2*z_i == lo + hi, and the cost of z_i is the distance to its
far end.  The ``Fraction`` API in :mod:`kcof.game`, the mixed checks in
:mod:`kcof.mixed` and the kernels here all rank through :func:`span`;
:func:`social_cost` and :func:`first_unstable` are short views of it.  The
optimizer's descent keeps one :func:`ranked` list per player across its
moves (:func:`move`); :func:`coordinate_best` reads their first k + 1 keys
in place, sums one step's breakpoints per candidate index and sorts those
indices once.
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


def sorted_view(z: Sequence[int]) -> tuple[list[int], list[int]]:
    """The opinions in increasing order, and the players in that order, ties by index."""
    order = sorted(range(len(z)), key=z.__getitem__)
    return [z[j] for j in order], order


def span(
    s: Sequence[int], z: Sequence[int], k: int, i: int, ref: int, view: tuple[list, list]
) -> tuple[bool, int, int]:
    """(tie, lo, hi) of player i's ranking, read from ``view = sorted_view(z)``.

    ``tie``: the k-th and (k+1)-th of ``ranked(z, i, s_i, ref)`` are equally
    far from s_i; [lo, hi] spans s_i and the first k opinions.  The walk takes
    the nearer group of equal values, below s_i or at or above it (i is not
    counted), until k are taken; a group is chosen from its smallest index up.
    Two groups at one distance are ordered by ``ref``, and when ref = s_i by
    the indices: a side is reached when fewer than the count still wanted of
    the other side's indices are below its smallest.  O(log n) per group.
    """
    vals, order = view
    n = len(vals)
    si, zi = s[i], z[i]
    lo = hi = si
    # the groups: vals[a:ae] below s_i, vals[b:be] at or above it, at
    # distances dl and dr, with cl and cr members other than i (None: none left)
    ae = be = bisect_left(vals, si)
    dl = dr = None
    dk = -1  # the distance of the last group taken
    need = k
    while need:
        while dl is None and ae:
            a = ae - 1
            v = vals[a]
            if a and vals[a - 1] == v:
                a = bisect_left(vals, v, 0, a)
            cl = ae - a - (v == zi)
            if cl:
                dl = si - v
            else:
                ae = a
        while dr is None and be < n:
            b = be
            v = vals[b]
            be += 1
            if be < n and vals[be] == v:
                be = bisect_right(vals, v, be)
            cr = be - b - (v == zi)
            if cr:
                dr = v - si
        if dl is None and dr is None:
            break
        if dl == dr and ref == si and cl + cr > need:
            # two index runs, each sorted, without i; a side is reached when
            # its smallest index is among the need smallest of both
            fl = order[a] if order[a] != i else order[a + 1]
            fr = order[b] if order[b] != i else order[b + 1]
            if bisect_left(order, fl, b, be) - b - (zi == vals[b] and i < fl) < need:
                lo = si - dl
            if bisect_left(order, fr, a, ae) - a - (zi == vals[a] and i < fr) < need:
                hi = si + dr
            return True, lo, hi
        if dr is None or (dl is not None and (dl < dr or (dl == dr and ref < si))):
            lo, dk = si - dl, dl
            if cl > need:
                break
            need -= cl
            dl, ae = None, a
        else:
            hi, dk = si + dr, dr
            if cr > need:
                break
            need -= cr
            dr = None
    return dl == dk or dr == dk, lo, hi


def social_cost(s: Sequence[int], z: Sequence[int], k: int) -> int:
    """The integer social cost; no library code calls it, but tests hold the
    optimizer's descent and :func:`coordinate_best` to it."""
    view = sorted_view(z)
    total = 0
    for i, zi in enumerate(z):
        _, lo, hi = span(s, z, k, i, zi, view)
        total += max(zi - lo, hi - zi)
    return total


def first_unstable(s: Sequence[int], z: Sequence[int], k: int) -> int:
    """Index of the first player whose opinion is not her exact best response.

    Returns -1 when the vector is a pure Nash equilibrium.
    """
    view = sorted_view(z)
    for i, zi in enumerate(z):
        _, lo, hi = span(s, z, k, i, zi, view)
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
