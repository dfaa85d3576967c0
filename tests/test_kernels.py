"""Integer kernels against the Fraction reference, and the neighbour tie rule."""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction as F
from itertools import combinations
from math import lcm

import kcof._accel as accel
from kcof import GameInstance, check_pure, is_pure_nash, social_cost


def random_case(rng: random.Random):
    n = rng.randint(2, 12)
    k = rng.randint(1, n - 1)
    # small ranges on purpose: exact ties must be frequent
    s = sorted(rng.randint(0, 12) for _ in range(n))
    z = [rng.randint(-3, 15) for _ in range(n)]
    return s, z, k


def assert_matches_reference(s, z, k):
    inst = GameInstance(k=k, beliefs=tuple(F(v) for v in s))
    zf = tuple(F(v) for v in z)
    assert accel.social_cost(s, z, k) == social_cost(inst, zf)
    costs = check_pure(inst, zf).player_costs
    for i in range(len(s)):
        _, lo, hi = accel.span(s, z, k, i, z[i], accel.sorted_view(z))
        assert max(z[i] - lo, hi - z[i]) == costs[i]
    assert (accel.first_unstable(s, z, k) == -1) == is_pure_nash(inst, zf).is_pne


BIG = 1 << 80


class TestReferenceParity:
    def test_matches_fraction_reference(self, rng):
        for _ in range(150):
            assert_matches_reference(*random_case(rng))

    def test_values_beyond_int64(self):
        # values near 2**80 stay exact: no fixed-width arithmetic anywhere
        s = [0, BIG, 2 * BIG]
        z = [BIG // 2, BIG, 3 * BIG // 2]
        assert_matches_reference(s, z, 1)
        assert accel.social_cost(s, z, 1) == 3 * BIG // 2
        assert accel.first_unstable(s, z, 1) == 1

    def test_boundary_tie(self):
        # players 1 and 2 each see two neighbours at the same distance; the
        # tie toward their own opinion makes this vector an equilibrium
        s = [0, 3, 4, 7]
        z = [1, 2, 5, 6]
        assert_matches_reference(s, z, 1)
        assert accel.first_unstable(s, z, 1) == -1
        assert accel.social_cost(s, z, 1) == 4

    def test_scaled_rationals_round_trip(self, rng):
        for _ in range(50):
            n = rng.randint(2, 8)
            k = rng.randint(1, n - 1)
            beliefs = tuple(
                sorted(F(rng.randint(0, 60), rng.randint(1, 6)) for _ in range(n))
            )
            z = tuple(F(rng.randint(-30, 90), rng.randint(1, 6)) for _ in range(n))
            inst = GameInstance(k=k, beliefs=beliefs)
            denom = lcm(*[v.denominator for v in beliefs + z])
            s_int = [int(v * denom) for v in beliefs]
            z_int = [int(v * denom) for v in z]
            assert F(accel.social_cost(s_int, z_int, k), denom) == social_cost(inst, z)


def assert_tie_rule(s, z, i, chosen):
    """Every chosen j beats every unchosen l on (|z_j-s_i|, |z_j-z_i|, j)."""

    def key(j):
        return (abs(z[j] - s[i]), abs(z[j] - z[i]), j)

    assert i not in chosen
    unchosen = [l for l in range(len(s)) if l != i and l not in chosen]
    for j in chosen:
        for l in unchosen:
            assert key(j) < key(l), (s, z, i, sorted(chosen))


class TestTieRule:
    def test_chosen_neighbours_follow_the_rule(self, rng):
        for _ in range(200):
            s, z, k = random_case(rng)
            for i in range(len(s)):
                chosen = {j for _, _, j in accel.ranked(z, i, s[i], z[i])[:k]}
                assert len(chosen) == k
                assert_tie_rule(s, z, i, chosen)
                # the walk spans exactly s_i and the chosen opinions
                ends = [s[i]] + [z[j] for j in chosen]
                _, lo, hi = accel.span(s, z, k, i, z[i], accel.sorted_view(z))
                assert (lo, hi) == (min(ends), max(ends))


class TestKeptRankings:
    def test_moves_keep_every_ranking_fresh(self, rng):
        for _ in range(300):
            s, z, _ = random_case(rng)
            ranks = rankings(s, z)
            for _ in range(rng.randint(1, 12)):
                i = rng.randrange(len(s))
                y = rng.choice(z + [rng.randint(-3, 15)])  # often onto a tie
                accel.move(s, z, ranks, i, y)
                assert z[i] == y
                assert ranks == rankings(s, z), (s, z, i)


def brute_force_best(s, z, k, i, candidates):
    """Every candidate in place, the full social cost summed; smallest y on ties."""
    work = list(z)
    best = None
    for y in candidates:
        work[i] = y
        c = accel.social_cost(s, work, k)
        if best is None or (c, y) < best:
            best = (c, y)
    return best


def rankings(s, z):
    """Every player's ranking, as :func:`kcof._accel.coordinate_best` takes them."""
    return [accel.ranked(z, j, s[j], z[j]) for j in range(len(s))]


def many_tie_case(rng: random.Random):
    """(s, z, k, i, candidates) on values 0..10, shaped so that ties abound."""
    n = rng.randint(2, 10)
    k = n - 1 if rng.random() < 0.25 else rng.randint(1, n - 1)
    s = sorted(rng.randint(0, 10) for _ in range(n))
    z = [rng.randint(0, 10) for _ in range(n)]
    i = rng.randrange(n)
    shape = rng.randrange(3)
    if shape == 1:  # neighbours sitting at s_i, so that d_k is often 0
        for j in rng.sample(range(n), rng.randint(1, n)):
            z[j] = s[i]
    elif shape == 2:  # neighbours on both sides of s_i at one distance
        d = rng.randint(1, 3)
        for j in range(n):
            if rng.random() < 0.7:
                z[j] = s[i] + rng.choice((-d, d))
    cands = rng.sample(z, rng.randint(1, n)) + [rng.randint(-2, 12) for _ in range(3)]
    return s, z, k, i, cands


def row_breakpoints(s, z, k, i):
    """For each other player j, (ends, kinks): s_j -+ d_j, the ends of the y
    range where j may choose i, and z_j -+ c_in, the kinks of j's cost when
    it does."""
    n = len(s)
    rows = {}
    for j in range(n):
        if j == i:
            continue
        keys = sorted((abs(z[l] - s[j]), abs(z[l] - z[j]), l) for l in range(n) if l not in (i, j))
        c_in = max([abs(z[j] - s[j])] + [key[1] for key in keys[: k - 1]])
        ends = (s[j] - keys[k - 1][0], s[j] + keys[k - 1][0]) if k < n - 1 else ()
        rows[j] = (ends, (z[j] - c_in, z[j] + c_in))
    return rows


def case_features(s, z, k, i, cands):
    others = [v for j, v in enumerate(z) if j != i]
    d_k = sorted(abs(v - s[i]) for v in others)[k - 1]
    rows = row_breakpoints(s, z, k, i)
    ends = {y for row_ends, _ in rows.values() for y in row_ends}
    kinks = {y for _, row_kinks in rows.values() for y in row_kinks}
    # the candidate indices where each player's pieces start: the first
    # candidate above s_j - d_j or z_j - c_in, at or above s_j + d_j or z_j + c_in
    ys = sorted(set(cands))
    starts = []
    for pairs in rows.values():
        pairs = [pair for pair in pairs if pair]
        lows = {bisect_right(ys, lo) for lo, _ in pairs}
        starts.append(lows | {bisect_left(ys, hi) for _, hi in pairs})
    return {
        "k = n-1": k == len(s) - 1,
        "d_k = 0": d_k == 0,
        "ties at both s_i-d_k and s_i+d_k": d_k > 0
        and s[i] - d_k in others
        and s[i] + d_k in others,
        "candidate equal to another opinion": any(y in others for y in cands),
        "candidate equal to s_j +- d_j for some j": any(y in ends for y in cands),
        "candidate equal to z_j +- c_in for some j": any(y in kinks for y in cands),
        "two breakpoints on one candidate index": any(
            (a & b) - {len(ys)} for a, b in combinations(starts, 2)
        ),
    }


class TestCoordinateBest:
    """The sorted-sweep kernel against the definition of the social cost."""

    def test_matches_brute_force_on_many_ties(self):
        rng = random.Random(0xC0B)
        seen = Counter()
        for _ in range(2500):
            s, z, k, i, cands = many_tie_case(rng)
            got = accel.coordinate_best(s, z, k, i, sorted(set(cands)), rankings(s, z))
            assert got == brute_force_best(s, z, k, i, cands), (s, z, k, i, cands)
            seen.update(name for name, hit in case_features(s, z, k, i, cands).items() if hit)
            # the integer cost is the exact social cost at scale 1/7
            cost, y = got
            inst = GameInstance(k=k, beliefs=tuple(F(v, 7) for v in s))
            moved = [F(v, 7) for v in z]
            moved[i] = F(y, 7)
            assert social_cost(inst, moved) == F(cost, 7)
        assert len(seen) == 7 and min(seen.values()) >= 200, seen

    def test_matches_brute_force_on_dense_grids(self):
        # many-tie cases at 2f times the scale, with every integer of the
        # range (or a random subset of at least 100) as a candidate: the
        # half-integer kinks of the base scale land on candidates, and most
        # linear pieces hold many candidates
        rng = random.Random(0xDE6)
        off_grid = 0
        for _ in range(1000):
            s, z, k, i, _ = many_tie_case(rng)
            while len(s) > 6:  # the brute force costs O(n^2 log n) per candidate
                s, z, k, i, _ = many_tie_case(rng)
            f = round(4 * 17.5 ** rng.random())  # log-uniform in [4, 70]
            s, z = [2 * f * v for v in s], [2 * f * v for v in z]
            cands = list(range(-4 * f, 24 * f + 1))  # 113 to 1961 values
            if rng.random() < 0.5:
                cands = rng.sample(cands, rng.randint(100, len(cands)))
            got = accel.coordinate_best(s, z, k, i, sorted(cands), rankings(s, z))
            assert got == brute_force_best(s, z, k, i, cands), (s, z, k, i, f)
            off_grid += got[1] % (2 * f) != 0
        # the best value is often off the base scale's integers
        assert off_grid >= 200, off_grid

    def test_values_near_2_80(self):
        rng = random.Random(0xB16)
        for _ in range(20):
            s, z, k, i, cands = many_tie_case(rng)
            s, z, cands = (
                [BIG * v + 1 for v in s],
                [BIG * v + 1 for v in z],
                [BIG * v + 1 for v in cands],
            )
            assert accel.coordinate_best(
                s, z, k, i, sorted(set(cands)), rankings(s, z)
            ) == brute_force_best(s, z, k, i, cands)
