"""The walk to a player's nearest opinions against the full ranking, and
the checks that rank through it."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction as F

import kcof._accel as accel
from kcof import GameInstance, check_mixed, check_pure, game
from kcof.catalog import MNE, NEAR_OPT, PNE, catalog


def walk_case(rng: random.Random):
    """(z, hi, k): opinions in 0..hi for a small hi, so that equal ones abound."""
    n = rng.randint(1, 12)
    hi = rng.choice((1, 3, 6))
    z = [rng.randint(0, hi) for _ in range(n)]
    k = max(n - 1, 1) if rng.random() < 0.2 else rng.randint(1, n + 1)
    return z, hi, k


def ranked_span(z, i, si, ref, k):
    """(tie, lo, hi) of :func:`kcof._accel.span`, from the full ranking."""
    order = accel.ranked(z, i, si, ref)
    tie = len(order) > k and order[k - 1][0] == order[k][0]
    ends = [si] + [z[j] for _, _, j in order[:k]]
    return tie, min(ends), max(ends)


def owner(z, chosen, i, si, value):
    """Who attains an end of player i's interval: i, else the smallest chosen index."""
    if value == si or value == z[i]:
        return i
    return min(j for j in chosen if z[j] == value)


class TestNearestWalk:
    """The walk through the sorted opinions against the full ranking."""

    def test_matches_the_prefix_of_ranked_on_many_ties(self):
        rng = random.Random(0x3A1)
        seen = Counter()
        cases = 0
        while cases < 100_000:
            z, hi, k = walk_case(rng)
            view = accel.sorted_view(z)
            for i in range(len(z)):
                si = rng.randint(-1, hi + 1)
                ref = z[i] if rng.random() < 0.5 else rng.randint(-1, hi + 1)
                got = accel.span([si] * len(z), z, k, i, ref, view)  # span reads s_i only
                assert got == ranked_span(z, i, si, ref, k), (z, i, si, ref, k)
                cases += 1
                order = accel.ranked(z, i, si, ref)
                seen["i inside a group of equal opinions"] += z.count(z[i]) > 1
                seen["s_i equal to some opinion"] += si in z
                seen["ref != z_i"] += ref != z[i]
                seen["k = n - 1, every other player chosen"] += k == len(z) - 1
                seen["k > n - 1, fewer candidates than k"] += k > len(z) - 1
                if ref == si and got[0] and order[k - 1][0] > 0:
                    # the k-th and (k+1)-th tie on both distances at d > 0; when
                    # both s_i - d and s_i + d are opinions, the indices decide
                    d = order[k - 1][0]
                    values = {z[j] for _, _, j in order}
                    seen["the indices decide between the two sides"] += {si - d, si + d} <= values
        decided = seen.pop("the indices decide between the two sides")
        assert decided >= 300, decided
        assert len(seen) == 5 and min(seen.values()) >= 10_000, seen

    def test_span_matches_a_full_sort(self):
        rng = random.Random(0x3A2)
        for _ in range(2000):
            n = rng.randint(2, 12)
            k = rng.randint(1, n - 1)
            s = sorted(rng.randint(0, 12) for _ in range(n))
            z = [rng.randint(-3, 15) for _ in range(n)]
            view = accel.sorted_view(z)
            for i in range(len(s)):
                order = accel.ranked(z, i, s[i], z[i])
                chosen = [j for _, _, j in order[:k]]
                tie, lo, hi = ranked_span(z, i, s[i], z[i], k)
                assert accel.span(s, z, k, i, z[i], view) == (tie, lo, hi)
                for value in (lo, hi):
                    if value != s[i]:  # a neighbour's opinion, which may equal z_i
                        expected = min(j for j in chosen if z[j] == value)
                        assert game._owner(view, i, value) == expected


class TestOwners:
    def test_belief_range_flag_matches_the_ranked_owners(self):
        """``in_belief_range`` against owners read from the ranked prefix."""
        rng = random.Random(0x3A3)
        seen = Counter()
        for _ in range(2000):
            n = rng.randint(2, 9)
            s = sorted(rng.randint(0, 6) for _ in range(n))
            # opinions near the beliefs half the time, so that both flags occur
            near = rng.random() < 0.5
            z = [v + rng.randint(-1, 1) if near else rng.randint(-1, 7) for v in s]
            partly = False
            for k in range(1, n):
                in_range = True
                for i in range(n):
                    chosen = [j for _, _, j in accel.ranked(z, i, s[i], z[i])[:k]]
                    ends = [s[i], z[i]] + [z[j] for j in chosen]
                    for value in (min(ends), max(ends)):
                        group = [j for j in range(n) if j != i and z[j] == value]
                        if value not in (s[i], z[i]) and not set(group) <= set(chosen):
                            partly = True
                    lo_at = owner(z, chosen, i, s[i], min(ends))
                    hi_at = owner(z, chosen, i, s[i], max(ends))
                    in_range = in_range and s[lo_at] <= z[i] <= s[hi_at]
                inst = GameInstance(k=k, beliefs=tuple(F(v) for v in s))
                assert check_pure(inst, [F(v) for v in z]).structure.in_belief_range == in_range
                seen[in_range] += 1
            seen["an end's group partly chosen"] += partly
        assert seen["an end's group partly chosen"] >= 200 and min(seen.values()) >= 200, seen


def _catalog_cases():
    """Every catalog reference vector for k = 1, 2, 3, 5 and 8."""
    for k in (1, 2, 3, 5, 8):
        for entry in catalog(k):
            for ref in entry.references:
                yield entry.instance, ref


def _ranked_player_costs(inst, z):
    """The scale, s and z at it, and each player's cost from the full ranking."""
    d, ints = accel.scaled((*inst.beliefs, *z))
    s, zs = ints[: inst.n], ints[inst.n :]
    costs = []
    for i, zi in enumerate(zs):
        ends = [s[i]] + [zs[j] for _, _, j in accel.ranked(zs, i, s[i], zi)[: inst.k]]
        costs.append(F(max(zi - min(ends), max(ends) - zi), d))
    return d, s, zs, costs


class TestChecksUseTheWalk:
    def test_checks_never_rank_in_full(self, monkeypatch):
        cases = list(_catalog_cases())
        pure = [
            (inst, ref, _ranked_player_costs(inst, ref.opinions))
            for inst, ref in cases
            if ref.mixed is None
        ]
        mixed = [(inst, ref) for inst, ref in cases if ref.mixed is not None]
        assert len(pure) >= 20 and len(mixed) >= 5

        def refuse(*args):
            raise AssertionError("a check ranked every candidate")

        monkeypatch.setattr(accel, "ranked", refuse)
        for inst, ref, (d, s, zs, costs) in pure:
            checked = check_pure(inst, ref.opinions)
            assert list(checked.player_costs) == costs
            assert checked.social_cost == ref.expected_cost
            if ref.verdict != NEAR_OPT:
                assert checked.verdict.is_pne == (ref.verdict == PNE)
            assert (accel.first_unstable(s, zs, inst.k) == -1) == checked.verdict.is_pne
            assert F(accel.social_cost(s, zs, inst.k), d) == ref.expected_cost
        for inst, ref in mixed:
            checked = check_mixed(inst, ref.mixed)
            assert checked.expected_social_cost == ref.expected_cost
            assert checked.verdict.is_mne == (ref.verdict == MNE)
