"""The walk to a player's nearest opinions against the full ranking, and
the checks that rank through it."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction as F

import kcof._accel as accel
from kcof import check_mixed, check_pure
from kcof.catalog import MNE, NEAR_OPT, PNE, catalog


def walk_case(rng: random.Random):
    """(z, hi, count): opinions in 0..hi for a small hi, so that equal ones abound."""
    n = rng.randint(1, 12)
    hi = rng.choice((1, 3, 6))
    z = [rng.randint(0, hi) for _ in range(n)]
    count = n if rng.random() < 0.2 else rng.randint(1, n + 2)
    return z, hi, count


class TestNearestWalk:
    """The walk through the sorted opinions against the full ranking."""

    def test_yields_the_prefix_of_ranked_on_many_ties(self):
        rng = random.Random(0x3A1)
        seen = Counter()
        cases = 0
        while cases < 100_000:
            z, hi, count = walk_case(rng)
            view = accel.sorted_view(z)
            for i in range(len(z)):
                si = rng.randint(-1, hi + 1)
                ref = z[i] if rng.random() < 0.5 else rng.randint(-1, hi + 1)
                got = accel.nearest(view, i, si, ref, count)
                assert got == accel.ranked(z, i, si, ref)[:count], (z, i, si, ref, count)
                cases += 1
                seen["i inside a group of equal opinions"] += z.count(z[i]) > 1
                seen["s_i equal to some opinion"] += si in z
                seen["ref != z_i"] += ref != z[i]
                seen["count = n, as for k = n - 1"] += count == len(z)
                seen["count > n"] += count > len(z)
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
                tie = len(order) > k and order[k - 1][0] == order[k][0]
                ends = [s[i]] + [z[j] for j in chosen]
                expected = (chosen, tie, min(ends), max(ends))
                assert accel.span(s, z, k, i, z[i], view) == expected


def _catalog_cases():
    """Every catalog reference vector for k = 1, 2, 3, 5 and 8."""
    for k in (1, 2, 3, 5, 8):
        for entry in catalog(k, verify=False):
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
