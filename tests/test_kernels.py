"""Integer kernels against the Fraction reference, and the neighbour tie rule."""

from __future__ import annotations

import random
from fractions import Fraction as F
from math import lcm

import pytest

import kcof._accel as accel
from kcof import GameInstance, is_pure_nash, neighborhood, player_cost, social_cost


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
    for i in range(len(s)):
        assert accel.player_cost(s, z, k, i) == player_cost(inst, zf, i)
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
    @pytest.mark.parametrize("select", ["neighborhood", "kernel"])
    def test_chosen_neighbours_follow_the_rule(self, rng, select):
        for _ in range(200):
            s, z, k = random_case(rng)
            inst = GameInstance(k=k, beliefs=tuple(F(v) for v in s))
            for i in range(len(s)):
                if select == "neighborhood":
                    chosen = set(neighborhood(inst, [F(v) for v in z], i).members)
                else:
                    chosen = set(accel._chosen(s, z, k, i))
                assert len(chosen) == k
                assert_tie_rule(s, z, i, chosen)
