"""Mixed-equilibrium verification: expectations, deviations, degeneracy."""

from __future__ import annotations

import random
import time
from fractions import Fraction as F
from itertools import product

import pytest

from kcof import (
    MAX_WORK,
    GameInstance,
    as_randomized,
    check_mixed,
    check_pure,
    is_pure_nash,
)
from kcof import mixed
from kcof.catalog import PNE, catalog, catalog_entry


def singleton_wrap(z) -> tuple:
    return tuple(((v, F(1)),) for v in z)


@pytest.fixture(scope="module")
def chain():
    entry = catalog_entry("mpoa_chain", k=1)
    profile = next(r.mixed for r in entry.references if r.mixed is not None)
    return entry.instance, profile


@pytest.fixture(scope="module")
def blocks3():
    entry = catalog_entry("mpoa_blocks", k=3)
    profile = next(r.mixed for r in entry.references if r.mixed is not None)
    return entry.instance, profile


class TestValidation:
    def test_probabilities_must_sum_to_one(self):
        inst = GameInstance(k=1, beliefs=(0, 1))
        with pytest.raises(ValueError, match="sum to 1"):
            as_randomized(inst, (((F(0), F(1, 2)),), ((F(1), F(1)),)))

    def test_nonpositive_probability(self):
        inst = GameInstance(k=1, beliefs=(0, 1))
        bad = (((F(0), F(3, 2)), (F(2), F(-1, 2))), ((F(1), F(1)),))
        with pytest.raises(ValueError, match="non-positive"):
            as_randomized(inst, bad)

    def test_duplicate_support_point(self):
        inst = GameInstance(k=1, beliefs=(0, 1))
        bad = (((F(0), F(1, 2)), (F(0), F(1, 2))), ((F(1), F(1)),))
        with pytest.raises(ValueError, match="duplicate"):
            as_randomized(inst, bad)

    def test_realization_cap(self):
        n = 21
        inst = GameInstance(k=1, beliefs=tuple(range(n)))
        two_point = tuple(((F(i), F(1, 2)), (F(i) + 1, F(1, 2))) for i in range(n))
        with pytest.raises(ValueError, match="cap"):
            as_randomized(inst, two_point)


class TestChainConstruction:
    def test_expected_player_costs(self, chain):
        inst, rz = chain
        lam = F(1, 2)
        costs = check_mixed(inst, rz).expected_costs
        assert costs[2] == 8 - lam
        assert costs[3] == 8 - lam
        for i in (0, 1, 4, 5):
            assert costs[i] == 0

    def test_expected_social_cost(self, chain):
        inst, rz = chain
        assert check_mixed(inst, rz).expected_social_cost == 16 - 2 * F(1, 2)

    def test_deviation_minimum_is_tight(self, chain):
        inst, rz = chain
        y_star, cost = check_mixed(inst, rz).deviations[2]
        assert cost == 8 - F(1, 2)
        assert y_star == F(-13, 2)  # smallest minimizer: the realization midpoint

    def test_verdict(self, chain):
        inst, rz = chain
        assert check_mixed(inst, rz).verdict.is_mne


class TestBlocksConstruction:
    def test_middle_players_cost_eight(self, blocks3):
        inst, rz = blocks3
        costs = check_mixed(inst, rz).expected_costs
        for i in (5, 6):  # the k-1 players between the two randomizers
            assert costs[i] == 8

    def test_randomizer_cost(self, blocks3):
        inst, rz = blocks3
        lam = F(1, 2)
        costs = check_mixed(inst, rz).expected_costs
        assert costs[7] == 12 - lam / 2
        assert costs[4] == 12 - lam / 2

    def test_expected_social_cost(self, blocks3):
        inst, rz = blocks3
        assert check_mixed(inst, rz).expected_social_cost == 8 * 3 + 16 - F(1, 2)

    def test_randomizer_deviation_minimum(self, blocks3):
        inst, rz = blocks3
        _, cost = check_mixed(inst, rz).deviations[7]
        assert cost == 12 - F(1, 4)

    def test_verdict(self, blocks3):
        inst, rz = blocks3
        assert check_mixed(inst, rz).verdict.is_mne


class TestDegenerateConsistency:
    def test_non_equilibrium_wrap_is_rejected(self):
        inst = GameInstance(k=1, beliefs=(-10, 2, 5))
        z = (F(-10), F(-5), F(4))
        wrapped = singleton_wrap(z)
        assert not is_pure_nash(inst, z).is_pne
        assert not check_mixed(inst, wrapped).verdict.is_mne

    def test_equilibrium_wrap_is_accepted(self):
        inst = GameInstance(k=1, beliefs=(-10, 2, 5))
        z = (F(-7, 2), F(3), F(4))
        assert check_mixed(inst, singleton_wrap(z)).verdict.is_mne

    def test_random_wraps_match_deterministic(self, rng):
        for _ in range(40):
            n = rng.randint(3, 8)
            k = rng.randint(1, min(3, n - 1))
            inst = GameInstance(k=k, beliefs=tuple(sorted(rng.randint(0, 30) for _ in range(n))))
            z = tuple(F(rng.randint(-10, 40)) for _ in range(n))
            wrapped = singleton_wrap(z)
            mixed_check, costs = check_mixed(inst, wrapped), check_pure(inst, z).player_costs
            assert mixed_check.verdict.is_mne == is_pure_nash(inst, z).is_pne
            assert mixed_check.expected_social_cost == sum(costs)
            for i in range(n):
                assert mixed_check.expected_costs[i] == costs[i]

    def test_ties_preserved_on_wrap(self):
        # the sevenths equilibrium has exact boundary ties; degenerate
        # consistency must survive them
        inst = GameInstance(k=2, beliefs=(0, 1, 1, 2))
        z = (F(4, 7), F(6, 7), F(8, 7), F(10, 7))
        assert is_pure_nash(inst, z).is_pne
        assert check_mixed(inst, singleton_wrap(z)).verdict.is_mne


def _deviation_g(inst, rz, i):
    """Test-local expected deviation cost: intervals per realization."""
    supports = as_randomized(inst, rz)
    ref = sum((op * pr for op, pr in supports[i]), F(0))
    others = [(j, supports[j]) for j in range(inst.n) if j != i]
    intervals = []
    for combo in product(*[sup for _, sup in others]):
        prob = F(1)
        for _, pr in combo:
            prob *= pr
        ranked = sorted(
            (abs(op - inst.beliefs[i]), abs(op - ref), j, op)
            for (j, _), (op, _) in zip(others, combo)
        )
        vals = [op for _, _, _, op in ranked[: inst.k]]
        intervals.append((prob, min(inst.beliefs[i], *vals), max(inst.beliefs[i], *vals)))

    def g(y):
        return sum((p * max(y - lo, hi - y) for p, lo, hi in intervals), F(0))

    kinks = sorted({(lo + hi) / 2 for _, lo, hi in intervals})
    return g, kinks


class TestDeviationFunction:
    def test_soundness_against_random_probes(self, chain, rng):
        inst, rz = chain
        deviations = check_mixed(inst, rz).deviations
        for i in range(inst.n):
            g, _ = _deviation_g(inst, rz, i)
            _, best = deviations[i]
            for _ in range(100):
                y = F(rng.randint(-1200, 1200), rng.randint(1, 16))
                assert g(y) >= best

    def test_piecewise_linearity_between_kinks(self, chain):
        inst, rz = chain
        for i in (2, 3):
            g, kinks = _deviation_g(inst, rz, i)
            for a, b in zip(kinks, kinks[1:]):
                for t in (F(1, 4), F(1, 2), F(3, 4)):
                    y = a + t * (b - a)
                    assert g(y) == g(a) + t * (g(b) - g(a))

    def test_linearity_of_expectation(self, chain):
        inst, rz = chain
        checked = check_mixed(inst, rz)
        assert checked.expected_social_cost == sum(checked.expected_costs, F(0))


class TestWorkCap:
    def test_many_players_with_two_points_each_refused_at_once(self):
        # 2**19 realizations pass a cap of 10**6 realizations, but every one
        # ranks all 19 players
        n = 19
        inst = GameInstance(k=1, beliefs=tuple(range(n)))
        two_point = tuple(((F(i), F(1, 2)), (F(i) + 1, F(1, 2))) for i in range(n))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="cap"):
            check_mixed(inst, two_point)
        assert time.perf_counter() - start < 1

    @staticmethod
    def _profile(points):
        """Players at 0, 1, ... with uniform supports of the given sizes."""
        inst = GameInstance(k=1, beliefs=tuple(range(len(points))))
        rz = tuple(
            tuple((F(i) + F(t, m), F(1, m)) for t in range(m)) for i, m in enumerate(points)
        )
        return inst, rz

    def test_profile_at_the_cap_is_accepted(self):
        # 100 * 100 * 40 realizations of 5 players
        inst, rz = self._profile((100, 100, 40, 1, 1))
        assert 100 * 100 * 40 * 5**2 == MAX_WORK
        assert len(as_randomized(inst, rz)) == 5

    def test_one_more_point_is_refused(self):
        inst, rz = self._profile((100, 100, 41, 1, 1))
        with pytest.raises(ValueError, match="cap"):
            as_randomized(inst, rz)


def probed_best_deviation(spans, extra):
    """The deviation sweep over the kinks plus extra probe points, all in
    doubled units; smallest minimizer on ties."""
    kinks = sorted((lo + hi, lo, hi, w) for (lo, hi), w in spans.items())
    probes = sorted(extra | {c for c, _, _, _ in kinks})
    w_left = lo_left = 0
    w_right = sum(w for *_, w in kinks)
    hi_right = sum(2 * hi * w for _, _, hi, w in kinks)
    best_y = best = None
    p = 0
    for y in probes:
        while p < len(kinks) and kinks[p][0] <= y:
            _, lo, hi, w = kinks[p]
            w_left += w
            lo_left += 2 * lo * w
            w_right -= w
            hi_right -= 2 * hi * w
            p += 1
        g = w_left * y - lo_left + hi_right - w_right * y
        if best is None or g < best:
            best_y, best = y, g
    return best_y, best


class TestBestDeviationSweep:
    def test_kinks_alone_match_the_probed_sweep_on_many_ties(self):
        # small integers, so that kinks coincide, intervals have zero width
        # and g is often flat at its minimum, where a probe could tie
        rng = random.Random(0xDE7)
        flat = 0
        for _ in range(5000):
            spans = {}
            for _ in range(rng.randint(1, 6)):
                lo = rng.randint(-4, 4)
                spans[lo, lo + rng.randint(0, 3)] = rng.randint(1, 3)
            extra = {2 * rng.randint(-8, 8) for _ in range(rng.randint(0, 8))}
            y, g = probed_best_deviation(spans, extra)
            assert mixed._best_deviation(spans) == (y, g), (spans, extra)
            kinks = {lo + hi for lo, hi in spans}
            flat += any(
                v not in kinks
                and sum(w * max(v - 2 * lo, 2 * hi - v) for (lo, hi), w in spans.items()) == g
                for v in extra
            )
        assert flat >= 250, flat


def _brute_mixed(inst, rz):
    """Expected costs by product enumeration of the pure costs, and each
    player's smallest best deviation by evaluating the deviation function at
    every kink, support point and belief."""
    supports = as_randomized(inst, rz)
    costs = [F(0)] * inst.n
    for combo in product(*supports):
        prob = F(1)
        for _, pr in combo:
            prob *= pr
        pure_costs = check_pure(inst, [op for op, _ in combo]).player_costs
        for i in range(inst.n):
            costs[i] += prob * pure_costs[i]
    deviations = []
    for i in range(inst.n):
        g, kinks = _deviation_g(inst, rz, i)
        probes = sorted(set(kinks) | {op for op, _ in supports[i]} | set(inst.beliefs))
        best = min(probes, key=lambda y: (g(y), y))
        deviations.append((best, g(best)))
    return costs, deviations


class TestCheckMixedDifferential:
    """check_mixed against a product enumeration of check_pure's player costs."""

    @staticmethod
    def _equilibria():
        """Catalog equilibria: pure ones wrapped as one-point supports, and mixed ones."""
        for k in (1, 2, 3):
            for entry in catalog(k):
                for ref in entry.references:
                    if ref.mixed is not None:
                        yield entry.instance, ref.mixed
                    elif ref.verdict == PNE:
                        yield entry.instance, singleton_wrap(ref.opinions)

    @staticmethod
    def _random_profiles(rng, count):
        for _ in range(count):
            n = rng.randint(2, 6)
            k = rng.randint(1, n - 1)
            pool = sorted({F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rng.randint(2, 5))})
            inst = GameInstance(k=k, beliefs=tuple(sorted(rng.choice(pool) for _ in range(n))))
            rz = []
            for _ in range(n):
                if len(pool) > 1 and rng.random() < 0.3:
                    a, b = rng.sample(pool, 2)
                    p = F(rng.randint(1, 3), 4)
                    rz.append(((a, p), (b, 1 - p)))
                else:
                    rz.append(((rng.choice(pool), F(1)),))
            yield inst, tuple(rz)

    def test_matches_product_enumeration(self):
        rng = random.Random(1702)
        cases = list(self._equilibria()) + list(self._random_profiles(rng, 1000))
        seen = {"mne": 0, "not_mne": 0, "randomized": 0}
        for inst, rz in cases:
            got = check_mixed(inst, rz)
            costs, deviations = _brute_mixed(inst, rz)
            assert list(got.expected_costs) == costs
            assert got.expected_social_cost == sum(costs, F(0))
            assert list(got.deviations) == deviations
            violations = [
                (i, y, costs[i] - g) for i, (y, g) in enumerate(deviations) if g < costs[i]
            ]
            assert [(v.player, v.deviation, v.improvement) for v in got.verdict.violations] == violations
            assert got.verdict.is_mne == (not violations)
            seen["mne"] += got.verdict.is_mne
            seen["not_mne"] += not got.verdict.is_mne
            seen["randomized"] += any(len(sup) > 1 for sup in rz)
        assert seen["mne"] >= 20 and seen["not_mne"] >= 200 and seen["randomized"] >= 300, seen
