"""Core game operations: neighborhoods, costs, best responses, dynamics."""

from __future__ import annotations

import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcof._accel as accel
from kcof import (
    GameInstance,
    as_opinions,
    best_response_dynamics,
    build_segment_graph,
    check_pure,
    is_pure_nash,
    optimize_social_cost,
    social_cost,
)
from kcof.catalog import catalog_entry


@pytest.fixture(scope="module")
def triple() -> GameInstance:
    return GameInstance(k=1, beliefs=(-10, 2, 5))


Z_OBSERVED = (F(-10), F(-5), F(4))
Z_EQUILIBRIUM = (F(-7, 2), F(3), F(4))


def _span(inst, z, i):
    """Player i's chosen neighbours, the first k of :func:`kcof._accel.ranked`,
    and the interval spanning s_i, z_i and their opinions, from one
    :func:`kcof._accel.span`."""
    d, ints = accel.scaled((*inst.beliefs, *as_opinions(inst, z)))
    s, zs = ints[: inst.n], ints[inst.n :]
    chosen = {j for _, _, j in accel.ranked(zs, i, s[i], zs[i])[: inst.k]}
    _, lo, hi = accel.span(s, zs, inst.k, i, zs[i], accel.sorted_view(zs))
    return chosen, F(min(lo, zs[i]), d), F(max(hi, zs[i]), d)


def _best_reply(inst, z, i):
    """Player i's best reply: her violation's, or z_i when she has none."""
    for violation in check_pure(inst, z).verdict.violations:
        if violation.player == i:
            return violation.best_reply
    return as_opinions(inst, z)[i]


def _costs(inst, z):
    return list(check_pure(inst, z).player_costs)


class TestInstanceValidation:
    def test_unsorted_beliefs_name_the_index(self):
        with pytest.raises(ValueError, match="index 1"):
            GameInstance(k=1, beliefs=(0, 5, 3))

    def test_too_few_players(self):
        with pytest.raises(ValueError, match="k\\+1"):
            GameInstance(k=3, beliefs=(0, 1, 2))

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            GameInstance(k=0, beliefs=(0, 1))

    def test_labels_length(self):
        with pytest.raises(ValueError):
            GameInstance(k=1, beliefs=(0, 1), labels=("a",))

    def test_boolean_k_rejected(self):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            GameInstance(k=True, beliefs=(0, 1))

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            GameInstance(k=1, beliefs=(0.5, 1.5))

    def test_opinion_count(self, triple):
        with pytest.raises(ValueError):
            as_opinions(triple, (1, 2))


class _Reads(tuple):
    """A belief tuple that counts the reads of its items."""

    reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


class TestIntegerBeliefs:
    """``GameInstance.scale`` and ``s_int``: the beliefs as integers, made once."""

    def test_at_matches_one_scaled_pass(self):
        rng = random.Random(0x5CA1E)
        for _ in range(300):
            n = rng.randint(2, 8)
            beliefs = sorted(F(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(n))
            inst = GameInstance(1, beliefs)
            assert (inst.scale, list(inst.s_int)) == accel.scaled(inst.beliefs)
            drawn = [F(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(rng.randint(1, 6))]
            for values in ((), drawn):
                d, ints = accel.scaled((*inst.beliefs, *values))
                assert inst.at(values) == (d, ints[:n], ints[n:])

    def test_not_part_of_equality_hash_or_repr(self):
        a, b = (GameInstance(2, (F(1, 2), F(2, 3), 1)) for _ in range(2))
        assert (a.scale, a.s_int) == (6, (3, 4, 6))
        object.__setattr__(b, "scale", 12)
        object.__setattr__(b, "s_int", (6, 8, 12))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) == (
            "GameInstance(k=2, beliefs=(Fraction(1, 2), Fraction(2, 3), Fraction(1, 1)),"
            " labels=None)"
        )

    @pytest.mark.parametrize("k", [1, 2])
    def test_queries_never_rescale_the_beliefs(self, k):
        rng = random.Random(k)
        beliefs = sorted(F(rng.randint(-60, 60), rng.choice((1, 2, 3, 5, 7))) for _ in range(9))
        inst = GameInstance(k, beliefs)
        watched = _Reads(inst.beliefs)
        object.__setattr__(inst, "beliefs", watched)
        z = [F(rng.randint(-60, 60), rng.choice((1, 4, 9))) for _ in range(inst.n)]
        check_pure(inst, z)
        best_response_dynamics(inst, z, 50)
        optimize_social_cost(inst, [z])
        if k == 1:
            build_segment_graph(inst)
        assert watched.reads == 0


class TestNeighborhood:
    def test_left_player_follows_middle(self, triple):
        assert _span(triple, Z_OBSERVED, 0)[0] == {1}

    def test_middle_and_right(self, triple):
        assert _span(triple, Z_OBSERVED, 1)[0] == {2}
        assert _span(triple, Z_OBSERVED, 2)[0] == {1}

    def test_all_others_when_n_is_k_plus_1(self):
        inst = GameInstance(k=3, beliefs=(0, 1, 2, 7))
        z = as_opinions(inst, (5, 0, 2, 1))
        for i in range(4):
            assert _span(inst, z, i)[0] == set(range(4)) - {i}


class TestInterval:
    def test_equilibrium_middle_interval(self, triple):
        assert _span(triple, Z_EQUILIBRIUM, 1)[1:] == (2, 4)

    def test_degenerate_point(self):
        inst = GameInstance(k=1, beliefs=(3, 3, 3))
        assert _span(inst, (3, 3, 3), 1)[1:] == (3, 3)

    def test_k2_sevenths_vector(self):
        # direct evaluation: P = {0, 4/7} plus the two nearest opinions 6/7, 8/7
        inst = GameInstance(k=2, beliefs=(0, 1, 1, 2))
        z = (F(4, 7), F(6, 7), F(8, 7), F(10, 7))
        assert _span(inst, z, 0)[1:] == (0, F(8, 7))


class TestCosts:
    def test_observed_costs(self, triple):
        assert _costs(triple, Z_OBSERVED) == [5, 9, 9]
        assert social_cost(triple, Z_OBSERVED) == 23

    def test_equilibrium_costs(self, triple):
        assert _costs(triple, Z_EQUILIBRIUM) == [F(13, 2), 1, 1]
        assert social_cost(triple, Z_EQUILIBRIUM) == F(17, 2)

    def test_zero_cost(self):
        inst = GameInstance(k=2, beliefs=(4, 4, 4))
        assert check_pure(inst, (4, 4, 4)).player_costs[0] == 0
        assert social_cost(inst, (4, 4, 4)) == 0

    @settings(max_examples=50, deadline=None)
    @given(
        shift=st.integers(-1000, 1000),
        data=st.lists(st.tuples(st.integers(0, 50), st.integers(-20, 70)), min_size=2, max_size=7),
    )
    def test_translation_invariance(self, shift, data):
        beliefs = sorted(b for b, _ in data)
        z = [o for _, o in data]
        inst = GameInstance(k=1, beliefs=tuple(beliefs))
        shifted = GameInstance(k=1, beliefs=tuple(b + shift for b in beliefs))
        assert _costs(inst, z) == _costs(shifted, [v + shift for v in z])

    @settings(max_examples=50, deadline=None)
    @given(
        data=st.lists(st.tuples(st.integers(0, 50), st.integers(-20, 70)), min_size=2, max_size=7)
    )
    def test_reflection_preserves_cost_multiset(self, data):
        beliefs = sorted(b for b, _ in data)
        z = [o for _, o in data]
        inst = GameInstance(k=1, beliefs=tuple(beliefs))
        mirrored = GameInstance(k=1, beliefs=tuple(-b for b in reversed(beliefs)))
        mz = [-v for v in reversed(z)]
        original = sorted(_costs(inst, z))
        reflected = sorted(_costs(mirrored, mz))
        assert original == reflected


class TestBestResponse:
    def test_middle_player_midpoint(self, triple):
        # response to z_0=-3.5, z_2=4 is the middle of [2, 4]; own entry unused
        assert _best_reply(triple, (F(-7, 2), F(99), F(4)), 1) == 3

    def test_all_points_equal(self):
        inst = GameInstance(k=1, beliefs=(7, 7))
        assert _best_reply(inst, (7, 7), 0) == 7

    def test_sevenths_vector_is_a_fixed_point(self):
        inst = GameInstance(k=2, beliefs=(0, 1, 1, 2))
        z = (F(4, 7), F(6, 7), F(8, 7), F(10, 7))
        for i in range(4):
            assert _best_reply(inst, z, i) == z[i]

    def test_beats_random_probes(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 7)
            k = rng.randint(1, n - 1)
            inst = GameInstance(k=k, beliefs=tuple(sorted(rng.randint(0, 60) for _ in range(n))))
            z = [F(rng.randint(-20, 80)) for _ in range(n)]
            i = rng.randrange(n)
            reply = _best_reply(inst, z, i)
            base = _costs(inst, z[:i] + [reply] + z[i + 1 :])[i]
            for _ in range(100):
                probe = F(rng.randint(-2000, 8000), rng.randint(1, 64))
                assert _costs(inst, z[:i] + [probe] + z[i + 1 :])[i] >= base


class TestIsPureNash:
    def test_equilibrium_accepted(self, triple):
        assert is_pure_nash(triple, Z_EQUILIBRIUM).is_pne

    def test_observed_rejected_with_witness(self, triple):
        verdict = is_pure_nash(triple, Z_OBSERVED)
        assert not verdict.is_pne
        first = verdict.violations[0]
        # player 0's best response to z_{-0} is (-10 + -5)/2
        assert first.player == 0 and first.best_reply == F(-15, 2)
        assert first.cost_drop > 0

    def test_blocks_equilibrium_k2(self):
        entry = catalog_entry("poa_blocks", k=2)
        ref = entry.references[0]
        assert is_pure_nash(entry.instance, ref.opinions).is_pne

    def test_midpoint_characterization(self, triple):
        verdict = is_pure_nash(triple, Z_EQUILIBRIUM)
        assert verdict.is_pne
        for i in range(3):
            _, lo, hi = _span(triple, Z_EQUILIBRIUM, i)
            assert Z_EQUILIBRIUM[i] == (lo + hi) / 2


class TestDynamics:
    def test_fixed_point_converges_immediately(self, triple):
        result = best_response_dynamics(triple, Z_EQUILIBRIUM, max_rounds=5)
        assert result.outcome == "converged"
        assert result.opinions == Z_EQUILIBRIUM
        assert result.rounds == 1

    def test_from_beliefs_reaches_an_equilibrium(self, triple):
        result = best_response_dynamics(triple, triple.beliefs, max_rounds=500)
        assert result.outcome == "converged"
        assert is_pure_nash(triple, result.opinions).is_pne

    def test_gadget_never_converges(self):
        inst = GameInstance(k=1, beliefs=(0, F(7, 8), 2))
        result = best_response_dynamics(inst, inst.beliefs, max_rounds=2000)
        assert result.outcome in ("cycle", "exhausted")

    @pytest.mark.parametrize("name, k", [("poa_blocks", 2), ("pos_star", 4)])
    def test_k_at_least_2_reaches_an_equilibrium(self, name, k):
        inst = catalog_entry(name, k=k).instance
        result = best_response_dynamics(inst, inst.beliefs, max_rounds=100)
        assert result.outcome == "converged"
        assert is_pure_nash(inst, result.opinions).is_pne


class TestStructureReport:
    def test_equilibrium_reports_clean(self, triple):
        report = check_pure(triple, Z_EQUILIBRIUM).structure
        assert report.monotone and report.in_belief_range and report.consecutive_neighborhoods

    def test_sevenths_equilibrium(self):
        inst = GameInstance(k=2, beliefs=(0, 1, 1, 2))
        report = check_pure(inst, (F(4, 7), F(6, 7), F(8, 7), F(10, 7))).structure
        assert report.all_ok

    def test_large_k_with_few_opinions_in_linear_memory(self):
        """k = 1000 of 2000 players whose opinions fall in four groups.  The
        window extremes take O(n + k) memory: the check peaks at 0.9 MB, and
        k + 1 sliced copies of the opinions would take 9 MB.  The report is
        the one a min and max of a slice per window gave."""
        rng = random.Random(3)
        s = sorted(rng.randint(0, 10**6) for _ in range(2000))
        inst = GameInstance(k=1000, beliefs=tuple(s))
        z = tuple(v // 250000 * 250000 for v in s)
        tracemalloc.start()
        try:
            got = check_pure(inst, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000
        assert (len(got.verdict.violations), got.social_cost) == (1504, 623250000)
        assert got.structure.monotone and got.structure.consecutive_neighborhoods
        assert not got.structure.in_belief_range

    def test_constructed_monotonicity_violation(self):
        inst = GameInstance(k=1, beliefs=(0, 10, 20))
        report = check_pure(inst, (5, 0, 20)).structure
        assert not report.monotone


def _brute_pure(s, z, k):
    """check_pure from the definitions, over Fractions, one player at a time.

    Ranks by (|z_j - s_i|, |z_j - z_i|, j); the interval of the structure
    flags spans s_i, z_i and the neighbours, and its end owners prefer i,
    then the smallest index; the window scan tries every window of k+1
    consecutive players that contains i.
    """
    n = len(s)
    violations, costs = [], []
    tie_seen = False
    in_range = consecutive = True
    for i in range(n):
        keys = sorted((abs(z[j] - s[i]), abs(z[j] - z[i]), j) for j in range(n) if j != i)
        tie_seen = tie_seen or (len(keys) > k and keys[k - 1][0] == keys[k][0])
        chosen = [j for _, _, j in keys[:k]]
        cost = max([abs(z[i] - s[i])] + [abs(z[j] - z[i]) for j in chosen])
        costs.append(cost)
        reach = [s[i]] + [z[j] for j in chosen]
        reply = (min(reach) + max(reach)) / 2
        if z[i] != reply:
            violations.append((i, reply, cost - (max(reach) - min(reach)) / 2))
        points = [(s[i], i), (z[i], i)] + [(z[j], j) for j in chosen]
        lo, hi = min(v for v, _ in points), max(v for v, _ in points)

        def owner(value):
            owners = [j for v, j in points if v == value]
            return i if i in owners else min(owners)

        in_range = in_range and s[owner(lo)] <= z[i] <= s[owner(hi)]
        consecutive = consecutive and any(
            min(s[i], *z[a : a + k + 1]) == lo and max(s[i], *z[a : a + k + 1]) == hi
            for a in range(n - k)
            if a <= i <= a + k
        )
    monotone = all(z[i] <= z[i + 1] for i in range(n - 1) if s[i] < s[i + 1])
    return violations, costs, tie_seen, (monotone, in_range, consecutive)


def _assert_matches_brute(inst, z):
    got = check_pure(inst, z)
    violations, costs, tie_seen, flags = _brute_pure(inst.beliefs, as_opinions(inst, z), inst.k)
    assert got.verdict.is_pne == (not violations)
    assert [(v.player, v.best_reply, v.cost_drop) for v in got.verdict.violations] == violations
    assert list(got.player_costs) == costs
    assert got.social_cost == sum(costs, F(0))
    assert got.verdict.tie_seen == tie_seen
    structure = got.structure
    assert (structure.monotone, structure.in_belief_range, structure.consecutive_neighborhoods) == flags
    # the views agree with the pass
    assert is_pure_nash(inst, z) == got.verdict
    assert social_cost(inst, z) == got.social_cost
    # the int costs at the pass's scale, and the integer kernel's social cost there
    d, s, zs = inst.at(as_opinions(inst, z))
    assert got.scale == d and all(type(c) is int for c in got.costs)
    assert [F(c, d) for c in got.costs] == costs
    assert sum(got.costs) == accel.social_cost(s, zs, inst.k)
    return got


class TestCheckPureDifferential:
    """check_pure against the brute force on many-tie inputs."""

    def test_many_tie_cases(self):
        rng = random.Random(20170222)
        seen = {"tie": 0, "not_pne": 0, "pne": 0, "k=n-1": 0, "not_monotone": 0,
                "not_in_range": 0, "not_consecutive": 0}
        for _ in range(2400):
            n = rng.randint(2, 9)
            k = rng.randint(1, n - 1)
            pool = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rng.randint(1, 6))]
            inst = GameInstance(k=k, beliefs=tuple(sorted(rng.choice(pool) for _ in range(n))))
            got = _assert_matches_brute(inst, tuple(rng.choice(pool) for _ in range(n)))
            seen["tie"] += got.verdict.tie_seen
            seen["not_pne"] += not got.verdict.is_pne
            seen["pne"] += got.verdict.is_pne
            seen["k=n-1"] += k == n - 1
            seen["not_monotone"] += not got.structure.monotone
            seen["not_in_range"] += not got.structure.in_belief_range
            seen["not_consecutive"] += not got.structure.consecutive_neighborhoods
        assert min(seen.values()) >= 200, seen

    def test_many_tie_cases_up_to_40_players(self):
        """n from 10 to 40 and k from 1 to n - 1.  Most cases draw from a few
        values: equal beliefs, groups of equal opinions, some vectors sorted.
        The rest shift sorted opinions by one offset to get the beliefs, so a
        player's one spanning window may start anywhere from i - k to i.
        Players whose windows are cut off at both ends (i < k and
        i > n - 1 - k) and k = n - 1, one window for all, occur, and each flag
        is False at least 100 times."""
        rng = random.Random(26)
        seen = Counter()
        for _ in range(320):
            n = rng.randint(10, 40)
            k = rng.choice((rng.randint(1, 3), rng.randint(1, n - 1), n - 1))
            if rng.random() < 0.3:
                z = sorted(F(rng.randint(-2 * n, 2 * n), 2) for _ in range(n))
                shift = F(rng.randint(-4 * k, 4 * k), 8)
                beliefs = [v + shift for v in z]
                seen["shifted"] += 1
            else:
                pool = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rng.randint(1, 8))]
                beliefs = sorted(rng.choice(pool) for _ in range(n))
                z = [rng.choice(pool) for _ in range(n)]
                if rng.random() < 0.15:
                    z.sort()
            got = _assert_matches_brute(GameInstance(k=k, beliefs=tuple(beliefs)), tuple(z))
            seen["k=n-1"] += k == n - 1
            seen["windows cut at both ends"] += n - 1 - k < k - 1
            seen["tie"] += got.verdict.tie_seen
            seen["all_ok"] += got.structure.all_ok
            seen["not_monotone"] += not got.structure.monotone
            seen["not_in_range"] += not got.structure.in_belief_range
            seen["not_consecutive"] += not got.structure.consecutive_neighborhoods
        assert min(seen.values()) >= 30, seen
        assert min(seen["not_monotone"], seen["not_in_range"], seen["not_consecutive"]) >= 100, seen

    def test_values_near_2_to_the_80(self):
        big = 2**80
        inst = GameInstance(k=2, beliefs=(big, big, big + 1, big + 3, big + 3))
        third = F(1, 3)
        for z in [
            (big + third, big + third, big + 1, big + 3 - third, big + 3),
            (big, big + 1, big + 1, big + 2, big + 3),
            (big - 1, big + F(1, 2), big + 1, big + F(5, 2), big + 4),
        ]:
            _assert_matches_brute(inst, z)

    def test_coprime_denominators_beyond_2_to_the_64(self):
        primes = (2027, 2029, 2039, 2053, 2063, 2069)
        beliefs = tuple(sorted(F(3 * p + 1, p) for p in primes))
        assert math.lcm(*primes) > 2**64
        rng = random.Random(64)
        for k in (1, 2, 5):
            inst = GameInstance(k=k, beliefs=beliefs)
            for _ in range(20):
                z = tuple(F(rng.randint(2 * p, 4 * p), p) for p in rng.sample(primes, 6))
                _assert_matches_brute(inst, z)
            _assert_matches_brute(inst, beliefs)
