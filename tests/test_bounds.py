"""Closed-form lower bounds, cost caps, PoA brackets."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from kcof import (
    GameInstance,
    best_pne,
    build_segment_graph,
    check_pure,
    eta,
    opt_lower_bound_1,
    opt_lower_bound_k,
    pne_player_cost_cap,
    pne_player_cost_cap_1,
    poa_bracket,
    social_cost,
    star_window,
)
from kcof.catalog import catalog_entry
from tests.conftest import random_instance


def brute_star_window(inst: GameInstance, i: int) -> tuple[int, int]:
    """Independent minimization over all (k+1)-wide windows containing i."""
    k, s = inst.k, inst.beliefs
    options = [
        (s[left + k] - s[left], left)
        for left in range(inst.n - k)
        if left <= i <= left + k
    ]
    span, left = min(options)
    return left, left + k


def brute_eta(inst: GameInstance, i: int) -> int:
    s = inst.beliefs
    options = [(abs(s[i] - s[j]), j) for j in (i - 1, i + 1) if 0 <= j < inst.n]
    return min(options)[1]


class TestStarWindow:
    def test_matches_brute_force(self, rng):
        for _ in range(50):
            n = rng.randint(3, 10)
            k = rng.randint(1, n - 1)
            inst = GameInstance(
                k=k, beliefs=tuple(sorted(F(rng.randint(0, 40)) for _ in range(n)))
            )
            for i in range(n):
                assert star_window(inst, i) == brute_star_window(inst, i)

    def test_single_window_when_n_is_k_plus_1(self):
        inst = GameInstance(k=3, beliefs=(0, 0, 0, 1))
        assert all(star_window(inst, i) == (0, 3) for i in range(4))

    def test_index_checked(self):
        inst = GameInstance(k=1, beliefs=(0, 1))
        with pytest.raises(IndexError):
            star_window(inst, 2)


class TestEta:
    def test_quad_map_and_values(self):
        inst = GameInstance(k=1, beliefs=(0, 9, 12, 21))
        assert [eta(inst, i) for i in range(4)] == [1, 2, 1, 2]

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            inst = random_instance(rng)
            for i in range(inst.n):
                assert eta(inst, i) == brute_eta(inst, i)

    def test_tie_prefers_left(self):
        inst = GameInstance(k=1, beliefs=(0, 5, 10))
        assert eta(inst, 1) == 0


class TestLowerBounds:
    def test_star_instance_value(self):
        # k players at 0 and one at 1: every window spans 1
        for k in (3, 4, 5):
            inst = GameInstance(k=k, beliefs=(0,) * k + (1,))
            assert opt_lower_bound_k(inst) == F(1, 2)

    def test_all_equal_is_zero(self):
        inst = GameInstance(k=2, beliefs=(3, 3, 3, 3))
        assert opt_lower_bound_k(inst) == 0

    def test_blocks_value_against_independent_windows(self):
        inst = catalog_entry("poa_blocks", k=3).instance
        total = F(0)
        for i in range(inst.n):
            left, right = brute_star_window(inst, i)
            total += inst.beliefs[right] - inst.beliefs[left]
        assert opt_lower_bound_k(inst) == total / (2 * 4)
        assert opt_lower_bound_k(inst) == F(9, 2)  # frozen from the window sums

    def test_chain_bound_k1(self):
        inst = GameInstance(k=1, beliefs=(0, 9, 12, 21))
        assert opt_lower_bound_1(inst) == 8

    def test_poa_chain_bound_by_enumeration(self):
        inst = catalog_entry("poa_chain", k=1).instance
        total = sum(
            (abs(inst.beliefs[i] - inst.beliefs[brute_eta(inst, i)]) for i in range(inst.n)),
            F(0),
        )
        assert opt_lower_bound_1(inst) == total / 3 == F(10, 3)

    def test_degenerate_zero(self):
        inst = GameInstance(k=1, beliefs=(2, 2))
        assert opt_lower_bound_1(inst) == 0

    def test_k1_bound_requires_k1(self):
        with pytest.raises(ValueError):
            opt_lower_bound_1(GameInstance(k=2, beliefs=(0, 1, 2)))

    def test_every_feasible_vector_respects_the_bounds(self, rng):
        for _ in range(30):
            inst = random_instance(rng)
            z = [F(rng.randint(-20, 120)) for _ in range(inst.n)]
            sc = social_cost(inst, z)
            assert sc >= opt_lower_bound_k(inst)
            assert sc >= opt_lower_bound_1(inst)


class TestCostCaps:
    def test_star_instance_caps(self):
        inst = GameInstance(k=3, beliefs=(0, 0, 0, 1))
        z = (F(1, 3),) * 3 + (F(2, 3),)
        costs = check_pure(inst, z).player_costs
        for i in range(4):
            assert pne_player_cost_cap(inst, i) == 2
            assert costs[i] == F(1, 3)

    def test_degenerate_caps_zero(self):
        inst = GameInstance(k=1, beliefs=(5, 5, 5))
        assert all(pne_player_cost_cap(inst, i) == 0 for i in range(3))

    def test_chain_equilibrium_respects_k1_cap(self):
        entry = catalog_entry("pos_chain", k=1, lam=F(1, 10))
        inst = entry.instance
        costs = check_pure(inst, entry.references[0].opinions).player_costs
        for i in range(inst.n):
            assert costs[i] <= pne_player_cost_cap_1(inst, i)

    def test_cap_ratio_identity(self, rng):
        # sum of caps over the window lower bound is exactly 4(k+1)
        for _ in range(20):
            n = rng.randint(3, 9)
            k = rng.randint(1, n - 1)
            inst = GameInstance(
                k=k, beliefs=tuple(sorted(F(rng.randint(0, 30)) for _ in range(n)))
            )
            lower = opt_lower_bound_k(inst)
            caps = sum(pne_player_cost_cap(inst, i) for i in range(inst.n))
            if lower > 0:
                assert caps / lower == 4 * (k + 1)
            else:
                assert caps == 0


class TestPoaBracket:
    def test_chain_bracket(self):
        entry = catalog_entry("poa_chain", k=1)
        starts = [r.opinions for r in entry.references if r.opinions is not None]
        bracket = poa_bracket(entry.instance, starts=starts)
        assert bracket.worst_pne_cost == 8
        assert bracket.opt_upper <= F(10, 3)
        assert bracket.ratio_lower is not None and bracket.ratio_lower >= F(12, 5)
        assert bracket.opt_lower <= bracket.opt_upper
        assert bracket.ratio_upper == bracket.worst_pne_cost / bracket.opt_lower

    def test_degenerate_all_equal(self):
        inst = GameInstance(k=1, beliefs=(4, 4, 4))
        bracket = poa_bracket(inst)
        assert bracket.worst_pne_cost == 0
        assert bracket.opt_lower == bracket.opt_upper == 0
        assert bracket.ratio_lower == bracket.ratio_upper == 1
        assert not bracket.ratio_upper_unbounded

    def test_blocks_k3_with_supplied_equilibrium(self):
        entry = catalog_entry("poa_blocks", k=3)
        pne = entry.references[0].opinions
        near = entry.references[1].opinions
        bracket = poa_bracket(entry.instance, starts=[pne, near])
        assert bracket.worst_pne_cost == F(17, 2) * 4  # (8 + 1/2)(k + 1)
        assert bracket.opt_upper <= 9
        assert bracket.ratio_lower >= F(34, 9)

    def test_k2_without_equilibrium_reports_absent(self):
        inst = GameInstance(k=2, beliefs=(0, 1, 2, 3))
        bracket = poa_bracket(inst, use_optimizer=False)
        assert bracket.worst_pne_cost is None
        assert bracket.ratio_lower is None and bracket.ratio_upper is None

    def test_k2_non_equilibrium_start_reports_absent(self):
        inst = GameInstance(k=2, beliefs=(0, 1, 2, 3))
        start = (0, 0, 0, 99)
        assert not check_pure(inst, start).verdict.is_pne
        bracket = poa_bracket(inst, use_optimizer=False, starts=[start])
        assert bracket.worst_pne_cost is None
        assert bracket.ratio_lower is None and bracket.ratio_upper is None

    def test_k2_cheapest_start_caps_and_dearest_is_worst(self):
        # two equilibria found by dynamics from random starts; the truthful
        # vector, which costs 13, is no equilibrium
        inst = GameInstance(k=2, beliefs=(1, 5, 6, 6, 7, 10))
        cheap = (F(10, 3), F(16, 3), F(17, 3), F(17, 3), F(27, 4), F(47, 6))
        dear = (F(11, 3), 5, F(19, 3), F(19, 3), F(20, 3), F(49, 6))
        checked = [check_pure(inst, z) for z in (cheap, dear, inst.beliefs)]
        assert [c.verdict.is_pne for c in checked] == [True, True, False]
        assert [c.social_cost for c in checked] == [F(79, 12), F(41, 6), 13]
        bracket = poa_bracket(inst, use_optimizer=False, starts=[dear, inst.beliefs, cheap])
        assert bracket.worst_pne_cost == F(41, 6)
        assert bracket.opt_upper == F(79, 12)

    def test_no_optimizer_caps_the_truthful_upper_by_the_best_pne(self):
        # the truthful vector costs 24; the best equilibrium, 12, is feasible too
        inst = GameInstance(k=1, beliefs=(0, 9, 12, 21))
        bracket = poa_bracket(inst, use_optimizer=False)
        assert social_cost(inst, inst.beliefs) == 24
        assert bracket.opt_upper == best_pne(build_segment_graph(inst))[1] == 12
        assert bracket.opt_lower <= bracket.opt_upper

    def test_best_equilibrium_caps_the_upper_bound(self):
        # every PNE is feasible, so OPT <= the best PNE's cost <= the worst's
        rng = random.Random(0xB0B)
        with_pne = 0
        for _ in range(40):
            n = rng.randint(3, 7)
            inst = GameInstance(k=1, beliefs=tuple(sorted(F(rng.randint(0, 30)) for _ in range(n))))
            bracket = poa_bracket(inst)
            best = best_pne(build_segment_graph(inst))
            if best is None:
                assert bracket.worst_pne_cost is None and bracket.ratio_lower is None
                continue
            with_pne += 1
            assert bracket.opt_upper <= best[1], inst
            assert bracket.ratio_lower >= 1, inst
        assert with_pne >= 25, with_pne
