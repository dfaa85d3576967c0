"""Optimizer: feasibility, dominance over starts, known upper bounds."""

from __future__ import annotations

import random
import time
from fractions import Fraction as F

import pytest

import kcof.optimize as optimize
from kcof import GameInstance, _accel, opt_lower_bound_k, social_cost
from kcof.catalog import catalog_entry
from kcof.catalog import catalog
from kcof.optimize import MAX_PLAYERS, _descend, _grid, optimize_social_cost


def candidate_opinions(inst):
    """The optimizer's grid as exact values."""
    scale, grid = _grid(inst)
    return tuple(F(v, scale) for v in grid)


def unrefined_grid(beliefs):
    """Beliefs, pairwise midpoints and both third-points of every pair."""
    values = set(beliefs)
    for x in beliefs:
        for y in beliefs:
            values |= {(x + y) / 2, (2 * x + y) / 3}
    return sorted(values)


class TestCandidates:
    def test_grid_contains_beliefs_midpoints_thirds(self):
        inst = GameInstance(k=1, beliefs=(0, 9, 12, 21))
        cands = set(candidate_opinions(inst))
        assert {F(0), F(9), F(12), F(21)} <= cands
        assert F(9, 2) in cands  # midpoint of 0 and 9
        assert F(3) in cands and F(6) in cands  # third-points of 0 and 9

    def test_refinement_adds_adjacent_midpoints(self):
        # two levels split every gap of the unrefined grid into four equal parts
        for beliefs in [(0, 4), (0, 9, 12, 21), (F(1, 3), 1, 1, F(7, 2))]:
            inst = GameInstance(k=1, beliefs=tuple(F(b) for b in beliefs))
            level0 = unrefined_grid(inst.beliefs)
            expected = {u + t * (v - u) / 4 for u, v in zip(level0, level0[1:]) for t in range(4)}
            assert candidate_opinions(inst) == tuple(sorted(expected | {level0[-1]}))

    def test_equal_beliefs_have_no_gap_to_refine(self):
        inst = GameInstance(k=1, beliefs=(3, 3, 3))
        assert candidate_opinions(inst) == (3,)

    def test_grid_at_the_player_cap_stays_below_2_16(self):
        # distinct generic beliefs give the largest grid: 64 + 3 * C(64, 2) =
        # 6,112 values before refinement, 4 * 6,112 - 3 after
        beliefs = sorted(random.Random(64).sample(range(10**12), MAX_PLAYERS))
        inst = GameInstance(k=1, beliefs=tuple(F(b) for b in beliefs))
        size = len(candidate_opinions(inst))
        assert size == 24_445 and size <= 1 << 16


class TestPlayerCap:
    def test_one_player_above_the_cap_is_refused_at_once(self):
        inst = GameInstance(k=2, beliefs=tuple(range(MAX_PLAYERS + 1)))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="cap"):
            optimize_social_cost(inst)
        assert time.perf_counter() - start < 1

    def test_no_catalog_instance_is_refused(self):
        for k in range(1, 9):
            assert all(e.instance.n <= MAX_PLAYERS for e in catalog(k))


class TestKnownValues:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_star_reaches_herding(self, k):
        inst = GameInstance(k=k, beliefs=(0,) * k + (1,))
        _, cost = optimize_social_cost(inst)
        assert cost <= 1

    def test_sevenths_instance(self):
        inst = GameInstance(k=2, beliefs=(0, 1, 1, 2))
        _, cost = optimize_social_cost(inst)
        assert cost <= F(3, 2)

    def test_blocks_k2_with_seed(self):
        entry = catalog_entry("poa_blocks", k=2)
        starts = [r.opinions for r in entry.references if r.opinions is not None]
        _, cost = optimize_social_cost(entry.instance, starts=starts)
        assert cost <= F(5, 3) * F(9, 2)  # (5/3)(4 + 1/2)

    def test_chain_with_seed(self):
        entry = catalog_entry("pos_chain", k=1, lam=F(1, 10))
        starts = [r.opinions for r in entry.references if r.opinions is not None]
        _, cost = optimize_social_cost(entry.instance, starts=starts)
        assert cost <= 10 + F(12, 10)


class TestInvariants:
    def test_reported_cost_is_recomputable(self):
        inst = GameInstance(k=1, beliefs=(0, 9, 12, 21))
        z, cost = optimize_social_cost(inst)
        assert len(z) == inst.n
        assert social_cost(inst, z) == cost

    def test_dominates_truthful_and_starts(self):
        entry = catalog_entry("poa_chain", k=1)
        inst = entry.instance
        starts = [r.opinions for r in entry.references if r.opinions is not None]
        _, cost = optimize_social_cost(inst, starts=starts)
        assert cost <= social_cost(inst, inst.beliefs)
        for st in starts:
            assert cost <= social_cost(inst, st)

    def test_never_below_the_window_bound(self):
        for beliefs in [(0, 9, 12, 21), (0, 0, 7, 7), (1, 2, 3, 4, 5)]:
            inst = GameInstance(k=1, beliefs=beliefs)
            _, cost = optimize_social_cost(inst)
            assert cost >= opt_lower_bound_k(inst)

    def test_deterministic_given_seed(self):
        inst = GameInstance(k=2, beliefs=(0, 1, 1, 2))
        assert optimize_social_cost(inst) == optimize_social_cost(inst)

    def test_exact_recheck_catches_a_kernel_that_under_reports(self, monkeypatch):
        real = _accel.coordinate_best

        def under_report(s, z, k, i, candidates, ranks):
            cost, y = real(s, z, k, i, candidates, ranks)
            return cost - 1, y

        monkeypatch.setattr(_accel, "coordinate_best", under_report)
        inst = GameInstance(k=1, beliefs=(0, 9, 12, 21))
        with pytest.raises(AssertionError, match="bookkeeping mismatch"):
            optimize_social_cost(inst)


def full_sweep_descent(s, z, k, cands, max_sweeps):
    """Reference descent: whole sweeps, until a sweep makes no move."""
    cost = _accel.social_cost(s, z, k)
    for _ in range(max_sweeps):
        sweep_start = cost
        for i in range(len(s)):
            ranks = [_accel.ranked(z, j, s[j], z[j]) for j in range(len(s))]
            best_cost, best_y = _accel.coordinate_best(s, z, k, i, cands, ranks)
            if best_cost < cost:
                z[i] = best_y
                cost = best_cost
        if cost == sweep_start:
            break
    return cost, z


def many_tie_descent_case(rng: random.Random):
    """(s, z, k, candidates) on small integers, so that ties abound."""
    n = rng.randint(2, 8)
    k = rng.randint(1, n - 1)
    s = sorted(rng.randint(0, 8) for _ in range(n))
    cands = sorted(set(s) | {rng.randint(-2, 10) for _ in range(rng.randint(0, 6))})
    z = [rng.choice(cands) for _ in range(n)]
    return s, z, k, cands


class TestDescent:
    def test_matches_full_sweeps_on_many_ties(self):
        rng = random.Random(0xDE5)
        for _ in range(600):
            s, z, k, cands = many_tie_descent_case(rng)
            max_sweeps = rng.choice((1, 2, 3, 200))
            assert _descend(s, list(z), k, cands, max_sweeps, {}) == full_sweep_descent(
                s, list(z), k, cands, max_sweeps
            ), (s, z, k, cands, max_sweeps)

    def test_stops_once_provably_stable(self, monkeypatch):
        real = _accel.coordinate_best
        seen = []  # the vector at each call

        def counting(s, z, k, i, candidates, ranks):
            seen.append(tuple(z))
            return real(s, z, k, i, candidates, ranks)

        monkeypatch.setattr(_accel, "coordinate_best", counting)
        rng = random.Random(0x57A)
        moved = 0
        for _ in range(500):
            s, z, k, cands = many_tie_descent_case(rng)
            n = len(s)
            seen.clear()
            cost, result = _descend(s, list(z), k, cands, 200, {})
            # a move changes the vector, so the last move is the last call
            # after which the vector differs
            after = seen[1:] + [tuple(result)]
            moves = [t for t in range(len(seen)) if after[t] != seen[t]]
            if moves:
                moved += 1
                assert len(seen) - 1 - moves[-1] == n - 1, (s, z, k, cands)
            else:
                assert len(seen) == n
            # from a stable start: one failed step per coordinate, no move
            seen.clear()
            assert _descend(s, list(result), k, cands, 200, {}) == (cost, result)
            assert len(seen) == n
        assert moved >= 300, moved


class TestSharedStableVectors:
    def test_same_result_as_descents_run_to_their_own_end(self, monkeypatch):
        real = optimize._descend
        hits = 0  # descents that started at or moved onto a known stable vector

        def alone(s, z, k, cands, max_sweeps, stable):
            return real(s, z, k, cands, max_sweeps, {})

        def shared(s, z, k, cands, max_sweeps, stable):
            nonlocal hits
            known = set(stable)
            own_end = real(s, list(z), k, cands, max_sweeps, {})
            cost, result = real(s, z, k, cands, max_sweeps, stable)
            assert (cost, result) == own_end, (s, k, cands)
            hits += tuple(result) in known
            return cost, result

        rng = random.Random(0x57B)
        for _ in range(150):
            n = rng.randint(2, 8)
            k = rng.randint(1, n - 1)
            inst = GameInstance(k=k, beliefs=tuple(sorted(rng.randint(0, 6) for _ in range(n))))
            starts = [[rng.randint(0, 6) for _ in range(n)] for _ in range(rng.randrange(3))]
            monkeypatch.setattr(optimize, "_descend", alone)
            expected = optimize_social_cost(inst, starts)
            monkeypatch.setattr(optimize, "_descend", shared)
            assert optimize_social_cost(inst, starts) == expected, (inst, starts)
        assert hits >= 300, hits


def forbidden(name):
    def call(*args):
        raise AssertionError(f"{name} called")

    return call


class TestStoredCosts:
    def test_start_cost_read_from_the_rankings(self):
        # with no sweep the descent returns its start cost
        rng = random.Random(0x5C0)
        for _ in range(500):
            s, z, k, cands = many_tie_descent_case(rng)
            assert _descend(s, list(z), k, cands, 0, {}) == (_accel.social_cost(s, z, k), z)

    def test_optimizer_makes_no_social_cost_pass(self, monkeypatch):
        monkeypatch.setattr(_accel, "social_cost", forbidden("_accel.social_cost"))
        rng = random.Random(0x5C1)
        for _ in range(40):
            n = rng.randint(2, 8)
            inst = GameInstance(
                k=rng.randint(1, n - 1), beliefs=tuple(sorted(rng.randint(0, 6) for _ in range(n)))
            )
            z, cost = optimize_social_cost(inst)  # the exact re-check still runs
            assert social_cost(inst, z) == cost

    def test_start_on_a_stored_stable_vector_does_no_work(self, monkeypatch):
        rng = random.Random(0x5C2)
        for _ in range(200):
            s, z, k, cands = many_tie_descent_case(rng)
            stable = {}
            cost, result = _descend(s, list(z), k, cands, 200, stable)
            assert stable == {tuple(result): cost}
            assert cost == _accel.social_cost(s, result, k)
            with monkeypatch.context() as patch:
                patch.setattr(_accel, "ranked", forbidden("_accel.ranked"))
                patch.setattr(_accel, "coordinate_best", forbidden("_accel.coordinate_best"))
                assert _descend(s, list(result), k, cands, 200, stable) == (cost, result)
