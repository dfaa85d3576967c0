"""Best-response dynamics: the skip over shrinking cycles and the pattern solve.

The references are written here: the round loop without the skip, and a
dense fraction-free elimination for the interval-pattern system.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from fractions import Fraction as F
from math import gcd, lcm

import pytest

import kcof.game as game
from kcof import GameInstance, as_opinions, best_response_dynamics, is_pure_nash
from kcof._accel import ranked, scaled
from kcof.catalog import catalog


def dense_solve(beliefs, pattern):
    """z_i = (lo_i + hi_i) / 2 by fraction-free Gaussian elimination over dense
    int rows at the beliefs' lcm scale, with row swaps, then back-substitution
    over Fractions; None when the system is singular."""
    n = len(beliefs)
    d = lcm(*(b.denominator for b in beliefs))
    rows = []
    for i, ends in enumerate(pattern):
        row = [0] * (n + 1)
        row[i] = 2
        for j in ends:
            if j < 0:
                row[n] += beliefs[i].numerator * (d // beliefs[i].denominator)
            else:
                row[j] -= 1
        rows.append(row)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        h = head[col]
        for row in rows[col + 1 :]:
            f = row[col]
            if f:
                # columns left of col are zero in both rows
                row[col:] = [h * a - f * b for a, b in zip(row[col:], head[col:])]
                g = gcd(*row[col:])
                if g > 1:
                    row[col:] = [a // g for a in row[col:]]
    z = [0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        z[i] = F(row[n] - sum(row[j] * z[j] for j in range(i + 1, n) if row[j]), row[i])
    return tuple(v / d for v in z)


def solved_opinions(inst, solved):
    """The opinions of ``game._solve_pattern``'s (det, y), or None."""
    if solved is None:
        return None
    det, y = solved
    return tuple(F(v, det * inst.scale) for v in y)


def reference_dynamics(inst, z0, max_rounds):
    """The round loop with no skip: every round is run.

    Patterns are solved by the library's solver, which
    :class:`TestSolvePattern` pins to :func:`dense_solve`.
    """
    n, k = inst.n, inst.k
    denom, ints = scaled((*inst.beliefs, *as_opinions(inst, z0)))
    s, z = ints[:n], ints[n:]

    def snapshot():
        return tuple(F(v, denom) for v in z)

    def state_key():
        h = hashlib.blake2b(digest_size=16)
        for v in (denom, *z):
            blob = v.to_bytes((v.bit_length() + 8) // 8 + 1, "big", signed=True)
            h.update(len(blob).to_bytes(4, "big"))
            h.update(blob)
        return h.digest()

    seen = {state_key(): 0}
    tried = set()
    pattern = [(-1, -1)] * n
    for rounds in range(1, max_rounds + 1):
        changed = False
        for i in range(n):
            si, zi = s[i], z[i]
            lo = hi = si
            lo_at = hi_at = -1
            for _, _, j in ranked(z, i, si, zi)[:k]:
                v = z[j]
                if v < lo:
                    lo, lo_at = v, j
                elif v > hi:
                    hi, hi_at = v, j
            pattern[i] = (lo_at, hi_at)
            total = lo + hi
            if total == 2 * zi:
                continue
            changed = True
            if total % 2 == 0:
                z[i] = total // 2
            else:
                s = [2 * v for v in s]
                z = [2 * v for v in z]
                denom *= 2
                z[i] = total
        shift = 0
        while denom % 2 == 0 and all(v % 2 == 0 for v in z) and all(v % 2 == 0 for v in s):
            s = [v // 2 for v in s]
            z = [v // 2 for v in z]
            denom //= 2
            shift += 1
            if shift > 64:
                break
        frozen = tuple(pattern)
        if not changed:
            candidate = snapshot()
        elif frozen not in tried:
            tried.add(frozen)
            candidate = solved_opinions(inst, game._solve_pattern(inst, frozen))
        else:
            candidate = None
        if candidate is not None and is_pure_nash(inst, candidate).is_pne:
            return game.DynamicsResult("converged", candidate, rounds)
        key = state_key()
        if key in seen:
            return game.DynamicsResult("cycle", snapshot(), rounds, period=rounds - seen[key])
        seen[key] = rounds
    return game.DynamicsResult("exhausted", snapshot(), max_rounds)


def gadget(k):
    """The no-equilibrium gadget: k beliefs at 0, one at 7/8, k at 2."""
    return GameInstance(k=k, beliefs=(0,) * k + (F(7, 8),) + (2,) * k)


def dynamics_case(rng):
    """(instance, start, max_rounds): n 2-10, every k, many ties, random starts."""
    n = rng.randint(2, 10)
    k = rng.randint(1, n - 1)
    if rng.random() < 0.4:
        pool = [rng.randint(-6, 6) for _ in range(rng.randint(1, 3))]
        beliefs = sorted(rng.choice(pool + [rng.randint(-20, 20)]) for _ in range(n))
    else:
        beliefs = sorted(rng.randint(-100, 100) for _ in range(n))
    if rng.random() < 0.6:
        start = beliefs
    else:
        start = [F(rng.randint(-200, 200), rng.choice((1, 2, 3))) for _ in range(n)]
    return GameInstance(k, beliefs), start, rng.choice((3, 10, 57, 200, 1000))


@pytest.fixture
def certified(monkeypatch):
    """Counts the periods of the certificates that held."""
    periods = Counter()
    original = game._certify

    def spy(inst, ends, patterns):
        ok = original(inst, ends, patterns)
        periods[len(patterns)] += ok
        return ok

    monkeypatch.setattr(game, "_certify", spy)
    return periods


class TestSkipShrinkingCycles:
    def test_same_result_as_running_every_round(self, certified):
        rng = random.Random(0x5C1)
        seen = Counter()
        for _ in range(2000):
            inst, start, max_rounds = dynamics_case(rng)
            before = sum(certified.values())
            got = best_response_dynamics(inst, start, max_rounds)
            assert got == reference_dynamics(inst, start, max_rounds), (inst, start, max_rounds)
            seen["repeated beliefs"] += len(set(inst.beliefs)) < inst.n
            seen["random start"] += tuple(start) != inst.beliefs
            seen["skipped"] += sum(certified.values()) > before
        assert seen["repeated beliefs"] >= 600 and seen["random start"] >= 600, seen
        assert seen["skipped"] >= 50, seen
        assert all(certified[p] for p in (2, 3, 4)), certified

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_gadgets_are_skipped_to_the_last_round(self, k, certified):
        inst = gadget(k)
        got = best_response_dynamics(inst, inst.beliefs, 1000)
        assert got.outcome == "exhausted" and got.rounds == 1000
        assert sum(certified.values()) == 1

    def test_certifies_as_many_runs_as_testing_every_round(self, certified):
        # testing every testable round of each streak certified 46 of these
        # runs; the log-spaced tests may certify later in a streak, not less
        rng = random.Random(0x5C1)
        for _ in range(500):
            inst, start, _ = dynamics_case(rng)
            best_response_dynamics(inst, start, 1000)
        assert sum(certified.values()) >= 46, certified

    def test_k8_gadget_ranks_at_most_20_n_times(self, monkeypatch):
        inst = gadget(8)
        calls = Counter()

        def spy(*args):
            calls["ranked"] += 1
            return ranked(*args)

        monkeypatch.setattr(game, "ranked", spy)
        got = best_response_dynamics(inst, inst.beliefs, 1000)
        assert calls["ranked"] <= 20 * inst.n, calls
        assert got == reference_dynamics(inst, inst.beliefs, 1000)

    def test_a_long_skip_agrees_with_running_its_last_rounds(self):
        inst = gadget(8)
        got = best_response_dynamics(inst, inst.beliefs, 100_000)
        assert got.outcome == "exhausted" and got.rounds == 100_000
        before = best_response_dynamics(inst, inst.beliefs, 99_997).opinions
        assert got.opinions == best_response_dynamics(inst, before, 3).opinions

    def test_rounds_above_the_cap_are_refused(self):
        # a skip builds the state after all max_rounds rounds, whose
        # denominators grow by 2 bits a round on this gadget
        inst = gadget(8)
        got = best_response_dynamics(inst, inst.beliefs, game.MAX_ROUNDS)
        assert got.outcome == "exhausted" and got.rounds == game.MAX_ROUNDS == 1_000_000
        for rounds in (game.MAX_ROUNDS + 1, 0):
            with pytest.raises(ValueError, match=f"1 to {game.MAX_ROUNDS}, the dynamics cap"):
                best_response_dynamics(inst, inst.beliefs, rounds)


def at(*z):
    """(s_0, z) with player 0's belief at 0 and the opinions z."""
    return 0, list(z)


class TestAgree:
    """One update between two states, k = 1, player 0 with belief 0: each
    refusal differs from the accepted case in one check only."""

    def test_accepts_a_segment_that_keeps_every_outcome(self):
        assert game._agree(1, at(-10, 1, 5), at(-10, 2, 5), 0, (-1, 1))

    def test_refuses_an_absolute_value_argument_zero_at_one_end_only(self):
        # z_1 - s_0 is 0 at the first end and + at the second: z_1 owns the
        # high end only at the second, though ranking and owners agree there
        assert not game._agree(1, at(-10, 0, 5), at(-10, 2, 5), 0, (-1, -1))

    def test_refuses_a_chosen_pair_whose_order_flips(self):
        # k = 2: z_1 and z_2 tie at the first end, so z_1 owns the high end
        # there and z_2 at the second; rankings and all other signs agree
        assert not game._agree(2, at(-10, 1, 1), at(-10, 1, 2), 0, (-1, 1))
        assert game._agree(2, at(-10, 1, 1), at(-10, 1, 1), 0, (-1, 1))

    def test_refuses_a_ranking_that_differs(self):
        # z_1 and z_2 swap places on the same side of s_0; z_2 is never chosen
        assert not game._agree(1, at(-10, 1, 3), at(-10, 3, 1), 0, (-1, 1))

    def test_refuses_owners_other_than_the_pattern(self):
        assert not game._agree(1, at(-10, 1, 5), at(-10, 2, 5), 0, (-1, -1))


def lowest_terms_opinions(inst, pattern):
    """The opinions of ``game._solve_pattern``, checking det > 0 and lowest terms."""
    solved = game._solve_pattern(inst, pattern)
    if solved is not None:
        det, y = solved
        assert det > 0 and gcd(det, *y) == 1, (inst.beliefs, pattern, solved)
    return solved_opinions(inst, solved)


class TestSolvePattern:
    def test_matches_dense_fraction_elimination(self):
        rng = random.Random(0xBA2)
        outcomes = Counter()
        for _ in range(3000):
            n = rng.randint(2, 9)
            beliefs = sorted(F(rng.randint(-30, 30), rng.choice((1, 2, 3, 7))) for _ in range(n))
            inst = GameInstance(k=1, beliefs=beliefs)
            pattern = [
                tuple(rng.choice([-1, *(j for j in range(n) if j != i)]) for _ in range(2))
                for i in range(n)
            ]
            solved = game._solve_pattern(inst, pattern)
            assert solved is None or solved[0] > 0, (inst.beliefs, pattern)
            got = solved_opinions(inst, solved)
            assert got == dense_solve(inst.beliefs, pattern), (inst.beliefs, pattern)
            outcomes["singular" if got is None else "solved"] += 1
        assert outcomes["singular"] >= 300 and outcomes["solved"] >= 300, outcomes

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_every_catalog_pattern_matches_dense_elimination(self, k, monkeypatch):
        met = []
        original = game._solve_pattern

        def spy(inst, pattern):
            met.append((inst, tuple(pattern)))
            return original(inst, pattern)

        monkeypatch.setattr(game, "_solve_pattern", spy)
        names = {"poa_blocks", "pos_star", "pos_quad", "no_pne_gadget"}
        for lam in (F(1, 3), F(1, 2)):
            for entry in catalog(k, lam=lam):
                if entry.name in names:
                    inst = entry.instance
                    best_response_dynamics(inst, inst.beliefs, 1000)
        monkeypatch.undo()
        assert len(met) >= 12, len(met)
        for inst, pattern in met:
            got = lowest_terms_opinions(inst, pattern)
            assert got == dense_solve(inst.beliefs, pattern), (inst.beliefs, pattern)

    def test_banded_patterns_match_dense_elimination(self):
        # the dynamics' shape: each end is s_i or a player within k of i
        rng = random.Random(0xBA4D)
        outcomes = Counter()
        for _ in range(2000):
            n, k = rng.randint(10, 40), rng.randint(2, 8)
            beliefs = sorted(F(rng.randint(-999, 999), rng.choice((1, 2, 4, 8))) for _ in range(n))
            inst = GameInstance(k=k, beliefs=beliefs)
            near = [
                [-1, *(j for j in range(max(0, i - k), min(n, i + k + 1)) if j != i)]
                for i in range(n)
            ]
            pattern = [(rng.choice(near[i]), rng.choice(near[i])) for i in range(n)]
            got = lowest_terms_opinions(inst, pattern)
            assert got == dense_solve(inst.beliefs, pattern), (inst.beliefs, pattern)
            outcomes["singular" if got is None else "solved"] += 1
        assert outcomes["singular"] >= 200 and outcomes["solved"] >= 1000, outcomes


class TestRatio:
    @pytest.mark.parametrize(
        "new, ratio",
        [
            ((1, (5, 14)), (1, 4)),  # d = (1, 2)
            ((2, (10, 28)), (1, 4)),  # the same state on another scale
            ((1, (5, 15)), None),  # d = (1, 3), not in one ratio
            ((1, (4, 12)), None),  # d = 0
            ((1, (8, 20)), None),  # ratio 1
            ((1, (12, 28)), None),  # ratio 2
            ((1, (2, 8)), None),  # ratio -1/2
        ],
    )
    def test_only_an_exact_ratio_between_0_and_1(self, new, ratio):
        mid, old = (1, (4, 12)), (2, (0, 8))  # d' = (4, 8)
        assert game._ratio(new, mid, old) == ratio

    def test_a_run_without_a_certificate_tests_few_ratios(self, monkeypatch):
        # one block cycles while the others converge at another rate, so
        # the period-2 and period-4 patterns repeat but d is no eigenvector
        inst = GameInstance(k=2, beliefs=(-79, -67, -30, -4, -2, 69, 83, 86))
        calls = Counter()
        original = game._ratio

        def spy(*args):
            calls["ratio"] += 1
            return original(*args)

        monkeypatch.setattr(game, "_ratio", spy)
        got = best_response_dynamics(inst, inst.beliefs, 1000)
        assert got.outcome == "exhausted"
        assert calls["ratio"] <= 6 * (inst.n + 1), calls

    def test_streaks_test_ratios_on_log_spaced_rounds(self, monkeypatch):
        # this run is never certified, and its streaks of repeated patterns
        # break and start again: testing every round of each made 2,201 tests
        inst = GameInstance(k=2, beliefs=(4, 335, F(1889, 4), F(2207, 4), F(1361, 2), F(3697, 4)))
        calls = Counter()
        original = game._ratio

        def spy(*args):
            calls["ratio"] += 1
            return original(*args)

        monkeypatch.setattr(game, "_ratio", spy)
        got = best_response_dynamics(inst, inst.beliefs, 1000)
        assert calls["ratio"] <= 1100, calls
        assert got == reference_dynamics(inst, inst.beliefs, 1000)
