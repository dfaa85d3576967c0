"""Best-response dynamics: the limit-cycle certificate and the pattern solve.

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
from kcof._accel import ranked, scaled, sorted_view
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


def ranked_interval(z, i, si, k):
    """(lo, hi, (lo_at, hi_at)): the span of s_i and the opinions of the first
    k players of the full ranking, and who attains its ends (-1 for s_i; ties
    keep the belief, then the earlier player)."""
    lo = hi = si
    lo_at = hi_at = -1
    for _, _, j in ranked(z, i, si, z[i])[:k]:
        v = z[j]
        if v < lo:
            lo, lo_at = v, j
        elif v > hi:
            hi, hi_at = v, j
    return lo, hi, (lo_at, hi_at)


def two_sided_tie(z, i, si, k):
    """Whether player i's k-th and (k+1)-th nearest opinions tie at a distance
    d > 0 with opinions at both s_i - d and s_i + d."""
    order = ranked(z, i, si, z[i])
    if len(order) <= k or order[k - 1][0] != order[k][0] or not order[k][0]:
        return False
    d = order[k][0]
    return {si - d, si + d} <= {z[j] for _, _, j in order}


def reference_dynamics(inst, z0, max_rounds, ties=None):
    """The round loop with no skip: every round is run.

    Patterns are solved by the library's solver, which
    :class:`TestSolvePattern` pins to :func:`dense_solve`.  With a Counter
    ``ties``, each round with an update that meets a :func:`two_sided_tie`
    adds one to ``ties["two-sided tie"]``.
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
        changed = tied = False
        for i in range(n):
            si, zi = s[i], z[i]
            lo, hi, pattern[i] = ranked_interval(z, i, si, k)
            tied = tied or ties is not None and two_sided_tie(z, i, si, k)
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
        if tied:
            ties["two-sided tie"] += 1
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


def tie_case(rng):
    """A :func:`dynamics_case` started where opinions tie: each start is one
    of a pool of 2-3 values or one of s_c - d and s_c + d for a belief s_c."""
    inst, _, max_rounds = dynamics_case(rng)
    pool = [rng.randint(-20, 20) for _ in range(rng.randint(2, 3))]
    c, d = rng.choice(inst.beliefs), rng.randint(1, 6)
    mirrored = [c - d, c + d]
    start = [rng.choice(pool if rng.random() < 0.5 else mirrored) for _ in range(inst.n)]
    return inst, start, max_rounds


@pytest.fixture
def certified(monkeypatch):
    """Counts the periods of the certificates that held."""
    periods = Counter()
    original = game._limit_cycle

    def spy(inst, starts, patterns, left):
        last = original(inst, starts, patterns, left)
        periods[len(patterns)] += last is not None
        return last

    monkeypatch.setattr(game, "_limit_cycle", spy)
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
            seen["cycle"] += got.outcome == "cycle"
        assert seen["repeated beliefs"] >= 600 and seen["random start"] >= 600, seen
        assert seen["skipped"] >= 50, seen
        assert all(certified[p] for p in (2, 3, 4)), certified
        # a skip must not pass over an exact repeat of a state
        assert seen["cycle"] >= 6, seen
        rng = random.Random(0x5C2)
        for _ in range(1000):
            inst, start, max_rounds = tie_case(rng)
            got = best_response_dynamics(inst, start, max_rounds)
            assert got == reference_dynamics(inst, start, max_rounds, seen), (inst, start, max_rounds)
        assert seen["two-sided tie"] >= 100, seen

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_gadgets_are_skipped_to_the_last_round(self, k, certified):
        inst = gadget(k)
        got = best_response_dynamics(inst, inst.beliefs, 1000)
        assert got.outcome == "exhausted" and got.rounds == 1000
        assert sum(certified.values()) == 1

    def test_certifies_most_runs_that_never_converge(self, certified):
        # 91 of these runs end "exhausted": the certificate holds on 85 of
        # them (the eigenvector ratio test it replaced held on 46)
        rng = random.Random(0x5C1)
        for _ in range(500):
            inst, start, _ = dynamics_case(rng)
            best_response_dynamics(inst, start, 1000)
        assert sum(certified.values()) >= 85, certified

    def test_every_box_holds_the_next_periods(self, monkeypatch):
        # each update's box in a certified period must hold the run's real
        # state before that update for three more periods, with the players
        # of one form moved alike, and the real update must have the
        # pattern's owners
        seen, runs = [0], Counter()
        forced, keeps, original = game._forced, game._keeps, game._limit_cycle

        def forced_spy(s, state, i, owners):
            if len(s) == len(state[1]) == 2 * seen[0] and i < seen[0]:  # a box's lower ends
                seen.append((state[0], list(state[1])))
            return forced(s, state, i, owners)

        def keeps_spy(k, i, si, lo, hi, forms, owners):
            seen.append(list(forms))
            return keeps(k, i, si, lo, hi, forms, owners)

        def spy(inst, starts, patterns, left):
            seen[:] = [inst.n]
            last = original(inst, starts, patterns, left)
            if last is not None:
                runs["certified"] += 1
                n, phases = inst.n, len(patterns) * inst.n
                steps = [seen[j : j + 2] for j in range(len(seen) - 2 * phases, len(seen), 2)]
                m, z, _ = starts[-1]
                y = [F(v, inst.scale * m) for v in z]
                for step, (forms, (bm, ends)) in enumerate(steps * 3):
                    i, pattern = step % n, patterns[step // n % len(patterns)]
                    lo, hi, scale = ends[:n], ends[n:], inst.scale * bm
                    assert all(a <= v * scale <= b for a, v, b in zip(lo, y, hi))
                    moved = {}
                    for j, form in enumerate(forms):
                        gap = 2 * y[j] * scale - lo[j] - hi[j]
                        assert moved.setdefault(form, gap) == gap
                    low, high, owners = ranked_interval(y, i, inst.beliefs[i], inst.k)
                    assert owners == pattern[i]
                    y[i] = (low + high) / 2
            return last

        monkeypatch.setattr(game, "_forced", forced_spy)
        monkeypatch.setattr(game, "_keeps", keeps_spy)
        monkeypatch.setattr(game, "_limit_cycle", spy)
        rng = random.Random(0x5C1)
        for _ in range(400):
            best_response_dynamics(*dynamics_case(rng))
        assert runs["certified"] >= 42, runs

    def test_k8_gadget_ranks_at_most_20_n_times(self, monkeypatch):
        inst = gadget(8)
        calls = Counter()

        def spy(*args):
            calls["sorted_view"] += 1
            return sorted_view(*args)

        monkeypatch.setattr(game, "sorted_view", spy)  # one view per update
        got = best_response_dynamics(inst, inst.beliefs, 1000)
        assert calls["sorted_view"] <= 20 * inst.n, calls
        assert got == reference_dynamics(inst, inst.beliefs, 1000)

    def test_a_two_rate_run_is_certified_and_matches_every_round(self, certified):
        # one block cycles while the others converge at another rate: no
        # round-to-round change is an eigenvector of the period map
        inst = GameInstance(k=2, beliefs=(-79, -67, -30, -4, -2, 69, 83, 86))
        got = best_response_dynamics(inst, inst.beliefs, 1000)
        assert sum(certified.values()) == 1, certified
        assert got == reference_dynamics(inst, inst.beliefs, 1000)

    def test_broken_streaks_try_few_certificates(self, monkeypatch):
        # the patterns repeat with period 14, whose one odd round breaks
        # every streak of period 1: 9 tries of period 1, 6 of period 14
        inst = GameInstance(k=2, beliefs=(4, 335, F(1889, 4), F(2207, 4), F(1361, 2), F(3697, 4)))
        tries = Counter()
        original = game._limit_cycle

        def spy(inst, starts, patterns, left):
            last = original(inst, starts, patterns, left)
            tries[len(patterns), last is not None] += 1
            return last

        monkeypatch.setattr(game, "_limit_cycle", spy)
        got = best_response_dynamics(inst, inst.beliefs, 1000)
        assert sum(tries.values()) <= 20 and tries[14, True] == 1, tries
        assert got == reference_dynamics(inst, inst.beliefs, 1000)

    def test_a_long_skip_agrees_with_running_its_last_rounds(self):
        inst = gadget(8)
        got = best_response_dynamics(inst, inst.beliefs, 100_000)
        assert got.outcome == "exhausted" and got.rounds == 100_000
        before = best_response_dynamics(inst, inst.beliefs, 99_997).opinions
        assert got.opinions == best_response_dynamics(inst, before, 3).opinions

    def test_a_skip_to_the_cap_makes_no_fraction_of_its_state(self, monkeypatch):
        # after 10**6 rounds of the two-rate run the state's ints have about
        # 3.5 million bits; its Fractions are made only when it is read
        inst = GameInstance(k=2, beliefs=(-79, -67, -30, -4, -2, 69, 83, 86))
        bits = [0]
        new = F.__new__

        def counting(cls, *args, **kwargs):
            bits.extend(a.bit_length() for a in args if type(a) is int)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", counting)
        got = best_response_dynamics(inst, inst.beliefs, game.MAX_ROUNDS)
        assert (got.outcome, got.rounds) == ("exhausted", game.MAX_ROUNDS)
        assert max(bits) < 1000 < 10**6 < max(v.bit_length() for v in got.opinions.ints)

    def test_rounds_above_the_cap_are_refused(self):
        # a skip builds the state after all max_rounds rounds, whose
        # denominators grow by 2 bits a round on this gadget
        inst = gadget(8)
        got = best_response_dynamics(inst, inst.beliefs, game.MAX_ROUNDS)
        assert got.outcome == "exhausted" and got.rounds == game.MAX_ROUNDS == 1_000_000
        for rounds in (game.MAX_ROUNDS + 1, 0):
            with pytest.raises(ValueError, match=f"1 to {game.MAX_ROUNDS}, the dynamics cap"):
                best_response_dynamics(inst, inst.beliefs, rounds)


def box(*bounds):
    """(lo, hi) of a box for player 0, belief 0, from (lo_j, hi_j) pairs."""
    return [lo for lo, _ in bounds], [hi for _, hi in bounds]


def free(n):
    """Forms that tie no two players together."""
    return [frozenset({(j, 1)}) for j in range(n)]


class TestKeeps:
    """One update over a box of states, player 0 with belief 0: each refusal
    differs from an accepted case in one comparison only."""

    def test_accepts_a_box_that_keeps_every_outcome(self):
        assert game._keeps(1, 0, 0, *box((-1, 1), (1, 2), (5, 6)), free(3), (-1, 1))

    def test_refuses_an_owner_whose_box_reaches_the_belief(self):
        # z_1 lies above s_0 at some states and at s_0 at others, where the
        # belief, not z_1, would own the high end
        assert not game._keeps(1, 0, 0, *box((-1, 1), (0, 2), (5, 6)), free(3), (-1, 1))
        # k = 2: the belief owns the low end only while z_1 stays at or above it
        assert game._keeps(2, 0, 0, *box((-1, 1), (0, 1), (5, 6)), free(3), (-1, 2))
        assert not game._keeps(2, 0, 0, *box((-1, 1), (-1, 0), (5, 6)), free(3), (-1, 2))

    def test_refuses_a_chosen_pair_whose_order_can_flip(self):
        # k = 2: z_1 owns the high end where it is above z_2, z_2 elsewhere;
        # as one point (one form, one value) the smaller index owns it
        bounds = box((-1, 1), (1, 2), (1, 2), (9, 10))
        assert not game._keeps(2, 0, 0, *bounds, free(4), (-1, 1))
        tied = free(4)
        tied[2] = tied[1]
        assert game._keeps(2, 0, 0, *bounds, tied, (-1, 1))
        assert not game._keeps(2, 0, 0, *bounds, tied, (-1, 2))

    def test_refuses_a_choice_that_can_change(self):
        # z_2 is never chosen, but it can come nearer s_0 than z_1, or as
        # near when the boxes touch, where the tie rule decides
        assert not game._keeps(1, 0, 0, *box((-1, 1), (1, 3), (2, 6)), free(3), (-1, 1))
        assert not game._keeps(1, 0, 0, *box((-1, 1), (1, 3), (-4, -3)), free(3), (-1, 1))

    def test_refuses_owners_other_than_the_pattern(self):
        assert not game._keeps(1, 0, 0, *box((-1, 1), (1, 2), (5, 6)), free(3), (-1, -1))
        # z_2 lies below everything, but it is not chosen
        assert not game._keeps(1, 0, 0, *box((-1, 1), (1, 2), (-9, -8)), free(3), (2, 1))

    def test_refuses_a_tie_at_the_limit_on_opposite_sides(self):
        # z_1 and z_2 are 5 from s_0 at the box's centre, on either side:
        # either can be the nearer, however small the box
        bounds = box((-1, 1), (-6, -4), (4, 6))
        for owners in ((1, -1), (-1, 2)):
            assert not game._keeps(1, 0, 0, *bounds, free(3), owners)
        assert game._keeps(1, 0, 0, *box((-1, 1), (-6, -4), (7, 9)), free(3), (1, -1))


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


def states(*vectors):
    """The run's states (m, z, pattern) at m = 1 and opinions z / inst.scale."""
    return [(1, z, None) for z in vectors]


class TestLimitCycle:
    inst = GameInstance(k=1, beliefs=(0, 1))
    patterns = (((1, -1), (0, -1)),)

    @pytest.fixture(autouse=True)
    def any_box_keeps(self, monkeypatch):
        # every box passes, so each refusal below comes from the recurrence
        monkeypatch.setattr(game, "_keeps", lambda *args: True)

    def test_refuses_a_repeated_root_at_1(self):
        # u_j = j (1, 1): P = (x - 1)**2, q(1) = 0, and I - M is singular
        drift = states((0, 0), (1, 1), (2, 2))
        assert game._limit_cycle(self.inst, drift, self.patterns, 10) is None

    @pytest.mark.parametrize("order", [2, 3])
    def test_refuses_a_root_of_unity(self, order):
        # the states go round: P = x**order - 1, q = (x**order - 1) / (x - 1)
        turn = [(j, 0) for j in range(order)]
        assert game._limit_cycle(self.inst, states(*turn, turn[0]), self.patterns, 10) is None
        assert not game._inside([1] * order) and game._inside([1, 2]) and game._inside([-1, 0, 4])

    def test_the_root_test_is_exact_at_high_degree(self):
        # q = prod (16 x - r) for roots r / 16: degree 31 takes milliseconds
        # (a recursion on unreduced ints doubles its bit sizes per degree)
        def poly(roots):
            q = [1]
            for r in roots:
                q = [16 * b - r * a for a, b in zip([*q, 0], [0, *q])]
            return q

        inside = list(range(-15, 16))
        assert game._inside(poly(inside))
        for bad in (16, -16, 17):
            assert not game._inside(poly([*inside[1:], bad]))

    def test_refuses_a_run_at_its_fixed_point(self):
        # the last two states are equal: P = x - 1, and q = 1 is a power of x
        still = states((0, 0), (1, 1), (1, 1))
        assert game._limit_cycle(self.inst, still, self.patterns, 10) is None

    def test_a_variable_whose_players_a_period_parts_is_split(self, monkeypatch):
        # u_j = (1, 2, 2) / 2**j: players 1 and 2 share a variable at u, but
        # 1 moves to the mean of s_1 and z_2 while 2 moves to s_2, so they
        # must have variables of their own when the period is checked
        inst = GameInstance(k=1, beliefs=(0, 1, 2))
        halving = states((4, 8, 8), (2, 4, 4), (1, 2, 2))
        seen = []

        def keeps(k, i, si, lo, hi, forms, owners):
            seen.append(forms[:])
            return True

        monkeypatch.setattr(game, "_keeps", keeps)
        assert game._limit_cycle(inst, halving, (((-1, -1), (-1, 2), (-1, -1)),), 10) is not None
        first = seen[-3]  # at the last pass's first update
        assert first[1] != first[2] and first[1] and first[2], seen

    def test_the_recurrence_is_the_shortest_of_the_last_states(self):
        # u_0 is off the line that u_1, u_2 and u_3 keep, with ratio 1/2
        line = [(5, 9), (0, 0), (4, 8), (6, 12)]
        assert game._recurrence([[*u, 1] for u in line]) == [1, -3, 2]
        assert game._recurrence([[*u, 1] for u in line[:3]]) is None
