"""Segment solver: closed forms, the DAG, path queries, and the oracle."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcof import (
    GameInstance,
    best_pne,
    brute_force_pne_oracle,
    build_segment,
    build_segment_graph,
    enumerate_pne,
    exists_pne,
    is_pure_nash,
    social_cost,
    to_dot,
    segments,
    worst_pne,
)
from kcof.catalog import catalog_entry
from tests.conftest import random_instance


@pytest.fixture(scope="module")
def quad() -> GameInstance:
    return GameInstance(k=1, beliefs=(0, 9, 12, 21))


@pytest.fixture(scope="module")
def gadget() -> GameInstance:
    return GameInstance(k=1, beliefs=(0, F(7, 8), 2))


class TestBuildSegment:
    def test_closed_forms_left_pair(self, quad):
        seg = build_segment(quad, 0, 0, 1)
        assert seg.opinions == (3, 6)

    def test_closed_forms_right_pair(self, quad):
        seg = build_segment(quad, 2, 2, 3)
        assert seg.opinions == (15, 18)

    def test_full_block(self, quad):
        seg = build_segment(quad, 0, 1, 3)
        assert seg.opinions == (5, 10, 11, 16)

    def test_inconsistent_block_rejected(self, quad):
        # pivot at the first player: player 1's designated neighbor is player 0,
        # but player 2's opinion lands exactly on player 1's belief
        s_int, scale = segments._scale(quad)
        z = segments._segment_opinions(s_int, 0, 0, 3)
        assert [F(v, scale) for v in z] == [3, 6, 9, 15]
        assert not segments._consistency(s_int, z, 0, 0, 3)
        assert build_segment(quad, 0, 0, 3) is None

    def test_boundary_fields(self, quad):
        assert build_segment(quad, 1, 1, 3) is None  # a == 1
        assert build_segment(quad, 0, 0, 2) is None  # c == n-2

    def test_two_player_thirds(self):
        inst = GameInstance(k=1, beliefs=(0, 3))
        seg = build_segment(inst, 0, 0, 1)
        assert seg.opinions == (1, 2)
        assert seg.weight == 2

    def test_parameter_validation(self, quad):
        with pytest.raises(ValueError):
            build_segment(quad, 2, 1, 3)
        with pytest.raises(ValueError):
            build_segment(GameInstance(k=2, beliefs=(0, 1, 2)), 0, 0, 1)


class TestSegmentGraph:
    def test_exactly_three_legit_segments(self, quad):
        graph = build_segment_graph(quad)
        assert {s.triple for s in graph.segments} == {(0, 0, 1), (2, 2, 3), (0, 1, 3)}

    def test_wiring_matches_the_two_decompositions(self, quad):
        graph = build_segment_graph(quad)
        ids = {s.triple: u for u, s in enumerate(graph.segments)}
        assert set(graph.start_ids) == {ids[(0, 0, 1)], ids[(0, 1, 3)]}
        assert set(graph.end_ids) == {ids[(2, 2, 3)], ids[(0, 1, 3)]}
        assert graph.successors[ids[(0, 0, 1)]] == (ids[(2, 2, 3)],)
        assert graph.successors[ids[(0, 1, 3)]] == ()

    def test_edges_advance_topologically(self, rng):
        for _ in range(20):
            graph = build_segment_graph(random_instance(rng))
            for u, outs in enumerate(graph.successors):
                for v in outs:
                    assert graph.segments[v].a == graph.segments[u].c + 1

    def test_dot_output(self, quad):
        dot = to_dot(build_segment_graph(quad))
        assert "digraph" in dot
        assert 'C(0,0,1) w=6' in dot
        assert "source ->" in dot and "-> sink" in dot

    def test_k_must_be_one(self):
        with pytest.raises(ValueError):
            build_segment_graph(GameInstance(k=2, beliefs=(0, 1, 2)))


class TestIntegerSegments:
    def test_graph_build_makes_no_fractions(self, monkeypatch):
        made = []

        class CountingFraction(F):
            def __new__(cls, *args, **kwargs):
                made.append(args)
                return super().__new__(cls, *args, **kwargs)

        inst = GameInstance(k=1, beliefs=(3,) * 30)
        monkeypatch.setattr(segments, "Fraction", CountingFraction)
        graph = build_segment_graph(inst)
        assert len(graph.segments) > 1000
        assert made == []
        # the exact values are made on access, through the counted class
        assert graph.segments[0].weight == 0
        assert made


class TestGraphAgainstSingleSegments:
    """The chain-and-range build against the per-triple ``build_segment``."""

    def test_matches_per_triple_reference_on_many_ties(self):
        rng = random.Random(0x5E6)
        repeated = at_start = at_end = 0
        for _ in range(1000):
            n = rng.randint(2, 9)
            values = [
                F(rng.randint(-6, 6), rng.choice((1, 2, 3, 5, 8)))
                for _ in range(rng.randint(1, 6))
            ]
            inst = GameInstance(k=1, beliefs=tuple(sorted(rng.choice(values) for _ in range(n))))
            s = inst.beliefs
            graph = build_segment_graph(inst)
            every = [
                build_segment(inst, a, b, c)
                for a in range(n)
                for b in range(a, n - 1)
                for c in range(b + 1, n)
            ]
            legit = [seg for seg in every if seg is not None]
            # same segments, opinions and weights, in lexicographic triple order
            assert graph.segments == tuple(legit)
            for u, seg in enumerate(legit):
                # player c keeps pointing at c-1, the next block's first player at its second
                wired = tuple(
                    v
                    for v, nxt in enumerate(legit)
                    if nxt.a == seg.c + 1
                    and abs(seg.opinions[-2] - s[seg.c]) <= abs(nxt.opinions[0] - s[seg.c])
                    and abs(nxt.opinions[1] - s[nxt.a]) <= abs(seg.opinions[-1] - s[nxt.a])
                )
                assert graph.successors[u] == wired
            assert graph.start_ids == tuple(u for u, seg in enumerate(legit) if seg.a == 0)
            assert graph.end_ids == tuple(u for u, seg in enumerate(legit) if seg.c == n - 1)
            repeated += sum(len(set(s[g.a : g.c + 1])) < g.c - g.a + 1 for g in legit)
            at_start += sum(g.a == 0 for g in legit)
            at_end += sum(g.c == n - 1 for g in legit)
        assert repeated >= 5000
        assert at_start >= 2500
        assert at_end >= 2500


def _grown_instances():
    """60 seeded k=1 instances of 10 to 20 players, tie-heavy or in runs of equal beliefs."""
    rng = random.Random(0x6E0)
    instances = [GameInstance(k=1, beliefs=(F(1, 3),) * 20)]
    for i in range(59):
        n = rng.randint(10, 20)
        if i % 2:
            pool = [F(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(rng.randint(1, 4))]
            beliefs = sorted(rng.choice(pool) for _ in range(n))
        else:
            beliefs, v = [], F(0)
            while len(beliefs) < n:
                v += F(rng.randint(1, 6), rng.choice((1, 2, 3)))
                beliefs += [v] * rng.randint(1, 8)
        instances.append(GameInstance(k=1, beliefs=tuple(beliefs[:n])))
    return instances


class TestGraphGrowsLongChains:
    """The build against ``build_segment`` where pivots reach far from themselves."""

    def test_matches_per_triple_reference_on_long_segments(self):
        longer_than_ten = 0
        for inst in _grown_instances():
            n, s = inst.n, inst.beliefs
            graph = build_segment_graph(inst)
            legit = tuple(
                seg
                for a in range(n)
                for b in range(a, n - 1)
                for c in range(b + 1, n)
                if (seg := build_segment(inst, a, b, c)) is not None
            )
            assert graph.segments == legit, s
            # the wiring in integers, at the segments' common scale
            scaled = [int(x * legit[0].scale) for x in s]
            z = [seg.z_int for seg in legit]
            at = [[v for v, seg in enumerate(legit) if seg.a == a] for a in range(n + 1)]
            for u, seg in enumerate(legit):
                # player c keeps pointing at c-1, the next block's first player at its second
                c = seg.c
                wired = tuple(
                    v
                    for v in at[c + 1]
                    if abs(z[u][-2] - scaled[c]) <= abs(z[v][0] - scaled[c])
                    and abs(z[v][1] - scaled[c + 1]) <= abs(z[u][-1] - scaled[c + 1])
                )
                assert graph.successors[u] == wired, (s, seg.triple)
            assert graph.start_ids == tuple(u for u, seg in enumerate(legit) if seg.a == 0)
            assert graph.end_ids == tuple(u for u, seg in enumerate(legit) if seg.c == n - 1)
            longer_than_ten += sum(seg.c - seg.a + 1 > 10 for seg in legit)
        # segments of more than 10 players: no instance of n <= 9 holds one
        assert longer_than_ten >= 500, longer_than_ten


class _CountedReads:
    """A successors table that counts reads per segment id.

    A third read of one id fails at once, so a walk over exponentially many
    paths fails fast instead of running on.
    """

    def __init__(self, rows):
        self.rows = rows
        self.reads = Counter()

    def __getitem__(self, u):
        self.reads[u] += 1
        assert self.reads[u] <= 2, f"successors of segment {u} read {self.reads[u]} times"
        return self.rows[u]

    def __len__(self):
        return len(self.rows)


class TestExistence:
    def test_quad_has_equilibria(self, quad):
        assert exists_pne(build_segment_graph(quad))

    def test_gadget_has_none(self, gadget):
        assert not exists_pne(build_segment_graph(gadget))

    @settings(max_examples=60, deadline=None)
    @given(a=st.integers(-50, 50), gap=st.integers(0, 100))
    def test_two_players_always_solvable(self, a, gap):
        inst = GameInstance(k=1, beliefs=(F(a), F(a + gap)))
        graph = build_segment_graph(inst)
        assert exists_pne(graph)
        found = enumerate_pne(graph, 5)
        assert [z for z, _ in found] == [(F(a) + F(gap, 3), F(a) + F(2 * gap, 3))]


class TestPathQueries:
    def test_quad_best_and_worst(self, quad):
        # both equilibria cost 12; the lexicographically smaller path wins ties
        graph = build_segment_graph(quad)
        bz, bc = best_pne(graph)
        wz, wc = worst_pne(graph)
        assert (bz, bc) == ((3, 6, 15, 18), 12)
        assert (wz, wc) == ((3, 6, 15, 18), 12)

    def test_quad_enumeration(self, quad):
        found = enumerate_pne(build_segment_graph(quad), 10)
        assert {z for z, _ in found} == {(3, 6, 15, 18), (5, 10, 11, 16)}
        for z, cost in found:
            assert is_pure_nash(quad, z).is_pne
            assert social_cost(quad, z) == cost  # path weight equals social cost

    def test_unique_equilibrium_chain(self):
        entry = catalog_entry("pos_chain", k=1, lam=F(1, 10))
        graph = build_segment_graph(entry.instance)
        found = enumerate_pne(graph, 50)
        assert len(found) == 1
        assert found[0][1] == F(34, 3) - F(2, 5)
        assert best_pne(graph) == worst_pne(graph) == found[0]

    def test_gadget_queries_empty(self, gadget):
        graph = build_segment_graph(gadget)
        assert best_pne(graph) is None
        assert worst_pne(graph) is None
        assert enumerate_pne(graph, 10) == []

    def test_enumerate_limit(self, quad):
        graph = build_segment_graph(quad)
        assert len(enumerate_pne(graph, 1)) == 1
        with pytest.raises(ValueError):
            enumerate_pne(graph, 0)

    def test_equal_prefixes_are_expanded_once(self):
        # 30 equal beliefs: 2^28 source-sink paths, one equilibrium
        inst = GameInstance(k=1, beliefs=(3,) * 30)
        graph = build_segment_graph(inst)
        counted = _CountedReads(graph.successors)
        graph = replace(graph, successors=counted)
        assert exists_pne(graph)
        reach_pass = Counter(counted.reads)  # the reachability pass alone
        counted.reads.clear()
        assert enumerate_pne(graph, 8) == [((3,) * 30, 0)]
        expansions = counted.reads - reach_pass
        assert expansions and max(expansions.values()) == 1

    def test_degenerate_duplicates_collapse(self):
        inst = GameInstance(k=1, beliefs=(5, 5, 5, 5))
        found = enumerate_pne(build_segment_graph(inst), 50)
        assert found == [((5, 5, 5, 5), 0)]


class TestReportedVectors:
    """Each reported vector is checked once per graph and made of shared values."""

    # four blocks of two equilibria each, set far apart: 16 equilibria, n = 18
    BLOCKS = ((0, 9, 12, 21), (0, 10, 15, 25), (0, 2, 7, 12, 23), (0, 1, 5, 8, 13))

    def test_each_reported_vector_is_checked_once(self, monkeypatch):
        beliefs = tuple(1000 * i + v for i, block in enumerate(self.BLOCKS) for v in block)
        inst = GameInstance(k=1, beliefs=beliefs)
        check = segments._accel.first_unstable
        calls = []

        def counting(s, z, k):
            calls.append(z)
            return check(s, z, k)

        monkeypatch.setattr(segments._accel, "first_unstable", counting)
        graph = build_segment_graph(inst)
        best, worst = best_pne(graph), worst_pne(graph)
        found = enumerate_pne(graph, 64)
        assert len(found) == 16 and best != worst
        reported = {z for z, _ in found} | {best[0], worst[0]}
        assert len(calls) == len(reported) == 16
        calls.clear()
        assert enumerate_pne(graph, 64) == found
        assert calls == []

        fresh = build_segment_graph(inst)
        assert (best_pne(fresh), worst_pne(fresh), enumerate_pne(fresh, 64)) == (best, worst, found)
        scale = graph.segments[0].scale
        assert {tuple(F(v, scale) for v in z) for z in graph._verified} == reported
        for z, cost in found:
            assert is_pure_nash(inst, z).is_pne and social_cost(inst, z) == cost
        # one Fraction per distinct value across the enumeration
        values = [q for z, _ in found for q in z]
        assert len({id(q) for q in values}) == len(set(values))


class TestOracle:
    def test_quad_matches_enumeration(self, quad):
        assert set(brute_force_pne_oracle(quad)) == {
            (3, 6, 15, 18),
            (5, 10, 11, 16),
        }

    def test_two_player_thirds(self):
        inst = GameInstance(k=1, beliefs=(0, 3))
        assert brute_force_pne_oracle(inst) == [(1, 2)]

    def test_size_guard(self):
        inst = GameInstance(k=1, beliefs=tuple(range(17)))
        with pytest.raises(ValueError):
            brute_force_pne_oracle(inst)

    def test_oracle_equivalence_random(self, rng):
        # 50 random instances here; the acceptance suite runs the full 200
        for _ in range(50):
            inst = random_instance(rng)
            expected = set(brute_force_pne_oracle(inst))
            got = {z for z, _ in enumerate_pne(build_segment_graph(inst), 1 << inst.n)}
            assert got == expected

    def test_best_and_worst_match_the_oracle(self):
        rng = random.Random(0xB57)
        spread = 0  # instances whose best equilibrium costs less than the worst
        for _ in range(300):
            n = rng.randint(4, 12)
            inst = GameInstance(k=1, beliefs=tuple(sorted(F(rng.randint(0, 40)) for _ in range(n))))
            oracle = set(brute_force_pne_oracle(inst))
            graph = build_segment_graph(inst)
            best, worst = best_pne(graph), worst_pne(graph)
            assert (best is None) == (not exists_pne(graph)) == (not oracle), inst.beliefs
            if not oracle:
                assert worst is None
                continue
            costs = [social_cost(inst, z) for z in oracle]
            assert best[0] in oracle and worst[0] in oracle, inst.beliefs
            assert (best[1], worst[1]) == (min(costs), max(costs)), inst.beliefs
            spread += best[1] < worst[1]
        assert spread >= 10, spread

    def test_found_equilibria_are_monotone(self, rng):
        for _ in range(20):
            inst = random_instance(rng)
            for z in brute_force_pne_oracle(inst):
                assert all(z[i] <= z[i + 1] for i in range(inst.n - 1))


def _per_edge_reach(graph):
    """Whether each segment reaches a sink, reading every edge."""
    reach = [False] * len(graph.segments)
    for u in range(len(graph.segments) - 1, -1, -1):
        reach[u] = graph.segments[u].c == graph.n - 1 or any(
            reach[v] for v in graph.successors[u]
        )
    return reach


def _per_edge_completions(graph, maximize):
    """The best weight from each segment to a sink, reading every edge."""
    better = max if maximize else min
    comp = [None] * len(graph.segments)
    for u in range(len(graph.segments) - 1, -1, -1):
        seg = graph.segments[u]
        if seg.c == graph.n - 1:
            comp[u] = seg.w_int
            continue
        child = [comp[v] for v in graph.successors[u] if comp[v] is not None]
        if child:
            comp[u] = seg.w_int + better(child)
    return comp


def _tie_heavy_instances():
    """300 seeded k=1 instances of n <= 11 beliefs drawn from a pool of at most 4."""
    rng = random.Random(0x5C5)
    instances = []
    for _ in range(300):
        n = rng.randint(2, 11)
        pool = [F(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(rng.randint(1, 4))]
        beliefs = tuple(sorted(rng.choice(pool) for _ in range(n)))
        instances.append(GameInstance(k=1, beliefs=beliefs))
    return instances


class TestSharedSuccessors:
    """Completions taken once per (b, c) against a walk over every edge."""

    def test_matches_per_edge_walks_on_tie_heavy_graphs(self):
        shared = dead_ends = 0
        for inst in [GameInstance(k=1, beliefs=(2,) * 14), *_tie_heavy_instances()]:
            graph = build_segment_graph(inst)
            # a segment reaches a sink exactly when it has a completion
            reach = [c is not None for c in segments._completion_bounds(graph, False)]
            assert reach == _per_edge_reach(graph)
            for maximize in (False, True):
                expected = _per_edge_completions(graph, maximize)
                assert segments._completion_bounds(graph, maximize) == expected
            inner = [seg for seg in graph.segments if seg.c < inst.n - 1]
            shared += len(inner) - len({(seg.b, seg.c) for seg in inner})
            dead_ends += reach.count(False)
        assert shared >= 1000 and dead_ends >= 100, (shared, dead_ends)

    def test_existence_matches_the_oracle_on_tie_heavy_instances(self):
        with_pne = 0
        for inst in _tie_heavy_instances():
            expected = bool(brute_force_pne_oracle(inst))
            assert exists_pne(build_segment_graph(inst)) == expected, inst.beliefs
            with_pne += expected
        assert 0 < with_pne < 300, with_pne
