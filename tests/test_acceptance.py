"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each test prints a single pass/fail line.  Run with ``pytest -s
tests/test_acceptance.py`` to see the lines; any failure also fails pytest.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction as F

import pytest

from kcof import (
    GameInstance,
    best_response_dynamics,
    brute_force_pne_oracle,
    build_segment_graph,
    check_mixed,
    check_pure,
    enumerate_pne,
    exists_pne,
    is_pure_nash,
    opt_lower_bound_1,
    opt_lower_bound_k,
    optimize_social_cost,
    pne_player_cost_cap,
    pne_player_cost_cap_1,
    social_cost,
    worst_pne,
)
from kcof.catalog import PNE, catalog, catalog_entry
from tests.conftest import random_instance

RANDOM_SUITE_SEED = 0x5EED
RANDOM_SUITE_SIZE = 200


def _criterion(num: int, description: str, checks: list[tuple[str, bool]]) -> None:
    ok = all(flag for _, flag in checks)
    print(f"\nacceptance criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    failed = [name for name, flag in checks if not flag]
    assert not failed, f"criterion {num} failed: {failed}"


def _near_opt_starts(entry):
    return [r.opinions for r in entry.references if r.opinions is not None]


@pytest.fixture(scope="module")
def random_suite():
    """200 random k=1 instances with their full equilibrium sets (both routes)."""
    rng = random.Random(RANDOM_SUITE_SEED)
    t0 = time.perf_counter()
    suite = []
    for _ in range(RANDOM_SUITE_SIZE):
        inst = random_instance(rng, 3, 10)
        oracle = set(brute_force_pne_oracle(inst))
        solved = {z for z, _ in enumerate_pne(build_segment_graph(inst), 1 << inst.n)}
        suite.append((inst, oracle, solved))
    return suite, time.perf_counter() - t0


def test_criterion_01_intro_example():
    inst = GameInstance(k=1, beliefs=(-10, 2, 5))
    z = (F(-10), F(-5), F(4))
    zp = (F(-7, 2), F(3), F(4))
    checks = [
        ("SC(z)=23", social_cost(inst, z) == 23),
        ("costs(z)=(5,9,9)", list(check_pure(inst, z).player_costs) == [5, 9, 9]),
        ("SC(z')=17/2", social_cost(inst, zp) == F(17, 2)),
        (
            "costs(z')=(13/2,1,1)",
            list(check_pure(inst, zp).player_costs) == [F(13, 2), 1, 1],
        ),
        ("z' is a PNE", is_pure_nash(inst, zp).is_pne),
        ("z is not a PNE", not is_pure_nash(inst, z).is_pne),
    ]
    _criterion(1, "three-player example reproduces exactly", checks)


def test_criterion_02_segment_algorithm_example():
    inst = GameInstance(k=1, beliefs=(0, 9, 12, 21))
    graph = build_segment_graph(inst)
    found = enumerate_pne(graph, 10)
    vectors = {z for z, _ in found}
    checks = [
        (
            "exactly the three legit segments",
            {s.triple for s in graph.segments} == {(0, 0, 1), (2, 2, 3), (0, 1, 3)},
        ),
        ("exactly two equilibria", len(found) == 2),
        ("the two expected vectors", vectors == {(3, 6, 15, 18), (5, 10, 11, 16)}),
        ("both verify", all(is_pure_nash(inst, z).is_pne for z in vectors)),
    ]
    _criterion(2, "four-player segment-graph example reproduces", checks)


def test_criterion_03_nonexistence_gadget():
    eps = F(1, 8)
    checks = []
    inst1 = GameInstance(k=1, beliefs=(0, 1 - eps, 2))
    checks.append(("k=1: no source-sink path", not exists_pne(build_segment_graph(inst1))))
    for k in (2, 3):
        inst = GameInstance(k=k, beliefs=(0,) * k + (1 - eps,) + (2,) * k)
        result = best_response_dynamics(inst, inst.beliefs, max_rounds=10_000)
        checks.append((f"k={k}: dynamics never converge", result.outcome != "converged"))
        try:
            build_segment_graph(inst)
            checks.append((f"k={k}: segment solver rejected", False))
        except ValueError:
            checks.append((f"k={k}: segment solver rejected", True))
    _criterion(3, "no-equilibrium gadget behaves as proved", checks)


def test_criterion_04_star_instances():
    checks = []
    for k in (3, 4, 5):
        entry = catalog_entry("pos_star", k=k)
        inst = entry.instance
        z = (F(1, 3),) * k + (F(2, 3),)
        sc = social_cost(inst, z)
        _, upper = optimize_social_cost(inst, starts=_near_opt_starts(entry))
        checks.append((f"k={k}: construction verifies", is_pure_nash(inst, z).is_pne))
        checks.append((f"k={k}: SC=(k+1)/3", sc == F(k + 1, 3)))
        checks.append((f"k={k}: optimizer <= 1", upper <= 1))
        checks.append((f"k={k}: PoS certificate", sc / upper >= F(k + 1, 3)))
    _criterion(4, "star instances certify PoS >= (k+1)/3", checks)


def test_criterion_05_unique_chain_equilibrium():
    lam = F(1, 10)
    entry = catalog_entry("pos_chain", k=1, lam=lam)
    inst = entry.instance
    found = enumerate_pne(build_segment_graph(inst), 50)
    _, upper = optimize_social_cost(inst, starts=_near_opt_starts(entry))
    expected_sc = F(34, 3) - F(2, 5)
    checks = [
        ("exactly one equilibrium", len(found) == 1),
        ("its social cost is 34/3 - 2/5", found and found[0][1] == expected_sc),
        ("optimizer <= 10 + 6/5", upper <= 10 + F(6, 5)),
        ("PoS certificate", found and found[0][1] / upper >= expected_sc / (10 + F(6, 5))),
    ]
    _criterion(5, "six-player chain has one equilibrium, PoS certified", checks)


def test_criterion_06_sevenths_equilibrium():
    entry = catalog_entry("pos_quad", k=2)
    inst = entry.instance
    z = (F(4, 7), F(6, 7), F(8, 7), F(10, 7))
    _, upper = optimize_social_cost(inst, starts=_near_opt_starts(entry))
    checks = [
        ("vector verifies", is_pure_nash(inst, z).is_pne),
        ("SC = 12/7", social_cost(inst, z) == F(12, 7)),
        ("optimizer <= 3/2", upper <= F(3, 2)),
    ]
    _criterion(6, "k=2 four-player instance reproduces", checks)


def test_criterion_07_chain_poa_bracket():
    checks = []
    for lam, floor in ((F(1, 2), F(12, 5)), (F(1, 100), F(200, 67))):
        entry = catalog_entry("poa_chain", k=1, lam=lam)
        inst = entry.instance
        found = worst_pne(build_segment_graph(inst))
        _, upper = optimize_social_cost(inst, starts=_near_opt_starts(entry))
        checks.append((f"lam={lam}: worst equilibrium costs 8", found and found[1] == 8))
        checks.append((f"lam={lam}: optimizer <= (8+4lam)/3", upper <= (8 + 4 * lam) / 3))
        checks.append((f"lam={lam}: PoA >= {floor}", found[1] / upper >= floor))
    _criterion(7, "chain instance certifies PoA lower bounds", checks)


def test_criterion_08_mixed_chain():
    lam = F(1, 2)
    entry = catalog_entry("mpoa_chain", k=1, lam=lam)
    inst = entry.instance
    profile = next(r.mixed for r in entry.references if r.mixed is not None)
    checked = check_mixed(inst, profile)
    esc = checked.expected_social_cost
    _, upper = optimize_social_cost(inst, starts=_near_opt_starts(entry))
    checks = [
        ("profile is a mixed equilibrium", checked.verdict.is_mne),
        ("E[SC] = 15 = 16 - 2lam", esc == 15 == 16 - 2 * lam),
        ("mixed ratio certificate", esc / upper >= (16 - 2 * lam) * 3 / (8 + 4 * lam)),
    ]
    _criterion(8, "mixed chain construction verifies with E[SC]=15", checks)


def test_criterion_09_blocks_families():
    lam = F(1, 2)
    checks = []
    for k in (2, 3, 5):
        pure = catalog_entry("poa_blocks", k=k, lam=lam)
        mixed = catalog_entry("mpoa_blocks", k=k, lam=lam)
        inst = pure.instance
        z = pure.references[0].opinions
        profile = next(r.mixed for r in mixed.references if r.mixed is not None)
        _, upper = optimize_social_cost(inst, starts=_near_opt_starts(pure))
        checked = check_mixed(inst, profile)
        near_cap = 8 + 2 * lam if k >= 3 else F(5, 3) * (4 + lam)
        checks.append((f"k={k}: pure verifies", is_pure_nash(inst, z).is_pne))
        checks.append(
            (f"k={k}: pure SC=(8+lam)(k+1)", social_cost(inst, z) == (8 + lam) * (k + 1))
        )
        checks.append((f"k={k}: mixed verifies", checked.verdict.is_mne))
        checks.append(
            (f"k={k}: E[SC]=8k+16-lam", checked.expected_social_cost == 8 * k + 16 - lam)
        )
        checks.append((f"k={k}: optimizer <= near-opt cost", upper <= near_cap))
    _criterion(9, "block families verify for k in {2,3,5}", checks)


def test_criterion_10_oracle_equivalence(random_suite):
    suite, elapsed = random_suite
    mismatches = sum(1 for _, oracle, solved in suite if oracle != solved)
    checks = [
        (f"all {len(suite)} equilibrium sets identical", mismatches == 0),
        (f"runtime {elapsed:.1f}s < 60s", elapsed < 60),
    ]
    _criterion(10, "oracle and segment solver agree on 200 random instances", checks)


def test_criterion_11_bound_invariants(random_suite):
    suite, _ = random_suite
    ok_lower = ok_caps = ok_ratio = True
    for inst, _, solved in suite:
        if not solved:
            continue
        lower_k = opt_lower_bound_k(inst)
        lower_1 = opt_lower_bound_1(inst)
        _, upper = optimize_social_cost(inst)
        for z in solved:
            checked = check_pure(inst, z)
            sc = checked.social_cost
            ok_lower &= sc >= lower_k and sc >= lower_1
            ok_caps &= all(
                cost <= pne_player_cost_cap(inst, i) and cost <= pne_player_cost_cap_1(inst, i)
                for i, cost in enumerate(checked.player_costs)
            )
            if upper > 0:
                ok_ratio &= sc / upper <= 3
            else:
                ok_ratio &= sc == 0

    catalog_checked = 0
    for k in (1, 2, 3, 5):
        for entry in catalog(k):
            pne_refs = [r for r in entry.references if r.verdict == PNE]
            if not pne_refs:
                continue
            inst = entry.instance
            _, upper = optimize_social_cost(inst, starts=_near_opt_starts(entry))
            lower_k = opt_lower_bound_k(inst)
            for ref in pne_refs:
                checked = check_pure(inst, ref.opinions)
                sc = checked.social_cost
                ok_lower &= sc >= lower_k
                ok_caps &= all(
                    cost <= pne_player_cost_cap(inst, i)
                    for i, cost in enumerate(checked.player_costs)
                )
                if inst.k == 1:
                    ok_lower &= sc >= opt_lower_bound_1(inst)
                    ok_caps &= all(
                        cost <= pne_player_cost_cap_1(inst, i)
                        for i, cost in enumerate(checked.player_costs)
                    )
                    ok_ratio &= upper == 0 or sc / upper <= 3
                ok_ratio &= upper == 0 or sc / upper <= 4 * (inst.k + 1)
                catalog_checked += 1

    checks = [
        ("social costs respect both lower bounds", ok_lower),
        ("player costs respect both caps", ok_caps),
        ("equilibrium/upper ratios within 4(k+1) and 3 for k=1", ok_ratio),
        (f"catalog equilibria covered ({catalog_checked})", catalog_checked >= 6),
    ]
    _criterion(11, "bound invariants hold on 200 random + catalog instances", checks)


def test_criterion_12_degenerate_mixed_consistency():
    rng = random.Random(0xD06)
    agree = True
    for _ in range(100):
        n = rng.randint(3, 8)
        k = rng.randint(1, min(3, n - 1))
        inst = GameInstance(k=k, beliefs=tuple(sorted(rng.randint(0, 40) for _ in range(n))))
        z = tuple(F(rng.randint(-10, 50)) for _ in range(n))
        wrapped = tuple(((v, F(1)),) for v in z)
        checked = check_mixed(inst, wrapped)
        agree &= checked.verdict.is_mne == is_pure_nash(inst, z).is_pne
        agree &= checked.expected_social_cost == social_cost(inst, z)
    checks = [("100 singleton wrappings agree exactly", agree)]
    _criterion(12, "degenerate mixed profiles match deterministic verdicts", checks)
