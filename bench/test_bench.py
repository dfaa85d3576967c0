"""Tests of the benchmark's own reference and checks (no kcof needed).

    python3 -m pytest bench -q

The checks are fed hand-made kcof reports: a right one must pass, and a
perturbed vector, a wrong cost or a wrong verdict must be caught.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction as F

import pytest

import reference as ref
import workloads as wl
from workloads import WrongAnswer

INTRO = (F(-10), F(2), F(5))
QUAD = tuple(map(F, wl.QUAD))


def _r(v) -> str:
    return str(F(v))


# ------------------------------------------------------------ reference


def test_intro_triple_costs_and_equilibrium():
    observed = (F(-10), F(-5), F(4))
    assert ref.social_cost(INTRO, observed, 1) == 23
    assert not ref.is_equilibrium(INTRO, observed, 1)
    assert ref.k1_equilibria(INTRO) == [(F(-7, 2), F(3), F(4))]
    assert ref.social_cost(INTRO, (F(-7, 2), F(3), F(4)), 1) == F(17, 2)


def test_two_equilibria_of_0_9_12_21():
    eqs = ref.k1_equilibria(QUAD)
    assert eqs == [tuple(map(F, (3, 6, 15, 18))), tuple(map(F, (5, 10, 11, 16)))]
    assert [ref.social_cost(QUAD, z, 1) for z in eqs] == [12, 12]


def test_midpoint_test_rejects_a_moved_opinion():
    z = list(ref.k1_equilibria(QUAD)[0])
    z[1] += F(1, 3)
    assert not ref.is_equilibrium(QUAD, z, 1)


def test_tie_rule_prefers_own_opinion_then_index():
    s = (F(0), F(1), F(2))
    # players 0 and 2 sit at distance 1 from s_1; z_1 = 2 makes player 2 closer
    assert ref.neighbours(s, (F(0), F(2), F(2)), 1, 1) == [2]
    assert ref.neighbours(s, (F(0), F(1), F(2)), 1, 1) == [0]


def test_each_pointer_pattern_solution_solves_its_system():
    rng = random.Random(7)
    s = tuple(sorted(F(rng.randint(0, 40)) for _ in range(7)))
    for mask in range(1 << 5):
        right = (True, *[bool(mask >> t & 1) for t in range(5)], False)
        z = ref.solve_pointer_pattern(s, right)
        for i, r in enumerate(right):
            assert z[i] == (s[i] + z[i + 1 if r else i - 1]) / 2


@pytest.mark.parametrize(
    "block, count",
    [(wl.PAIR, 1), (wl.TRIPLE, 1), (wl.QUAD, 2), (wl.QUAD_B, 2), (wl.FIVE, 2), (wl.FIVE_B, 2)],
)
def test_planting_blocks_have_their_stated_equilibrium_counts(block, count):
    assert len(ref.k1_equilibria(block)) == count


def test_planted_instance_equilibria_are_the_product_of_its_blocks():
    blocks = [b for (b,) in wl._place(random.Random(3), [(wl.QUAD,), (wl.FIVE,), (wl.PAIR,)])]
    s = tuple(v for b in blocks for v in b)
    eqs = ref.k1_equilibria(s)
    expect = wl._planted_expectation(blocks)()
    costs = [ref.social_cost(s, z, 1) for z in eqs]
    assert len(eqs) == expect["count"] == 4
    assert (min(costs), max(costs)) == (expect["best"], expect["worst"])


def test_lower_bounds_by_hand():
    s = (F(0), F(1), F(3))
    assert ref.window_bound(s, 1) == 1  # widths 1, 1, 2 over 2(k+1) = 4
    assert ref.nearest_belief_bound(s) == F(4, 3)
    assert ref.window_bound(s, 2) == F(3, 2)  # one window of width 3, three times, over 6


def test_mixed_chain_expected_cost_is_16_minus_2_lambda():
    lam = F(1, 2)
    half = F(1, 2)
    s = (-10 - lam, -10 - lam, -2 - lam, 2 + lam, 10 + lam, 10 + lam)
    mixed = [
        [(-10 - lam, F(1))],
        [(-10 - lam, F(1))],
        [(-6 - lam, half), (-6 + 3 * lam, half)],
        [(6 + lam, half), (6 - 3 * lam, half)],
        [(10 + lam, F(1))],
        [(10 + lam, F(1))],
    ]
    assert ref.expected_social_cost(s, mixed, 1) == 16 - 2 * lam


@pytest.mark.parametrize("k", [2, 3, 5])
def test_composed_blocks_vector_is_an_equilibrium(k):
    s, z = wl._blocks_for(k, F(1, 3), 20 + 5 * k, random.Random(k))
    assert ref.is_equilibrium(s, z, k)


# ------------------------------------------------------------ checks


def _solve_report(s, eqs) -> str:
    costs = [ref.social_cost(s, z, 1) for z in eqs]
    entries = [{"opinions": [_r(v) for v in z], "social_cost": _r(c)} for z, c in zip(eqs, costs)]
    best = entries[costs.index(min(costs))]
    worst = entries[costs.index(max(costs))]
    return json.dumps({"k": 1, "exists_pne": True, "best": best, "worst": worst, "enumerated": entries})


def test_k1_solve_check_accepts_the_truth_and_catches_errors():
    check = wl._k1_solve_check(QUAD, "quad", wl._reference_expectation(QUAD))
    eqs = ref.k1_equilibria(QUAD)
    assert len(check(0, _solve_report(QUAD, eqs)).equilibria) == 2

    moved = [list(z) for z in eqs]
    moved[1][2] += 1
    with pytest.raises(WrongAnswer):
        check(0, _solve_report(QUAD, [tuple(z) for z in moved]))
    doc = json.loads(_solve_report(QUAD, eqs))
    doc["best"]["social_cost"] = "11"
    with pytest.raises(WrongAnswer):
        check(0, json.dumps(doc))
    with pytest.raises(WrongAnswer):  # one of the two equilibria missing
        check(0, _solve_report(QUAD, eqs[:1]))
    none = json.dumps({"k": 1, "exists_pne": False, "enumerated": []})
    assert check(0, none).failed
    assert check(2, "").failed


def test_planted_check_catches_a_wrong_worst_cost():
    blocks = [b for (b,) in wl._place(random.Random(5), [(wl.QUAD,), (wl.PAIR,)])]
    s = tuple(v for b in blocks for v in b)
    check = wl._k1_solve_check(s, "planted", wl._planted_expectation(blocks))
    eqs = ref.k1_equilibria(s)
    assert not check(0, _solve_report(s, eqs)).failed
    with pytest.raises(WrongAnswer):
        check(0, _solve_report(s, eqs[:1]))


def _bounds_report(s, k, worst) -> dict:
    lower = ref.window_bound(s, k)
    doc = {"opt_lower_bound_k": _r(lower)}
    if k == 1:
        doc["opt_lower_bound_1"] = _r(ref.nearest_belief_bound(s))
        lower = max(lower, ref.nearest_belief_bound(s))
    upper = ref.social_cost(s, s, k)
    doc.update(
        opt_lower=_r(lower),
        opt_upper=_r(upper),
        worst_pne_cost=_r(worst),
        ratio_lower=_r(worst / upper),
        ratio_upper=_r(worst / lower),
    )
    return doc


def test_bounds_check_accepts_the_truth_and_catches_errors():
    check = wl._bounds_check({"k": 1, "s": QUAD}, "quad")
    good = _bounds_report(QUAD, 1, F(12))
    assert check(0, json.dumps(good)).equilibria
    for key, value in (("opt_lower", "1"), ("worst_pne_cost", "11"), ("opt_upper", "1000")):
        bad = dict(good, **{key: value})
        with pytest.raises(WrongAnswer):
            check(0, json.dumps(bad))
    assert check(0, json.dumps(dict(good, worst_pne_cost=None))).failed


def _check_report(s, z, k) -> dict:
    costs = [ref.player_cost(s, z, k, i) for i in range(len(s))]
    return {
        "pure": {
            "pne": ref.is_equilibrium(s, z, k),
            "social_cost": _r(sum(costs, F(0))),
            "player_costs": [_r(c) for c in costs],
        }
    }


def test_pure_check_accepts_the_truth_and_catches_errors():
    z = (F(-7, 2), F(3), F(4))
    check = wl._pure_check({"k": 1, "s": INTRO, "z": z}, "intro", F(17, 2), True)
    good = _check_report(INTRO, z, 1)
    assert check(0, json.dumps(good)).equilibria
    with pytest.raises(WrongAnswer):
        check(1, json.dumps(good))  # exit code says "not an equilibrium"
    flipped = json.loads(json.dumps(good))
    flipped["pure"]["pne"] = False
    with pytest.raises(WrongAnswer):
        check(1, json.dumps(flipped))
    costly = json.loads(json.dumps(good))
    costly["pure"]["player_costs"][0] = "4"
    with pytest.raises(WrongAnswer):
        check(0, json.dumps(costly))
    # the observed vector costs 23; a closed form of 17/2 must catch it
    observed = (F(-10), F(-5), F(4))
    check = wl._pure_check({"k": 1, "s": INTRO, "z": observed}, "intro", F(17, 2), None)
    with pytest.raises(WrongAnswer):
        check(1, json.dumps(_check_report(INTRO, observed, 1)))


def test_mixed_check_catches_a_wrong_expected_cost():
    lam = F(1, 2)
    s = (-10 - lam, -10 - lam, -2 - lam, 2 + lam, 10 + lam, 10 + lam)
    half = F(1, 2)
    mixed = [[(v, F(1))] for v in s[:2]] + [
        [(-6 - lam, half), (-6 + 3 * lam, half)],
        [(6 + lam, half), (6 - 3 * lam, half)],
    ] + [[(v, F(1))] for v in s[4:]]
    check = wl._mixed_check({"k": 1, "s": s, "mixed": mixed}, "mpoa", 16 - 2 * lam, False)
    assert not check(0, json.dumps({"mne": True, "expected_social_cost": "15"})).failed
    with pytest.raises(WrongAnswer):
        check(0, json.dumps({"mne": True, "expected_social_cost": "14"}))
    with pytest.raises(WrongAnswer):
        check(1, json.dumps({"mne": False, "expected_social_cost": "15"}))


def test_solve_check_for_k_at_least_2():
    k = 3
    s = (F(0),) * k + (F(1),)
    z = (F(1, 3),) * k + (F(2, 3),)
    check = wl._solve_check({"k": k, "s": s}, "pos_star", True)
    good = {"dynamics_outcome": "converged", "opinions": [_r(v) for v in z], "social_cost": _r(F(4, 3)), "pne": True}
    assert check(0, json.dumps(good)).equilibria
    with pytest.raises(WrongAnswer):
        check(0, json.dumps(dict(good, opinions=[_r(v) for v in (F(0),) * k + (F(2, 3),)])))
    with pytest.raises(WrongAnswer):
        check(0, json.dumps(dict(good, social_cost="1")))
    assert check(0, json.dumps({"dynamics_outcome": "exhausted"})).failed
    unknown = wl._solve_check({"k": k, "s": s}, "random", False)
    assert not unknown(0, json.dumps({"dynamics_outcome": "exhausted"})).failed
