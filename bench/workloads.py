"""The benchmark's workloads: inputs made from a seed, kcof queries, checks.

Each workload's ``build`` writes its instance files, renders the catalog with
``kcof catalog --out`` and returns the queries of one pass.  A query is one
``kcof`` command line plus a check that judges the exit code and the JSON
the command printed.  Checks compare against :mod:`reference` and the
paper's closed forms, never against stored program output.  A check raises
:class:`WrongAnswer` for a wrong answer and returns ``failed=True`` for an
answer the program did not give (exit code 2, or no equilibrium where one is
known to exist).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from pathlib import Path
from typing import Callable, Optional

import reference as ref

ENUM_LIMIT = 64

# k=1 blocks with known equilibria: the paper's intro triple, the catalog's
# two_pne_quad and three more found by exhaustive search.  The benchmark's
# tests recount them with the reference.
PAIR = (0, 1)
TRIPLE = (-10, 2, 5)
QUAD = (0, 9, 12, 21)
QUAD_B = (0, 10, 15, 25)
FIVE = (0, 2, 7, 12, 23)
FIVE_B = (0, 1, 5, 8, 13)
TWINS = (QUAD, QUAD_B, FIVE, FIVE_B, QUAD)  # two equilibria each
BLOCK_PITCH = 1000  # blocks sit this far apart; each spans at most 3 * 25


class WrongAnswer(Exception):
    """The program answered, and the answer is wrong."""


@dataclass(frozen=True)
class Verdict:
    failed: bool = False
    equilibria: frozenset = frozenset()


@dataclass
class Query:
    argv: list[str]
    check: Callable[[int, str], Verdict]


@dataclass
class Inputs:
    queries: list[Query]
    counts: Counter = field(default_factory=Counter)


# ---------------------------------------------------------------- helpers


def _write(path: Path, k: int, beliefs, opinions=None, mixed=None) -> str:
    doc: dict = {"k": k, "beliefs": [str(b) for b in beliefs]}
    if opinions is not None:
        doc["opinions"] = [str(v) for v in opinions]
    if mixed is not None:
        doc["mixed"] = [[[str(v), str(p)] for v, p in sup] for sup in mixed]
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return str(path)


def _read(path: Path) -> dict:
    raw = json.loads(path.read_text(encoding="utf-8"))
    doc = {"k": raw["k"], "s": tuple(Fraction(v) for v in raw["beliefs"])}
    if raw.get("opinions") is not None:
        doc["z"] = tuple(Fraction(v) for v in raw["opinions"])
    if raw.get("mixed") is not None:
        doc["mixed"] = [[(Fraction(v), Fraction(p)) for v, p in sup] for sup in raw["mixed"]]
    return doc


def _catalog(kcof_main, k: int, lam: Fraction, out: Path) -> Path:
    argv = ["catalog", "--k", str(k), "--lambda", str(lam), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = kcof_main(argv)
    if rc != 0:
        raise WrongAnswer(f"kcof {' '.join(argv)} exited {rc}: its own references mismatch")
    return out


def _json(rc: int, out: str, allowed=(0,)) -> Optional[dict]:
    """Parsed report, or None when the query failed (exit code 2, crash)."""
    if rc not in allowed:
        return None
    return json.loads(out)


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


def _accept(k: int, s, z, cost: Fraction, where: str) -> tuple:
    """Reference-check one reported equilibrium; return its identity."""
    z = tuple(z)
    _expect(len(z) == len(s), f"{where}: {len(z)} opinions for {len(s)} players")
    _expect(ref.is_equilibrium(s, z, k), f"{where}: reported vector fails the midpoint test")
    _expect(ref.social_cost(s, z, k) == cost, f"{where}: reported cost {cost} is not the vector's")
    return (k, tuple(s), z)


def _place(rng: random.Random, blocks):
    """Scale and shift each block by seeded amounts and set the blocks far
    apart, in order.  A block is a tuple of vectors (beliefs first, then
    opinions) that move together, so a block equilibrium stays one."""
    placed = []
    for idx, (beliefs, *rest) in enumerate(blocks):
        scale = Fraction(rng.randint(4, 12), 4)
        base = idx * BLOCK_PITCH + rng.randint(0, 200)

        def move(vec):
            return tuple(base + scale * (Fraction(v) - beliefs[0]) for v in vec)

        placed.append((move(beliefs), *map(move, rest)))
    return placed


# ---------------------------------------------------------------- k1-solve

# 24 at n=20 put the median query inside a cluster of like queries, so that
# query_p50_s neither jumps between sizes nor follows one file's draw from one
# seed to the next
UNIFORM_SIZES = (8, 10, 12, 13, 14, 16, 18) + (20,) * 24 + (25, 30, 40, 50)
UNIFORM_REFERENCE_MAX = 14
TIE_SIZES = (8, 10, 12, 14, 16, 18, 20)
TIE_REFERENCE_MAX = 12
# The last two, of 32 equilibria each, hold equilibria_verified steady: the
# uniform files' share of it follows the draw (ten seeds spread 0.07 on it
# without them).
PLANTED = (
    (QUAD, FIVE, PAIR),
    (QUAD, FIVE, QUAD_B, TRIPLE, PAIR, FIVE_B),
    TWINS + (TRIPLE, PAIR, TRIPLE, PAIR, TRIPLE),
    TWINS + (TRIPLE,) * 6 + (PAIR,) * 4,
    (FIVE, QUAD_B, FIVE_B, QUAD, FIVE, PAIR, TRIPLE, PAIR, TRIPLE, PAIR),
    (QUAD_B, FIVE_B, QUAD, QUAD_B, FIVE, TRIPLE, PAIR, TRIPLE),
)


def _k1_solve_check(s, where: str, known: Callable[[], Optional[dict]]):
    """Check a ``solve --enumerate`` report; ``known`` gives what the
    reference or the planting says (computed only when checking)."""

    def check(rc: int, out: str) -> Verdict:
        d = _json(rc, out)
        if d is None:
            return Verdict(failed=True)
        expect = known()
        found = set()
        if not d["exists_pne"]:
            _expect("best" not in d and not d.get("enumerated"), f"{where}: vectors without a PNE")
            if expect is not None and expect["count"] > 0:
                return Verdict(failed=True)
            return Verdict()
        best = Fraction(d["best"]["social_cost"])
        worst = Fraction(d["worst"]["social_cost"])
        found.add(_accept(1, s, map(Fraction, d["best"]["opinions"]), best, where + " best"))
        found.add(_accept(1, s, map(Fraction, d["worst"]["opinions"]), worst, where + " worst"))
        listed = set()
        for e in d["enumerated"]:
            cost = Fraction(e["social_cost"])
            key = _accept(1, s, map(Fraction, e["opinions"]), cost, where + " enumerated")
            _expect(best <= cost <= worst, f"{where}: enumerated cost {cost} outside [best, worst]")
            _expect(key not in listed, f"{where}: an equilibrium listed twice")
            listed.add(key)
        _expect(0 < len(listed) <= ENUM_LIMIT, f"{where}: {len(listed)} enumerated")
        found |= listed
        if expect is not None:
            _expect(expect["count"] > 0, f"{where}: PNE reported where none exists")
            _expect(best == expect["best"], f"{where}: best {best} != {expect['best']}")
            _expect(worst == expect["worst"], f"{where}: worst {worst} != {expect['worst']}")
            if expect["count"] < ENUM_LIMIT:
                _expect(len(listed) == expect["count"], f"{where}: {len(listed)} enumerated, {expect['count']} exist")
            if "vectors" in expect:
                _expect({key[2] for key in listed} <= expect["vectors"], f"{where}: unknown equilibrium")
        return Verdict(equilibria=frozenset(found))

    return check


def _reference_expectation(s) -> Callable[[], dict]:
    def known() -> dict:
        eqs = ref.k1_equilibria(s)
        costs = [ref.social_cost(s, z, 1) for z in eqs]
        return {
            "count": len(eqs),
            "best": min(costs, default=None),
            "worst": max(costs, default=None),
            "vectors": set(eqs),
        }

    return known


def _planted_expectation(blocks) -> Callable[[], dict]:
    def known() -> dict:
        per_block = [[ref.social_cost(b, z, 1) for z in ref.k1_equilibria(b)] for b in blocks]
        return {
            "count": prod(len(c) for c in per_block),
            "best": sum((min(c) for c in per_block), Fraction(0)),
            "worst": sum((max(c) for c in per_block), Fraction(0)),
        }

    return known


def build_k1_solve(rng: random.Random, work: Path, kcof_main) -> Inputs:
    inputs = Inputs([])

    def add(name: str, s, kind: str, known) -> None:
        path = _write(work / f"{name}.json", 1, s)
        argv = ["solve", "--json", "--enumerate", str(ENUM_LIMIT), path]
        inputs.queries.append(Query(argv, _k1_solve_check(s, name, known)))
        inputs.counts[kind] += 1

    for idx, n in enumerate(UNIFORM_SIZES):
        s = tuple(sorted(Fraction(rng.randint(0, 40000), 4) for _ in range(n)))
        known = _reference_expectation(s) if n <= UNIFORM_REFERENCE_MAX else (lambda: None)
        add(f"uniform-{idx}-{n}", s, "uniform", known)
    for idx, spec in enumerate(PLANTED):
        order = list(spec)
        rng.shuffle(order)
        blocks = [b for (b,) in _place(rng, [(b,) for b in order])]
        s = tuple(v for b in blocks for v in b)
        add(f"planted-{idx}-{len(s)}", s, "planted", _planted_expectation(blocks))
    for n in TIE_SIZES:
        values = sorted(rng.sample(range(1000), 3))
        mult = [n // 3] * 3
        for j in rng.sample(range(3), n % 3):
            mult[j] += 1
        s = tuple(Fraction(v) for v, m in zip(values, mult) for _ in range(m))
        known = _reference_expectation(s) if n <= TIE_REFERENCE_MAX else (lambda: None)
        add(f"ties-{n}", s, "tie-heavy", known)
    return inputs


# ---------------------------------------------------------------- poa-bracket

POA_CATALOG = (
    (1, ("poa_chain", "pos_chain", "two_pne_quad", "intro_triple")),
    (2, ("poa_blocks__equilibrium", "pos_quad__equilibrium")),
    (3, ("poa_blocks__equilibrium", "pos_star__equilibrium")),
)
# Random files per k, all at n=4: one bounds query takes 0.12-0.23 s at
# n=4, 0.5-0.8 s at n=5 and about 1.5 s at n=6.  At n=4 the k=1 queries take
# 0.20-0.22 s and the k=2, 3 ones 0.12-0.23 s; with six of each k the median
# query fell on the step between the two groups and eight seeds spread 0.11
# on query_p50_s.  The sixteen k=1 files hold ranks 10-25 of 30, so the median
# query sits among them.
POA_RANDOM_FILES = {1: 16, 2: 3, 3: 3}
POA_RANDOM_N = 4


def _bounds_check(doc: dict, where: str) -> Callable[[int, str], Verdict]:
    k, s = doc["k"], doc["s"]

    def check(rc: int, out: str) -> Verdict:
        d = _json(rc, out)
        if d is None:
            return Verdict(failed=True)
        window = ref.window_bound(s, k)
        _expect(Fraction(d["opt_lower_bound_k"]) == window, f"{where}: window bound")
        lower = window
        if k == 1:
            nearest = ref.nearest_belief_bound(s)
            _expect(Fraction(d["opt_lower_bound_1"]) == nearest, f"{where}: nearest-belief bound")
            lower = max(lower, nearest)
        opt_lower, opt_upper = Fraction(d["opt_lower"]), Fraction(d["opt_upper"])
        _expect(opt_lower == lower, f"{where}: opt_lower {opt_lower} != {lower}")
        truthful = ref.social_cost(s, s, k)
        _expect(opt_lower <= opt_upper <= truthful, f"{where}: bracket out of order")

        worst: Optional[Fraction] = None
        if k == 1:
            eqs = ref.k1_equilibria(s)
            worst = max((ref.social_cost(s, z, 1) for z in eqs), default=None)
        elif "z" in doc and ref.is_equilibrium(s, doc["z"], k):
            worst = ref.social_cost(s, doc["z"], k)
        reported = d["worst_pne_cost"]
        if worst is None:
            _expect(reported is None, f"{where}: worst PNE reported where none is known")
            return Verdict()
        if reported is None:
            return Verdict(failed=True)
        _expect(Fraction(reported) == worst, f"{where}: worst PNE {reported} != {worst}")
        if opt_upper > 0:
            ratio = Fraction(d["ratio_lower"])
            _expect(ratio == worst / opt_upper, f"{where}: ratio_lower")
            _expect(ratio <= (3 if k == 1 else 4 * (k + 1)), f"{where}: ratio_lower {ratio} above the PoA bound")
        if opt_lower > 0:
            _expect(Fraction(d["ratio_upper"]) == worst / opt_lower, f"{where}: ratio_upper")
        return Verdict(equilibria=frozenset({("worst", k, s, worst)}))

    return check


def build_poa_bracket(rng: random.Random, work: Path, kcof_main) -> Inputs:
    inputs = Inputs([])
    # the same lambda on every seed: pos_chain's optimizer time alone moves
    # by 2x across lambdas
    lam = Fraction(1, 2)

    def add(path: Path, kind: str) -> None:
        argv = ["bounds", "--json", str(path)]
        inputs.queries.append(Query(argv, _bounds_check(_read(path), path.stem)))
        inputs.counts[kind] += 1

    for k, names in POA_CATALOG:
        out = _catalog(kcof_main, k, lam, work / f"catalog-k{k}")
        for name in names:
            add(out / f"{name}.json", f"catalog-k{k}")
    n = POA_RANDOM_N
    for k, files in POA_RANDOM_FILES.items():
        for idx in range(files):
            while True:
                s = tuple(sorted(Fraction(rng.randint(0, 4000), 4) for _ in range(n)))
                # a bracket needs a worst PNE; k=1 draws are kept only if one exists
                if k > 1 or ref.k1_equilibria(s):
                    break
            add(Path(_write(work / f"random-k{k}-{idx}-{n}.json", k, s)), f"random-k{k}")
    return inputs


# ---------------------------------------------------------------- verify

VERIFY_KS = (1, 2, 3, 5, 8)
# fixed, so the catalog files are the same on every seed and the seed moves
# only the composed vectors and random instances; lambda above 2/3 would make
# `kcof catalog --k 1` fail (CHANGES.md, FOUND on pos_chain)
VERIFY_LAMBDAS = (Fraction(1, 3), Fraction(1, 2))
SOLVE_FAMILIES = ("poa_blocks", "pos_star", "pos_quad", "no_pne_gadget")
HAS_PNE = {"poa_blocks", "pos_star", "pos_quad"}  # equilibria given in the paper
RANDOM_SOLVES = ((2, 5), (2, 6), (3, 6))
# vectors with one opinion moved, per k (2 unless named).  Near the median
# the other queries differ by about 5% per rank, so a small shift in rank
# moved query_p50_s by a fifth; the 42 k=1 checks (n=28), alike to within a
# few percent, hold ranks 70-111 of 167, so the median sits mid-cluster.
MOVED_VECTORS = {1: 40}


def _closed_form_cost(entry: str, tag: str, k: int, lam: Fraction) -> Optional[Fraction]:
    """The paper's cost of each catalog reference vector."""
    near_blocks = 8 + 2 * lam if k >= 3 else Fraction(5, 3) * (4 + lam)
    table = {
        ("intro_triple", "observed"): Fraction(23),
        ("intro_triple", "equilibrium"): Fraction(17, 2),
        ("two_pne_quad", "paired_blocks"): Fraction(12),
        ("two_pne_quad", "single_block"): Fraction(12),
        ("pos_chain", "equilibrium"): Fraction(34, 3) - 4 * lam,
        ("pos_chain", "near_opt"): 10 + 12 * lam,
        ("poa_chain", "equilibrium"): Fraction(8),
        ("poa_chain", "near_opt"): (8 + 4 * lam) / 3,
        ("mpoa_chain", "mixed_equilibrium"): 16 - 2 * lam,
        ("mpoa_chain", "near_opt"): (8 + 4 * lam) / 3,
        ("pos_quad", "equilibrium"): Fraction(12, 7),
        ("pos_quad", "near_opt"): Fraction(3, 2),
        ("pos_star", "equilibrium"): Fraction(k + 1, 3),
        ("pos_star", "near_opt"): Fraction(1),
        ("poa_blocks", "equilibrium"): (8 + lam) * (k + 1),
        ("poa_blocks", "near_opt"): near_blocks,
        ("mpoa_blocks", "mixed_equilibrium"): 8 * k + 16 - lam,
        ("mpoa_blocks", "near_opt"): near_blocks,
    }
    return table.get((entry, tag))


def _pure_check(doc: dict, where: str, closed: Optional[Fraction], claim: Optional[bool]):
    k, s = doc["k"], doc["s"]

    def check(rc: int, out: str) -> Verdict:
        d = _json(rc, out, allowed=(0, 1))
        if d is None:
            return Verdict(failed=True)
        z = doc["z"]
        verdict = ref.is_equilibrium(s, z, k)
        pure = d["pure"]
        _expect(pure["pne"] == verdict, f"{where}: verdict {pure['pne']} != reference {verdict}")
        _expect(claim is None or claim == verdict, f"{where}: the paper's verdict is {claim}")
        costs = [ref.player_cost(s, z, k, i) for i in range(len(s))]
        _expect([Fraction(c) for c in pure["player_costs"]] == costs, f"{where}: player costs")
        sc = Fraction(pure["social_cost"])
        _expect(sc == sum(costs, Fraction(0)), f"{where}: social cost {sc}")
        _expect(closed is None or sc == closed, f"{where}: cost {sc} != closed form {closed}")
        _expect(rc == (0 if verdict else 1), f"{where}: exit code {rc}")
        return Verdict(equilibria=frozenset({(k, s, z)}) if verdict else frozenset())

    return check


def _mixed_check(doc: dict, where: str, closed: Fraction, nested: bool):
    k, s = doc["k"], doc["s"]

    def check(rc: int, out: str) -> Verdict:
        d = _json(rc, out, allowed=(0, 1))
        if d is None:
            return Verdict(failed=True)
        report = d["mixed"] if nested else d
        esc = Fraction(report["expected_social_cost"])
        _expect(esc == closed, f"{where}: E[SC] {esc} != closed form {closed}")
        _expect(esc == ref.expected_social_cost(s, doc["mixed"], k), f"{where}: E[SC] != reference")
        _expect(report["mne"] is True and rc == 0, f"{where}: the paper's mixed equilibrium rejected")
        return Verdict()

    return check


def _solve_check(doc: dict, where: str, known_to_exist: bool):
    k, s = doc["k"], doc["s"]

    def check(rc: int, out: str) -> Verdict:
        d = _json(rc, out)
        if d is None:
            return Verdict(failed=True)
        if d["dynamics_outcome"] != "converged":
            _expect("opinions" not in d, f"{where}: opinions without convergence")
            return Verdict(failed=known_to_exist)
        _expect(d["pne"] is True, f"{where}: converged to a vector it calls no PNE")
        key = _accept(k, s, map(Fraction, d["opinions"]), Fraction(d["social_cost"]), where)
        return Verdict(equilibria=frozenset({key}))

    return check


def _blocks_for(k: int, lam: Fraction, target: int, rng: random.Random):
    """Blocks with a known equilibrium each, alternating, up to ``target`` players.

    k=1 uses the small k=1 blocks; k>=2 uses the paper's star (k players at
    0, one at 1, equilibrium 1/3 and 2/3) and five-block gadget.
    """
    if k == 1:
        shapes = [TRIPLE, QUAD, PAIR, FIVE]
        eqs = {b: ref.k1_equilibria(b)[0] for b in shapes}
        pool = [(b, eqs[b]) for b in shapes]
    else:
        star = ((0,) * k + (1,), (Fraction(1, 3),) * k + (Fraction(2, 3),))
        b = (
            (-16 - 2 * lam,) * (k + 1) + (-4 - lam,) + (0,) * (k - 1) + (4 + lam,) + (16 + 2 * lam,) * (k + 1),
            (-16 - 2 * lam,) * (k + 1) + (-8 - lam,) + (0,) * (k - 1) + (8 + lam,) + (16 + 2 * lam,) * (k + 1),
        )
        pool = [star, b]
    chosen, n = [], 0
    while n < target:
        chosen.append(pool[len(chosen) % len(pool)])
        n += len(chosen[-1][0])
    placed = _place(rng, chosen)
    return tuple(v for b, _ in placed for v in b), tuple(v for _, z in placed for v in z)


def build_verify(rng: random.Random, work: Path, kcof_main) -> Inputs:
    inputs = Inputs([])
    lams = VERIFY_LAMBDAS

    def add(argv: list[str], check, kind: str) -> None:
        inputs.queries.append(Query(argv, check))
        inputs.counts[kind] += 1

    for li, lam in enumerate(lams):
        for k in VERIFY_KS:
            out = _catalog(kcof_main, k, lam, work / f"catalog-k{k}-{li}")
            for path in sorted(out.glob("*__*.json")):
                entry, tag = path.stem.split("__")
                doc = _read(path)
                closed = _closed_form_cost(entry, tag, k, lam)
                if "mixed" in doc:
                    add(["check", "--json", str(path)], _mixed_check(doc, path.stem, closed, True), "catalog-check")
                    add(["mixed-check", "--json", str(path)], _mixed_check(doc, path.stem, closed, False), "catalog-mixed-check")
                    continue
                claim = {"equilibrium": True, "paired_blocks": True, "single_block": True, "observed": False}.get(tag)
                add(["check", "--json", str(path)], _pure_check(doc, path.stem, closed, claim), "catalog-check")
            for entry in SOLVE_FAMILIES:
                path = out / f"{entry}.json"
                # only poa_blocks depends on lambda; solve the others once
                if k == 1 or not path.exists() or (li == 1 and entry != "poa_blocks"):
                    continue
                add(["solve", "--json", str(path)], _solve_check(_read(path), path.stem, entry in HAS_PNE), "catalog-solve")

    for k in range(1, 9):
        s, z = _blocks_for(k, lams[0], 20 + 5 * k, rng)
        n = len(s)
        vectors = [("eq", z)]
        for m in range(MOVED_VECTORS.get(k, 2)):
            i = rng.randrange(n)
            moved = list(z)
            moved[i] += Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 8))
            vectors.append((f"moved-{m}", tuple(moved)))
        vectors.append(("uniform", tuple(Fraction(rng.randint(int(s[0]) * 4, int(s[-1]) * 4), 4) for _ in range(n))))
        for tag, vec in vectors:
            path = work / f"vectors-k{k}-{tag}.json"
            doc = {"k": k, "s": s, "z": vec}
            _write(path, k, s, opinions=vec)
            add(["check", "--json", str(path)], _pure_check(doc, path.stem, None, True if tag == "eq" else None), "vector-check")

    for k, n in RANDOM_SOLVES:
        s = tuple(sorted(Fraction(rng.randint(0, 4000), 4) for _ in range(n)))
        path = Path(_write(work / f"random-solve-k{k}-{n}.json", k, s))
        add(["solve", "--json", str(path)], _solve_check(_read(path), path.stem, False), "random-solve")
    return inputs


WORKLOADS = {
    "k1-solve": build_k1_solve,
    "poa-bracket": build_poa_bracket,
    "verify": build_verify,
}
