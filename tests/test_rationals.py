"""Parsing rationals: the plain-text fast path against ``Fraction(text)``."""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from kcof import GameInstance, as_randomized, load_instance, rationals
from kcof.instance_io import InstanceFormatError
from kcof.rationals import Scaled, as_scaled, to_fraction

_DASHES = {"−": "-", "–": "-", "—": "-"}


def reference_parse(text: str) -> F:
    """The general path alone: ``Fraction`` of the trimmed text with ASCII dashes."""
    cleaned = text.strip()
    for bad, good in _DASHES.items():
        cleaned = cleaned.replace(bad, good)
    try:
        return F(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def outcome(parse, text: str):
    """("ok", value, its type) or ("error", the exception's type, its message)."""
    try:
        value = parse(text)
    except ValueError as exc:
        return "error", type(exc), str(exc)
    return "ok", value, type(value)


EDGE_CASES = [
    "", "/", "1/", "/2", "1//2", "1/0", "0/7", "-0", "-0/5", "0", "-", "--1", "+5", "+5/2",
    "-21/2", "21/-2", "007", "007/0010", "-007/014", "1/2/3", " 3", "3 ", "\t-3/4\n", " ",
    "1_000", "1_000/3", "_1", "1_", "1__0", "2.5", "-2.5", ".5", "5.", "1e3", "1E-3",
    "2.5/2", "1/2.5", "1/1e2", "nan", "inf", "-inf", "0x10", "١٢", "-٣/٤", "１２",
    "²", "−21/2", "–3", "—3/4", "− 3", "1 /2", "1/ 2", "3\n", " 3", "1/0000",
    "9" * 400, "-" + "9" * 400, "1" * 400 + "/" + "7" * 400, "7/" + "3" * 400,
    "1" * 5000, "1/" + "1" * 5000, "0" * 5000 + "1",
]

ALPHABET = "0123456789" * 4 + "--//+ _.e\t\n−–—١٣２²x"


def fuzzed(rng: random.Random) -> str:
    if rng.random() < 0.5:  # near the plain form: a sign, digits, maybe a ratio
        text = rng.choice(["", "", "-", "+", "−", " "])
        text += "".join(rng.choice("0123456789") for _ in range(rng.randint(0, 6)))
        if rng.random() < 0.6:
            text += "/" + "".join(rng.choice("0123456789") for _ in range(rng.randint(0, 4)))
        if rng.random() < 0.2:
            pos = rng.randint(0, len(text))
            text = text[:pos] + rng.choice(ALPHABET) + text[pos:]
        return text
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 8)))


class TestParseRational:
    @pytest.mark.parametrize("text", EDGE_CASES)
    def test_edge_cases_match_the_general_path(self, text):
        assert outcome(to_fraction, text) == outcome(reference_parse, text)

    def test_fuzzed_strings_match_the_general_path(self):
        rng = random.Random(0x23)
        kinds = {"ok": 0, "error": 0}
        for _ in range(20_000):
            text = fuzzed(rng)
            got = outcome(to_fraction, text)
            assert got == outcome(reference_parse, text), text
            kinds[got[0]] += 1
        assert min(kinds.values()) >= 4000, kinds


def test_plain_files_never_reach_the_general_path(tmp_path, monkeypatch):
    rng = random.Random(7)
    values = [str(rng.randint(-10**30, 10**30)) for _ in range(40)]
    beliefs = sorted(values, key=int) + ["10000000000000000000000000000000/3"]
    doc = {
        "k": 2,
        "beliefs": beliefs,
        "opinions": ["-1/2", "0", "007", "-0", *values[5:], "5/1", "0/9"],
        "mixed": [[["1", "1/3"], ["-2/4", "2/3"]]] + [[["0", "1"]]] * 40,
    }
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(doc))

    def refused(text):
        raise AssertionError(f"general path reached for {text!r}")

    monkeypatch.setattr(rationals, "_parse_text", refused)
    loaded = load_instance(path)
    assert loaded.instance.beliefs == tuple(F(v) for v in beliefs)
    assert loaded.opinions == tuple(F(v) for v in doc["opinions"])
    assert loaded.mixed[0] == ((F(1), F(1, 3)), (F(-1, 2), F(2, 3)))
    with pytest.raises(AssertionError, match="general path"):
        to_fraction("2.5")


def reference_value(value, place: str) -> F:
    """An instance file's value as a Fraction, by the general path alone."""
    if isinstance(value, float):
        raise ValueError(f"{place}: JSON floats are not exact; write the value as a string")
    if isinstance(value, bool):
        raise ValueError(f"{place}: booleans are not rational values")
    if isinstance(value, int):
        return F(value)
    if not isinstance(value, str):
        raise ValueError(
            f"{place}: expected Fraction, int, or string, got {type(value).__name__}"
            " (floats are not exact; pass a string like '2.5' or '-21/2')"
        )
    try:
        return reference_parse(value)
    except ValueError as exc:
        raise ValueError(f"{place}: {exc}") from exc


def reference_load(doc: dict):
    """The document a valid file holds, as (k, beliefs, labels, opinions, mixed)
    in Fractions, or the first error's text, in the order the loader reports:
    belief values, labels, k and the beliefs' count and order, opinion values
    and count, then each support pair's shape, opinion and probability."""
    try:
        beliefs = tuple(reference_value(v, f"beliefs[{i}]") for i, v in enumerate(doc["beliefs"]))
        labels = doc.get("labels")
        if labels is not None:
            labels = tuple(labels)
        n, k = len(beliefs), doc["k"]
        if k < 1:
            raise ValueError("k must be a positive integer")
        if n < k + 1:
            raise ValueError(f"need at least k+1={k + 1} players, got {n}")
        for i in range(n - 1):
            if beliefs[i] > beliefs[i + 1]:
                raise ValueError(
                    f"beliefs must be sorted ascending; index {i} has {beliefs[i]} > {beliefs[i + 1]}"
                )
        if labels is not None and len(labels) != n:
            raise ValueError("labels length must equal the number of players")
        opinions = None
        if "opinions" in doc:
            opinions = tuple(
                reference_value(v, f"opinions[{i}]") for i, v in enumerate(doc["opinions"])
            )
            if len(opinions) != n:
                raise ValueError(f"expected {n} opinions, got {len(opinions)}")
        mixed = None
        if "mixed" in doc:
            mixed = []
            for i, support in enumerate(doc["mixed"]):
                if not isinstance(support, list):
                    raise ValueError(f"mixed[{i}] must be a list of [opinion, prob] pairs")
                pairs = []
                for j, pair in enumerate(support):
                    if not isinstance(pair, list) or len(pair) != 2:
                        raise ValueError(f"mixed[{i}][{j}] must be an [opinion, prob] pair")
                    pairs.append(
                        (
                            reference_value(pair[0], f"mixed[{i}][{j}] opinion"),
                            reference_value(pair[1], f"mixed[{i}][{j}] probability"),
                        )
                    )
                mixed.append(tuple(pairs))
            # the support checks (count, duplicates, probabilities) act on Fractions
            mixed = as_randomized(GameInstance(k, beliefs), mixed)
    except ValueError as exc:
        return "error", str(exc)
    return "ok", (k, beliefs, labels, opinions, mixed)


MALFORMED = ["", "3/0", "1/0000", "abc", "1//2", "0x10", "1" * 5000, 2.5, -0.0, True, None, [1], {}]


def spelled(rng: random.Random, q: F, malformed: float):
    """q in a spelling drawn at random: plain, unreduced, a JSON int, padded,
    decimal or with a Unicode minus; or, with probability ``malformed``, a
    value that is not a rational."""
    if rng.random() < malformed:
        return rng.choice(MALFORMED)
    a, b = q.numerator, q.denominator
    forms = [str(q), f"{a * 3}/{b * 3}", f" {q}", f"{q}\t", f"0{abs(a)}/{b}" if a >= 0 else str(q)]
    if b == 1:
        forms += [a, f"{a}/1", f"{a}.0", f"{a}e0"]
    if b == 2:
        forms.append(("-" if a < 0 else "") + f"{abs(a) // 2}.5")
    if a < 0:
        forms += ["−" + str(-q), "–" + str(-q)]
    return rng.choice(forms)


def loader_case(rng: random.Random) -> dict:
    """A seeded instance document: the values of every place in mixed
    spellings, some of them huge, and now and then a malformed value, an
    unsorted pair of beliefs, a wrong count or a malformed pair."""
    n = rng.randint(2, 7)
    size = rng.choice((10, 10, 10**40))
    dens = rng.choice(((1,), (1, 2), (1, 2, 3, 4, 7)))
    beliefs = sorted(F(rng.randint(-size, size), rng.choice(dens)) for _ in range(n))
    bad = rng.choice((0.0, 0.0, 0.05, 0.2))
    doc: dict = {
        "k": rng.choice((1, 1, 2, 2, n - 1, n)),
        "beliefs": [spelled(rng, q, bad / 4) for q in beliefs],
    }
    if rng.random() < 0.1:
        i = rng.randrange(n - 1)
        doc["beliefs"][i], doc["beliefs"][i + 1] = doc["beliefs"][i + 1], doc["beliefs"][i]
    if rng.random() < 0.2:
        doc["labels"] = [f"p{i}" for i in range(n + (rng.random() < 0.3))]
    if rng.random() < 0.7:
        m = n + (rng.random() < 0.1)
        doc["opinions"] = [
            spelled(rng, F(rng.randint(-size, size), rng.choice(dens)), bad) for _ in range(m)
        ]
    if rng.random() < 0.5:
        supports = []
        for _ in range(n):
            first = F(rng.randint(1, 3), 4)
            probs = rng.choice(([F(1)], [first, 1 - first]))
            support = [
                [spelled(rng, F(rng.randint(-size, size), rng.choice(dens)), bad), spelled(rng, p, bad)]
                for p in probs
            ]
            if rng.random() < 0.03:
                support.insert(rng.randint(0, len(support)), rng.choice((["1"], "1", ["1", "2", "3"])))
            supports.append(support if rng.random() > 0.01 else "1")
        doc["mixed"] = supports
    return doc


class TestLoadInstanceDifferential:
    """``load_instance`` against :func:`reference_load`, whose values take the
    general path: equal documents, or the same error text."""

    def test_mixed_spellings_match_the_general_path(self, tmp_path):
        rng = random.Random(0x10AD)
        path = tmp_path / "doc.json"
        seen = Counter()
        for _ in range(1500):
            doc = loader_case(rng)
            path.write_text(json.dumps(doc, ensure_ascii=rng.random() < 0.5))
            expected = reference_load(doc)
            try:
                loaded = load_instance(path)
            except InstanceFormatError as exc:
                text = str(exc)
                assert expected == ("error", text), doc
                kind = "sorted" if "sorted" in text else text.split("[")[0].split(" ")[0]
                seen[kind] += 1
                bad_opinion = any(v in MALFORMED for v in doc.get("opinions", ()))
                seen["sorted before a bad opinion"] += kind == "sorted" and bad_opinion
                seen["malformed support or pair"] += "must be a" in text
                continue
            k, beliefs, labels, opinions, mixed = expected[1]
            inst = loaded.instance
            assert (inst.k, inst.beliefs, inst.labels) == (k, beliefs, labels), doc
            assert all(type(b) is F for b in inst.beliefs)
            assert (loaded.opinions, loaded.mixed) == (opinions, mixed), doc
            twin = GameInstance(k, beliefs, labels)
            assert inst == twin and hash(inst) == hash(twin)
            seen["ok"] += 1
            seen["huge"] += max(abs(b.numerator) for b in beliefs) > 10**30
            seen["with opinions"] += opinions is not None
            seen["with mixed"] += mixed is not None
        assert seen["ok"] >= 300 and seen["huge"] >= 50, seen
        assert seen["with opinions"] >= 150 and seen["with mixed"] >= 100, seen
        assert min(seen[kind] for kind in ("beliefs", "opinions", "mixed", "sorted")) >= 40, seen
        assert seen["sorted before a bad opinion"] >= 5, seen
        assert seen["malformed support or pair"] >= 10, seen


class TestScaled:
    def test_reads_equals_and_hashes_as_its_tuple(self):
        values = (F(1, 2), F(2, 3), F(1))
        for scaled in (as_scaled(["1/2", "4/6", "1"]), Scaled(12, (6, 8, 12)), Scaled(6, [3, 4, 6])):
            assert scaled == values and values == scaled and not scaled != values
            assert hash(scaled) == hash(values) and repr(scaled) == repr(values)
            assert (tuple(scaled), scaled[1], scaled[1:], len(scaled)) == (values, F(2, 3), values[1:], 3)
            assert all(type(v) is F for v in scaled)
        assert as_scaled(["1/2", "4/6", "1"]).scale == 6
        assert Scaled(12, (6, 8, 12)) == Scaled(6, (3, 4, 6)) != Scaled(6, (3, 4, 5))
        assert Scaled(1, (1, 2)) != [F(1), F(2)]
        # a large power of two in the scale, shared by some values
        scale, ints = 3 << 5000, (0, 1, -2, 3, 6 << 4000, -(9 << 5000), 5 << 5003, 1 - (7 << 2500))
        assert tuple(Scaled(scale, ints)) == tuple(F(v, scale) for v in ints)

    def test_an_instance_holds_its_beliefs_over_their_lcm_denominator(self):
        inst = GameInstance(2, Scaled(12, (6, 8, 12)))
        assert (inst.scale, inst.s_int) == (6, (3, 4, 6))
        assert inst == GameInstance(2, (F(1, 2), F(2, 3), 1))
