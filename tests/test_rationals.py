"""Parsing rationals: the plain-text fast path against ``Fraction(text)``."""

from __future__ import annotations

import json
import random
from fractions import Fraction as F

import pytest

from kcof import load_instance, rationals
from kcof.rationals import parse_rational

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
        assert outcome(parse_rational, text) == outcome(reference_parse, text)

    def test_fuzzed_strings_match_the_general_path(self):
        rng = random.Random(0x23)
        kinds = {"ok": 0, "error": 0}
        for _ in range(20_000):
            text = fuzzed(rng)
            got = outcome(parse_rational, text)
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
        parse_rational("2.5")
