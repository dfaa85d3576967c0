"""JSON instance files.

Schema::

    {
      "k": 1,
      "beliefs": ["-21/2", "2.5", "3", ...],      # sorted; strings or ints
      "opinions": ["..."],                         # optional, one per player
      "mixed": [[["opinion", "prob"], ...], ...],  # optional, per player
      "labels": ["..."]                            # optional
    }

Rationals are serialized as strings ("-21/2"; decimal strings are parsed
exactly), never as JSON floats: exactness is the product.  Round-tripping a
document is value-identical.

Each list of values (the beliefs, the opinions, each support pair) is read
in one pass as ints over its lcm denominator (:func:`kcof.rationals.as_scaled`);
an error names the value's place ("opinions[3]").  The beliefs become the
instance's ``s_int``, and the opinions stay a :class:`kcof.rationals.Scaled`
whose ``Fraction``s are made only when read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Optional

from .game import GameInstance, Opinions, as_opinions
from .mixed import RandomizedOpinions, as_randomized
from .rationals import as_scaled, format_ratio

__all__ = [
    "InstanceFormatError",
    "InstanceDocument",
    "load_instance",
    "document_dict",
    "write_instance",
]


class InstanceFormatError(ValueError):
    """Malformed instance file."""


@dataclass(frozen=True)
class InstanceDocument:
    instance: GameInstance
    opinions: Optional[Opinions] = None
    mixed: Optional[RandomizedOpinions] = None


def load_instance(path: str | Path) -> InstanceDocument:
    """Parse and validate an instance file."""
    try:
        with open(path, encoding="utf-8") as fp:
            raw = json.load(fp)
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return _document(raw)
    except InstanceFormatError:
        raise
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc


def _document(raw) -> InstanceDocument:
    """The document of a parsed file; a ValueError names what is malformed."""
    if not isinstance(raw, dict):
        raise InstanceFormatError("top-level JSON value must be an object")

    allowed = {"k", "beliefs", "opinions", "mixed", "labels"}
    unknown = set(raw) - allowed
    if unknown:
        raise InstanceFormatError(f"unknown fields: {sorted(unknown)}")
    if "k" not in raw or "beliefs" not in raw:
        raise InstanceFormatError('both "k" and "beliefs" are required')
    k = raw["k"]
    if not isinstance(k, int) or isinstance(k, bool):
        raise InstanceFormatError('"k" must be an integer')
    if not isinstance(raw["beliefs"], list):
        raise InstanceFormatError('"beliefs" must be a list')
    beliefs = as_scaled(raw["beliefs"], "beliefs[{}]".format)
    labels = raw.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise InstanceFormatError('"labels" must be a list of strings')
        labels = tuple(labels)
    inst = GameInstance(k=k, beliefs=beliefs, labels=labels)

    opinions = None
    if raw.get("opinions") is not None:
        if not isinstance(raw["opinions"], list):
            raise InstanceFormatError('"opinions" must be a list')
        opinions = as_opinions(inst, as_scaled(raw["opinions"], "opinions[{}]".format))

    mixed = None
    if raw.get("mixed") is not None:
        if not isinstance(raw["mixed"], list):
            raise InstanceFormatError('"mixed" must be a list (one support per player)')
        flat, places, fault = [], [], None  # the pairs' values, and (i, j) of each pair
        for i, sup in enumerate(raw["mixed"]):
            if not isinstance(sup, list):
                fault = f"mixed[{i}] must be a list of [opinion, prob] pairs"
                break
            for j, pair in enumerate(sup):
                if not isinstance(pair, list) or len(pair) != 2:
                    fault = f"mixed[{i}][{j}] must be an [opinion, prob] pair"
                    break
                flat += pair
                places.append((i, j))
            if fault:
                break
        # a bad value before the first malformed support or pair is reported first
        kinds = ("opinion", "probability")
        values = as_scaled(flat, lambda t: "mixed[{}][{}] {}".format(*places[t // 2], kinds[t % 2]))
        if fault:
            raise InstanceFormatError(fault)
        pairs = iter(zip(values[::2], values[1::2]))
        mixed = as_randomized(inst, tuple(tuple(islice(pairs, len(sup))) for sup in raw["mixed"]))

    return InstanceDocument(instance=inst, opinions=opinions, mixed=mixed)


def document_dict(
    inst: GameInstance,
    opinions: Optional[Opinions] = None,
    mixed: Optional[RandomizedOpinions] = None,
) -> dict:
    """Serializable dict in the instance-file schema."""
    doc: dict = {
        "k": inst.k,
        "beliefs": [format_ratio(v, inst.scale) for v in inst.s_int],
    }
    if inst.labels is not None:
        doc["labels"] = list(inst.labels)
    if opinions is not None:
        doc["opinions"] = [str(v) for v in opinions]
    if mixed is not None:
        doc["mixed"] = [[[str(op), str(pr)] for op, pr in support] for support in mixed]
    return doc


def write_instance(
    path: str | Path,
    inst: GameInstance,
    opinions: Optional[Opinions] = None,
    mixed: Optional[RandomizedOpinions] = None,
) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(document_dict(inst, opinions, mixed), fp, indent=2)
        fp.write("\n")
