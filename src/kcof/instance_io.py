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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .game import GameInstance, Opinions, as_opinions
from .mixed import RandomizedOpinions, as_randomized
from .rationals import format_rational, to_fraction

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


def _rational(value, where: str, *at: int):
    """The value as a Fraction; an error names it as ``where.format(*at)``."""
    if isinstance(value, float):
        raise InstanceFormatError(
            f"{where.format(*at)}: JSON floats are not exact; write the value as a string"
        )
    try:
        return to_fraction(value)
    except (ValueError, TypeError) as exc:
        raise InstanceFormatError(f"{where.format(*at)}: {exc}") from exc


def load_instance(path: str | Path) -> InstanceDocument:
    """Parse and validate an instance file."""
    try:
        with open(path, encoding="utf-8") as fp:
            raw = json.load(fp)
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path} is not valid JSON: {exc}") from exc
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
    beliefs = [_rational(v, "beliefs[{}]", i) for i, v in enumerate(raw["beliefs"])]
    labels = raw.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise InstanceFormatError('"labels" must be a list of strings')
        labels = tuple(labels)
    try:
        inst = GameInstance(k=k, beliefs=tuple(beliefs), labels=labels)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc

    opinions = None
    if raw.get("opinions") is not None:
        if not isinstance(raw["opinions"], list):
            raise InstanceFormatError('"opinions" must be a list')
        vals = [_rational(v, "opinions[{}]", i) for i, v in enumerate(raw["opinions"])]
        try:
            opinions = as_opinions(inst, vals)
        except ValueError as exc:
            raise InstanceFormatError(str(exc)) from exc

    mixed = None
    if raw.get("mixed") is not None:
        if not isinstance(raw["mixed"], list):
            raise InstanceFormatError('"mixed" must be a list (one support per player)')
        supports = []
        for i, sup in enumerate(raw["mixed"]):
            if not isinstance(sup, list):
                raise InstanceFormatError(f"mixed[{i}] must be a list of [opinion, prob] pairs")
            pairs = []
            for j, pair in enumerate(sup):
                if not isinstance(pair, list) or len(pair) != 2:
                    raise InstanceFormatError(
                        f"mixed[{i}][{j}] must be an [opinion, prob] pair"
                    )
                pairs.append(
                    (
                        _rational(pair[0], "mixed[{}][{}] opinion", i, j),
                        _rational(pair[1], "mixed[{}][{}] probability", i, j),
                    )
                )
            supports.append(tuple(pairs))
        try:
            mixed = as_randomized(inst, tuple(supports))
        except ValueError as exc:
            raise InstanceFormatError(str(exc)) from exc

    return InstanceDocument(instance=inst, opinions=opinions, mixed=mixed)


def document_dict(
    inst: GameInstance,
    opinions: Optional[Opinions] = None,
    mixed: Optional[RandomizedOpinions] = None,
) -> dict:
    """Serializable dict in the instance-file schema."""
    doc: dict = {
        "k": inst.k,
        "beliefs": [format_rational(b) for b in inst.beliefs],
    }
    if inst.labels is not None:
        doc["labels"] = list(inst.labels)
    if opinions is not None:
        doc["opinions"] = [format_rational(v) for v in opinions]
    if mixed is not None:
        doc["mixed"] = [
            [[format_rational(op), format_rational(pr)] for op, pr in support]
            for support in mixed
        ]
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
