"""Parameterized catalog of benchmark instances with reference vectors.

Every entry carries vectors whose costs and equilibrium verdicts are known in
closed form as functions of the parameters (lam for the chain/block families,
eps for the no-equilibrium gadget).  :func:`catalog` only builds the entries;
:func:`verify_entry` re-derives each verdict and cost with the solver modules
and raises on any mismatch, and :func:`catalog_entry` verifies the entry it
returns.

Defaults lam=1/2, eps=1/8 sit in the interior of the allowed parameter
ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import segments
from .game import GameInstance, Opinions, check_pure
from .mixed import RandomizedOpinions, check_mixed
from .rationals import to_fraction

__all__ = [
    "PNE",
    "MNE",
    "NOT_EQUILIBRIUM",
    "NEAR_OPT",
    "ReferenceVector",
    "CatalogEntry",
    "catalog",
    "catalog_entry",
    "recompute",
    "verify_entry",
]

PNE = "pne"
MNE = "mne"
NOT_EQUILIBRIUM = "not_equilibrium"
NEAR_OPT = "near_opt"


@dataclass(frozen=True)
class ReferenceVector:
    """A vector with its expected cost and expected verdict."""

    tag: str
    expected_cost: Fraction
    verdict: str
    opinions: Optional[Opinions] = None
    mixed: Optional[RandomizedOpinions] = None

    def __post_init__(self) -> None:
        if (self.opinions is None) == (self.mixed is None):
            raise ValueError("exactly one of opinions/mixed must be given")


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    instance: GameInstance
    references: tuple[ReferenceVector, ...]
    notes: str = ""


def recompute(inst: GameInstance, ref: ReferenceVector) -> tuple[str, Fraction]:
    """The verdict and cost the solver modules give a reference vector.

    A mixed vector is MNE or NOT_EQUILIBRIUM, with its expected social cost.
    A pure vector that claims PNE or NOT_EQUILIBRIUM is one of the two; any
    other pure vector is a cost-only reference, NEAR_OPT.
    """
    if ref.mixed is not None:
        mixed = check_mixed(inst, ref.mixed)
        return MNE if mixed.verdict.is_mne else NOT_EQUILIBRIUM, mixed.expected_social_cost
    pure = check_pure(inst, ref.opinions)
    if ref.verdict in (PNE, NOT_EQUILIBRIUM):
        verdict = PNE if pure.verdict.is_pne else NOT_EQUILIBRIUM
    else:
        verdict = NEAR_OPT
    return verdict, pure.social_cost


def verify_entry(entry: CatalogEntry) -> None:
    """Re-derive every reference verdict and cost; raise on any mismatch."""
    inst = entry.instance
    for ref in entry.references:
        verdict, cost = recompute(inst, ref)
        if cost != ref.expected_cost:
            raise AssertionError(f"{entry.name}/{ref.tag}: cost {cost} != {ref.expected_cost}")
        if verdict != ref.verdict:
            raise AssertionError(
                f"{entry.name}/{ref.tag}: verdict {verdict}, expected {ref.verdict}"
            )
    if entry.name == "no_pne_gadget" and inst.k == 1:
        if segments.exists_pne(segments.build_segment_graph(inst)):
            raise AssertionError("no_pne_gadget: the segment graph found a path")


def _intro_triple() -> CatalogEntry:
    inst = GameInstance(k=1, beliefs=(Fraction(-10), Fraction(2), Fraction(5)))
    return CatalogEntry(
        name="intro_triple",
        instance=inst,
        references=(
            ReferenceVector(
                "observed",
                Fraction(23),
                NOT_EQUILIBRIUM,
                opinions=(Fraction(-10), Fraction(-5), Fraction(4)),
            ),
            ReferenceVector(
                "equilibrium",
                Fraction(17, 2),
                PNE,
                opinions=(Fraction(-7, 2), Fraction(3), Fraction(4)),
            ),
        ),
        notes="three players; the truthful-leaning vector is unstable, the compromise is not",
    )


def _two_pne_quad() -> CatalogEntry:
    inst = GameInstance(k=1, beliefs=(Fraction(0), Fraction(9), Fraction(12), Fraction(21)))
    return CatalogEntry(
        name="two_pne_quad",
        instance=inst,
        references=(
            ReferenceVector(
                "paired_blocks",
                Fraction(12),
                PNE,
                opinions=(Fraction(3), Fraction(6), Fraction(15), Fraction(18)),
            ),
            ReferenceVector(
                "single_block",
                Fraction(12),
                PNE,
                opinions=(Fraction(5), Fraction(10), Fraction(11), Fraction(16)),
            ),
        ),
        notes="four players with exactly two equilibria; exercises the segment DAG",
    )


def _no_pne_gadget(k: int, eps: Fraction) -> CatalogEntry:
    beliefs = (Fraction(0),) * k + (1 - eps,) + (Fraction(2),) * k
    inst = GameInstance(k=k, beliefs=beliefs)
    return CatalogEntry(
        name="no_pne_gadget",
        instance=inst,
        references=(),
        notes="2k+1 players, no pure equilibrium for any k; the middle player oscillates",
    )


def _pos_star(k: int) -> CatalogEntry:
    inst = GameInstance(k=k, beliefs=(Fraction(0),) * k + (Fraction(1),))
    third = Fraction(1, 3)
    return CatalogEntry(
        name="pos_star",
        instance=inst,
        references=(
            ReferenceVector(
                "equilibrium",
                Fraction(k + 1, 3),
                PNE,
                opinions=(third,) * k + (2 * third,),
            ),
            ReferenceVector(
                "near_opt",
                Fraction(1),
                NEAR_OPT,
                opinions=(Fraction(0),) * (k + 1),
            ),
        ),
        notes="k players at 0 and one at 1: the unique equilibrium costs (k+1)/3, herding costs 1",
    )


def _pos_chain(lam: Fraction) -> CatalogEntry:
    s = (
        Fraction(0),
        5 - 3 * lam,
        Fraction(8),
        Fraction(15),
        18 + 3 * lam,
        Fraction(23),
    )
    inst = GameInstance(k=1, beliefs=s)
    z = (
        (5 - 3 * lam) / 3,
        (10 - 6 * lam) / 3,
        Fraction(31, 3),
        Fraction(38, 3),
        (59 + 6 * lam) / 3,
        (64 + 3 * lam) / 3,
    )
    near = (3 - lam, 6 - 2 * lam, 7 - 6 * lam, 16 + 6 * lam, 17 + 2 * lam, 20 + lam)
    # players 1 and 4 pay their belief distance up to lam = 2/3 and their
    # neighbor's distance above it; from lam = 4/5 on they switch neighbors
    if lam <= Fraction(2, 3):
        near_cost = 10 + 12 * lam
    elif lam <= Fraction(4, 5):
        near_cost = 6 + 18 * lam
    else:
        near_cost = 14 + 8 * lam
    return CatalogEntry(
        name="pos_chain",
        instance=inst,
        references=(
            ReferenceVector("equilibrium", Fraction(34, 3) - 4 * lam, PNE, opinions=z),
            ReferenceVector("near_opt", near_cost, NEAR_OPT, opinions=near),
        ),
        notes=(
            "six-player chain whose unique equilibrium costs 34/3 - 4 lam: more than the "
            "near_opt vector for lam < 1/12, the same at 1/12, and less above it"
        ),
    )


def _pos_quad() -> CatalogEntry:
    inst = GameInstance(k=2, beliefs=(Fraction(0), Fraction(1), Fraction(1), Fraction(2)))
    return CatalogEntry(
        name="pos_quad",
        instance=inst,
        references=(
            ReferenceVector(
                "equilibrium",
                Fraction(12, 7),
                PNE,
                opinions=(Fraction(4, 7), Fraction(6, 7), Fraction(8, 7), Fraction(10, 7)),
            ),
            ReferenceVector(
                "near_opt",
                Fraction(3, 2),
                NEAR_OPT,
                opinions=(Fraction(1), Fraction(1), Fraction(1), Fraction(3, 2)),
            ),
        ),
        notes="four players, k=2: the sevenths equilibrium vs the cheaper herding vector",
    )


def _chain_beliefs(lam: Fraction) -> tuple[Fraction, ...]:
    return (-10 - lam, -10 - lam, -2 - lam, 2 + lam, 10 + lam, 10 + lam)


def _chain_near_opt(lam: Fraction) -> Opinions:
    return (
        -10 - lam,
        -10 - lam,
        (-2 - lam) / 3,
        (2 + lam) / 3,
        10 + lam,
        10 + lam,
    )


def _poa_chain(lam: Fraction) -> CatalogEntry:
    inst = GameInstance(k=1, beliefs=_chain_beliefs(lam))
    z = (-10 - lam, -10 - lam, -6 - lam, 6 + lam, 10 + lam, 10 + lam)
    return CatalogEntry(
        name="poa_chain",
        instance=inst,
        references=(
            ReferenceVector("equilibrium", Fraction(8), PNE, opinions=z),
            ReferenceVector(
                "near_opt", (8 + 4 * lam) / 3, NEAR_OPT, opinions=_chain_near_opt(lam)
            ),
        ),
        notes="six-player chain with an expensive equilibrium: cost ratio approaches 3 as lam -> 0",
    )


def _mpoa_chain(lam: Fraction) -> CatalogEntry:
    inst = GameInstance(k=1, beliefs=_chain_beliefs(lam))
    half = Fraction(1, 2)
    mixed = (
        ((-10 - lam, Fraction(1)),),
        ((-10 - lam, Fraction(1)),),
        ((-6 - lam, half), (-6 + 3 * lam, half)),
        ((6 + lam, half), (6 - 3 * lam, half)),
        ((10 + lam, Fraction(1)),),
        ((10 + lam, Fraction(1)),),
    )
    return CatalogEntry(
        name="mpoa_chain",
        instance=inst,
        references=(
            ReferenceVector("mixed_equilibrium", 16 - 2 * lam, MNE, mixed=mixed),
            ReferenceVector(
                "near_opt", (8 + 4 * lam) / 3, NEAR_OPT, opinions=_chain_near_opt(lam)
            ),
        ),
        notes="randomizing the two middle players doubles the equilibrium cost of poa_chain",
    )


def _blocks_beliefs(k: int, lam: Fraction) -> tuple[Fraction, ...]:
    return (
        (-16 - 2 * lam,) * (k + 1)
        + (-4 - lam,)
        + (Fraction(0),) * (k - 1)
        + (4 + lam,)
        + (16 + 2 * lam,) * (k + 1)
    )


def _blocks_near_opt(k: int, lam: Fraction) -> tuple[Opinions, Fraction]:
    outer_l = (-16 - 2 * lam,) * (k + 1)
    outer_r = (16 + 2 * lam,) * (k + 1)
    if k >= 3:
        z = outer_l + (Fraction(0),) * (k + 1) + outer_r
        return z, 8 + 2 * lam
    third = (4 + lam) / 3
    z = outer_l + (-third, Fraction(0), third) + outer_r
    return z, Fraction(5, 3) * (4 + lam)


def _poa_blocks(k: int, lam: Fraction) -> CatalogEntry:
    inst = GameInstance(k=k, beliefs=_blocks_beliefs(k, lam))
    z = (
        (-16 - 2 * lam,) * (k + 1)
        + (-8 - lam,)
        + (Fraction(0),) * (k - 1)
        + (8 + lam,)
        + (16 + 2 * lam,) * (k + 1)
    )
    near, near_cost = _blocks_near_opt(k, lam)
    return CatalogEntry(
        name="poa_blocks",
        instance=inst,
        references=(
            ReferenceVector("equilibrium", (8 + lam) * (k + 1), PNE, opinions=z),
            ReferenceVector("near_opt", near_cost, NEAR_OPT, opinions=near),
        ),
        notes="3k+3 players in five blocks; equilibrium cost grows linearly in k",
    )


def _mpoa_blocks(k: int, lam: Fraction) -> CatalogEntry:
    inst = GameInstance(k=k, beliefs=_blocks_beliefs(k, lam))
    half = Fraction(1, 2)
    supports: list[tuple[tuple[Fraction, Fraction], ...]] = []
    beliefs = inst.beliefs
    left_idx = k + 1
    right_idx = 2 * k + 1
    for i, b in enumerate(beliefs):
        if i == left_idx:
            supports.append(((-8 - lam, half), (-8 + 3 * lam, half)))
        elif i == right_idx:
            supports.append(((8 - 3 * lam, half), (8 + lam, half)))
        else:
            supports.append(((b, Fraction(1)),))
    near, near_cost = _blocks_near_opt(k, lam)
    return CatalogEntry(
        name="mpoa_blocks",
        instance=inst,
        references=(
            ReferenceVector(
                "mixed_equilibrium", 8 * k + 16 - lam, MNE, mixed=tuple(supports)
            ),
            ReferenceVector("near_opt", near_cost, NEAR_OPT, opinions=near),
        ),
        notes="blocks instance with the two singleton players randomizing over two points",
    )


def catalog_entry(
    name: str,
    k: int,
    lam: Fraction = Fraction(1, 2),
    eps: Fraction = Fraction(1, 8),
) -> CatalogEntry:
    """Build a single entry by name and verify it (see :func:`catalog` for applicability)."""
    entries = {e.name: e for e in catalog(k, lam, eps)}
    if name not in entries:
        raise KeyError(f"catalog entry {name!r} is not applicable to k={k}")
    verify_entry(entries[name])
    return entries[name]


def catalog(
    k: int,
    lam: Fraction | int | str = Fraction(1, 2),
    eps: Fraction | int | str = Fraction(1, 8),
) -> list[CatalogEntry]:
    """All catalog entries applicable to neighborhood size k, unverified.

    lam must lie in (0,1) and eps in (0,1/4).  :func:`verify_entry` checks
    an entry.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    lam = to_fraction(lam)
    eps = to_fraction(eps)
    if not 0 < lam < 1:
        raise ValueError(f"lam must be in (0,1), got {lam}")
    if not 0 < eps < Fraction(1, 4):
        raise ValueError(f"eps must be in (0,1/4), got {eps}")

    entries: list[CatalogEntry] = []
    if k == 1:
        entries.append(_intro_triple())
        entries.append(_two_pne_quad())
    entries.append(_no_pne_gadget(k, eps))
    if k >= 3:
        entries.append(_pos_star(k))
    if k == 1:
        entries.append(_pos_chain(lam))
    if k == 2:
        entries.append(_pos_quad())
    if k == 1:
        entries.append(_poa_chain(lam))
        entries.append(_mpoa_chain(lam))
    if k >= 2:
        entries.append(_poa_blocks(k, lam))
        entries.append(_mpoa_blocks(k, lam))
    return entries
