"""Exact compromise games on the real line.

A game is a sorted vector of rational beliefs plus a neighborhood size k.
Each player publicly expresses an opinion; her cost is the largest distance
from her opinion to her own belief and to the opinions of the k players whose
opinions lie closest to her belief.  Her unique cost-minimizing opinion is the
midpoint of the shortest interval spanning her belief and those neighbor
opinions, which makes pure-equilibrium verification an exact midpoint test.

Inputs and results are ``fractions.Fraction`` and every comparison is exact.
Inside, a check scales the beliefs and opinions once to integers with
:func:`kcof._accel.scaled` (exact for any size, since Python ints do not
overflow), sorts the opinions once (:func:`kcof._accel.sorted_view`) and
ranks each player once with :func:`kcof._accel.span`, the one place that
applies the neighbour tie rule and takes the interval spanning s_i and the
chosen opinions.  A ranking walks out from s_i through the sorted opinions
and reads only the k + 1 nearest (plus any opinions equal to the lowest of
them), so :func:`check_pure` takes the verdict, the player costs, the social
cost and the structure flags from one pass in O(n log n + n k log k) for n
players, not a sort of n - 1 keys per player.  :func:`is_pure_nash`,
:func:`social_cost` and :func:`structure_report` are views of it.

Distance ties when ranking neighbor candidates break toward the player's own
opinion first and then toward the smallest index (:func:`kcof._accel.ranked`).
The ``tie_seen`` diagnostic on verdicts reports when such a boundary tie
occurred, i.e. when the verdict could depend on the tie rule at all.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from ._accel import ranked, scaled, sorted_view, span
from .rationals import to_fraction

__all__ = [
    "GameInstance",
    "Neighborhood",
    "Interval",
    "PureVerdict",
    "PureCheck",
    "Violation",
    "DynamicsResult",
    "StructureReport",
    "as_opinions",
    "neighborhood",
    "interval",
    "player_cost",
    "social_cost",
    "best_response",
    "is_pure_nash",
    "check_pure",
    "best_response_dynamics",
    "structure_report",
]

Opinions = tuple[Fraction, ...]


@dataclass(frozen=True)
class GameInstance:
    """Neighborhood size k plus the sorted belief vector."""

    k: int
    beliefs: Opinions
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError("k must be a positive integer")
        beliefs = tuple(to_fraction(b) for b in self.beliefs)
        object.__setattr__(self, "beliefs", beliefs)
        n = len(beliefs)
        if n < self.k + 1:
            raise ValueError(f"need at least k+1={self.k + 1} players, got {n}")
        for i in range(n - 1):
            if beliefs[i] > beliefs[i + 1]:
                raise ValueError(
                    f"beliefs must be sorted ascending; index {i} has "
                    f"{beliefs[i]} > {beliefs[i + 1]}"
                )
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != n:
                raise ValueError("labels length must equal the number of players")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return len(self.beliefs)


def as_opinions(inst: GameInstance, values: Iterable) -> Opinions:
    """Validate and convert one opinion per player."""
    z = tuple(to_fraction(v) for v in values)
    if len(z) != inst.n:
        raise ValueError(f"expected {inst.n} opinions, got {len(z)}")
    return z


@dataclass(frozen=True)
class Neighborhood:
    """The k players whose opinions sit closest to the owner's belief."""

    owner: int
    members: frozenset[int]


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def _check_index(inst: GameInstance, i: int) -> None:
    if not 0 <= i < inst.n:
        raise IndexError(f"player index {i} out of range for n={inst.n}")


def _owner(z: Sequence[int], chosen: Sequence[int], i: int, si: int, value: int) -> int:
    """Who attains an end of player i's interval: i first, then the smallest index."""
    if value == si or value == z[i]:
        return i
    return min(j for j in chosen if z[j] == value)


def _player(inst: GameInstance, z: Sequence, i: int):
    """The scale d, s and z times d, and player i's ranking with her own
    opinion as the tie reference."""
    _check_index(inst, i)
    zz = as_opinions(inst, z)
    d, ints = scaled((*inst.beliefs, *zz))
    s, zs = ints[: inst.n], ints[inst.n :]
    return d, s, zs, span(s, zs, inst.k, i, zs[i])


def neighborhood(inst: GameInstance, z: Sequence, i: int) -> Neighborhood:
    """The k players (j != i) whose opinions minimize |z_j - s_i|."""
    _, _, _, (chosen, _, _, _) = _player(inst, z, i)
    return Neighborhood(owner=i, members=frozenset(chosen))


def interval(inst: GameInstance, z: Sequence, i: int) -> tuple[Interval, int, int]:
    """Shortest interval spanning s_i, z_i, and the neighbor opinions.

    Returns the interval plus the player indices owning its endpoints
    (ties prefer the owner i, then the smallest index).
    """
    d, s, zs, (chosen, _, lo, hi) = _player(inst, z, i)
    lo, hi = min(lo, zs[i]), max(hi, zs[i])
    return (
        Interval(Fraction(lo, d), Fraction(hi, d)),
        _owner(zs, chosen, i, s[i], lo),
        _owner(zs, chosen, i, s[i], hi),
    )


def player_cost(inst: GameInstance, z: Sequence, i: int) -> Fraction:
    """max over neighbors j of max(|z_i - s_i|, |z_j - z_i|)."""
    d, _, zs, (_, _, lo, hi) = _player(inst, z, i)
    return Fraction(max(zs[i] - lo, hi - zs[i]), d)


def best_response(inst: GameInstance, z: Sequence, i: int) -> Fraction:
    """Midpoint of {s_i} and the neighbor opinions: the unique cost minimizer.

    The neighborhood depends on the other players' opinions and s_i only;
    z_i enters solely as the tie reference when two candidates are exactly
    equidistant from s_i.
    """
    d, _, _, (_, _, lo, hi) = _player(inst, z, i)
    return Fraction(lo + hi, 2 * d)


@dataclass(frozen=True)
class Violation:
    """A player who strictly improves by moving to ``best_reply``."""

    player: int
    best_reply: Fraction
    cost_drop: Fraction


@dataclass(frozen=True)
class PureVerdict:
    is_pne: bool
    violations: tuple[Violation, ...]
    tie_seen: bool

    def __bool__(self) -> bool:
        return self.is_pne


@dataclass(frozen=True)
class StructureReport:
    """Structural facts that hold at every pure Nash equilibrium."""

    monotone: bool
    in_belief_range: bool
    consecutive_neighborhoods: bool

    @property
    def all_ok(self) -> bool:
        return self.monotone and self.in_belief_range and self.consecutive_neighborhoods


@dataclass(frozen=True)
class PureCheck:
    """Everything one pass over the players decides about an opinion vector."""

    verdict: PureVerdict
    player_costs: tuple[Fraction, ...]
    social_cost: Fraction
    structure: StructureReport


def check_pure(inst: GameInstance, z: Sequence) -> PureCheck:
    """Verdict, player costs, social cost and structure of z in one pass.

    The opinions are sorted once, at the integer scale of the beliefs and
    opinions, and each player is ranked once by walking out from her belief
    through them.  From the ranking come the chosen neighbours, the
    boundary-tie flag, and the span [lo, hi] of s_i and their opinions: z_i
    is a best reply exactly when 2 z_i = lo + hi, and the player's cost is
    max(z_i - lo, hi - z_i).  The structure flags are

    - ``monotone``: z_i <= z_{i+1} wherever s_i < s_{i+1};
    - ``in_belief_range``: z_i lies between the beliefs of the owners of the
      ends of the interval spanning s_i, z_i and the neighbours' opinions
      (ties prefer i, then the smallest index);
    - ``consecutive_neighborhoods``: for every i, some window of k+1
      consecutive players containing i, together with s_i, spans exactly
      that interval.

    They are informational for arbitrary vectors; at a verified equilibrium
    all three hold.
    """
    zz = as_opinions(inst, z)
    n, k = inst.n, inst.k
    d, ints = scaled((*inst.beliefs, *zz))
    s, zs = ints[:n], ints[n:]
    view = sorted_view(zs)
    windows = [(min(zs[a : a + k + 1]), max(zs[a : a + k + 1])) for a in range(n - k)]
    costs = []
    violations = []
    tie_seen = False
    in_range = consecutive = True
    for i in range(n):
        si, zi = s[i], zs[i]
        chosen, tie, lo, hi = span(s, zs, k, i, zi, view)
        tie_seen = tie_seen or tie
        cost = max(zi - lo, hi - zi)
        costs.append(cost)
        if 2 * zi != lo + hi:
            violations.append(
                Violation(i, Fraction(lo + hi, 2 * d), Fraction(2 * cost - (hi - lo), 2 * d))
            )
        lo, hi = min(lo, zi), max(hi, zi)
        if not s[_owner(zs, chosen, i, si, lo)] <= zi <= s[_owner(zs, chosen, i, si, hi)]:
            in_range = False
        if consecutive and not any(
            min(si, wlo) == lo and max(si, whi) == hi
            for wlo, whi in windows[max(0, i - k) : min(i, n - 1 - k) + 1]
        ):
            consecutive = False
    monotone = all(zs[i] <= zs[i + 1] for i in range(n - 1) if s[i] < s[i + 1])
    return PureCheck(
        PureVerdict(not violations, tuple(violations), tie_seen),
        tuple(Fraction(c, d) for c in costs),
        Fraction(sum(costs), d),
        StructureReport(monotone, in_range, consecutive),
    )


def is_pure_nash(inst: GameInstance, z: Sequence) -> PureVerdict:
    """Exact equilibrium check: z_i must equal its best response for all i."""
    return check_pure(inst, z).verdict


def social_cost(inst: GameInstance, z: Sequence) -> Fraction:
    """Sum of the player costs."""
    return check_pure(inst, z).social_cost


def structure_report(inst: GameInstance, z: Sequence) -> StructureReport:
    """The structure flags of :func:`check_pure`."""
    return check_pure(inst, z).structure


@dataclass(frozen=True)
class DynamicsResult:
    """How a best-response run ended.

    ``outcome`` is one of:

    - ``"converged"``: ``opinions`` passed :func:`is_pure_nash`.  It is either
      a state that a full round left unchanged or the exact solution of the
      affine system of the last round's interval pattern.
    - ``"cycle"``: a full-round state repeated exactly (``period`` rounds
      apart) before any verified equilibrium was found; ``opinions`` is that
      state.
    - ``"exhausted"``: ``max_rounds`` rounds ran without either; ``opinions``
      is the last state.  This does not show that no equilibrium exists.
    """

    outcome: str  # "converged" | "cycle" | "exhausted"
    opinions: Opinions
    rounds: int
    period: Optional[int] = None


_STATE_WINDOW = 10_000  # bounded memory for cycle detection and tried patterns


def _solve_pattern(
    inst: GameInstance, pattern: Sequence[tuple[int, int]]
) -> Optional[Opinions]:
    """Exact solution of z_i = (lo_i + hi_i) / 2 for every player i.

    ``pattern[i]`` names the points at the low and high ends of player i's
    interval: a player index j for z_j, or -1 for the belief s_i.  Gaussian
    elimination over Fractions; returns None when the system is singular.
    """
    n = inst.n
    rows = []
    for i, ends in enumerate(pattern):
        row = [Fraction(0)] * (n + 1)
        row[i] = Fraction(2)
        for j in ends:
            if j < 0:
                row[n] += inst.beliefs[i]
            else:
                row[j] -= 1
        rows.append(row)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        for r in range(n):
            factor = rows[r][col] / head[col] if r != col else 0
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], head)]
    return tuple(rows[i][n] / rows[i][i] for i in range(n))


def best_response_dynamics(
    inst: GameInstance, z0: Sequence, max_rounds: int = 1_000
) -> DynamicsResult:
    """Round-robin best-response updates that end on a verified equilibrium.

    Each round replaces every opinion (in index order, in place) by the
    player's best response.  Exact updates only approach most equilibria in
    the limit, so after each round the run also solves the round's interval
    pattern exactly: which point (s_i or a neighbor's opinion) attained the
    low and high end of each player's interval.  Fixing the pattern makes
    equilibrium the affine system z_i = (lo_i + hi_i) / 2.  Each distinct
    pattern is solved once (up to a window of 10,000 remembered patterns).

    The run returns ``"converged"`` as soon as a full round changes nothing
    or a pattern's solution passes :func:`is_pure_nash`; a singular system
    or a rejected solution is ignored.  Otherwise it returns ``"cycle"`` when
    an earlier full-round state repeats exactly, and ``"exhausted"`` after
    ``max_rounds`` rounds; see :class:`DynamicsResult`.

    The state is kept as integers over one shared denominator (which doubles
    only when a midpoint is odd), so long runs stay fast; Fractions are
    reconstructed on demand.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    start = as_opinions(inst, z0)

    n, k = inst.n, inst.k
    denom, ints = scaled((*inst.beliefs, *start))
    s, z = ints[:n], ints[n:]

    def snapshot() -> Opinions:
        return tuple(Fraction(v, denom) for v in z)

    def state_key() -> bytes:
        # binary encoding: decimal conversion of huge denominators is capped
        h = hashlib.blake2b(digest_size=16)
        for v in (denom, *z):
            blob = v.to_bytes((v.bit_length() + 8) // 8 + 1, "big", signed=True)
            h.update(len(blob).to_bytes(4, "big"))
            h.update(blob)
        return h.digest()

    seen: dict[bytes, int] = {state_key(): 0}
    tried: set[tuple[tuple[int, int], ...]] = set()
    pattern: list[tuple[int, int]] = [(-1, -1)] * n

    for rounds in range(1, max_rounds + 1):
        changed = False
        for i in range(n):
            si, zi = s[i], z[i]
            # interval ends and their owners; ties keep the belief (-1)
            lo = hi = si
            lo_at = hi_at = -1
            for _, _, j in ranked(z, i, si, zi)[:k]:
                v = z[j]
                if v < lo:
                    lo, lo_at = v, j
                elif v > hi:
                    hi, hi_at = v, j
            pattern[i] = (lo_at, hi_at)
            total = lo + hi
            if total == 2 * zi:
                continue
            changed = True
            if total % 2 == 0:
                z[i] = total // 2
            else:
                # odd midpoint: double the shared denominator
                s = [2 * v for v in s]
                z = [2 * v for v in z]
                denom *= 2
                z[i] = total
        # renormalize the shared scale so equal states hash equally
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
            if len(tried) < _STATE_WINDOW:
                tried.add(frozen)
            candidate = _solve_pattern(inst, frozen)
        else:
            candidate = None
        if candidate is not None and is_pure_nash(inst, candidate).is_pne:
            return DynamicsResult("converged", candidate, rounds)
        key = state_key()
        if key in seen:
            return DynamicsResult("cycle", snapshot(), rounds, period=rounds - seen[key])
        if len(seen) < _STATE_WINDOW:
            seen[key] = rounds
    return DynamicsResult("exhausted", snapshot(), max_rounds)
