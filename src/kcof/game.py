"""Exact compromise games on the real line.

A game is a sorted vector of rational beliefs plus a neighborhood size k.
Each player publicly expresses an opinion; her cost is the largest distance
from her opinion to her own belief and to the opinions of the k players whose
opinions lie closest to her belief.  Her unique cost-minimizing opinion is the
midpoint of the shortest interval spanning her belief and those neighbor
opinions, which makes pure-equilibrium verification an exact midpoint test.

All values are ``fractions.Fraction`` and every comparison is exact.  Distance
ties when ranking neighbor candidates break toward the player's own opinion
first and then toward the smallest index; that rule is defined once, in
:func:`kcof._accel.ranked`, which this module and the integer kernels share.
The ``tie_seen`` diagnostic on verdicts reports when such a boundary tie
occurred, i.e. when the verdict could depend on the tie rule at all.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

from ._accel import ranked
from .rationals import to_fraction

__all__ = [
    "GameInstance",
    "Neighborhood",
    "Interval",
    "PureVerdict",
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


def _chosen(inst: GameInstance, z: Sequence[Fraction], i: int) -> tuple[list[int], bool]:
    """Neighbor indices for player i plus a boundary-tie diagnostic."""
    order = ranked(z, i, inst.beliefs[i], z[i])
    k = inst.k
    tie = len(order) > k and order[k - 1][0] == order[k][0]
    return [j for _, _, j in order[:k]], tie


def neighborhood(inst: GameInstance, z: Sequence, i: int) -> Neighborhood:
    """The k players (j != i) whose opinions minimize |z_j - s_i|."""
    _check_index(inst, i)
    zz = as_opinions(inst, z)
    chosen, _ = _chosen(inst, zz, i)
    return Neighborhood(owner=i, members=frozenset(chosen))


def interval(inst: GameInstance, z: Sequence, i: int) -> tuple[Interval, int, int]:
    """Shortest interval spanning s_i, z_i, and the neighbor opinions.

    Returns the interval plus the player indices owning its endpoints
    (ties prefer the owner i, then the smallest index).
    """
    _check_index(inst, i)
    zz = as_opinions(inst, z)
    chosen, _ = _chosen(inst, zz, i)
    points = [(inst.beliefs[i], i), (zz[i], i)] + [(zz[j], j) for j in chosen]
    lo = min(v for v, _ in points)
    hi = max(v for v, _ in points)

    def owner(value: Fraction) -> int:
        owners = [j for v, j in points if v == value]
        return i if i in owners else min(owners)

    return Interval(lo, hi), owner(lo), owner(hi)


def player_cost(inst: GameInstance, z: Sequence, i: int) -> Fraction:
    """max over neighbors j of max(|z_i - s_i|, |z_j - z_i|)."""
    _check_index(inst, i)
    zz = as_opinions(inst, z)
    chosen, _ = _chosen(inst, zz, i)
    cost = abs(zz[i] - inst.beliefs[i])
    for j in chosen:
        cost = max(cost, abs(zz[j] - zz[i]))
    return cost


def social_cost(inst: GameInstance, z: Sequence) -> Fraction:
    return sum((player_cost(inst, z, i) for i in range(inst.n)), Fraction(0))


def best_response(inst: GameInstance, z: Sequence, i: int) -> Fraction:
    """Midpoint of {s_i} and the neighbor opinions: the unique cost minimizer.

    The neighborhood depends on the other players' opinions and s_i only;
    z_i enters solely as the tie reference when two candidates are exactly
    equidistant from s_i.
    """
    _check_index(inst, i)
    zz = as_opinions(inst, z)
    chosen, _ = _chosen(inst, zz, i)
    values = [inst.beliefs[i]] + [zz[j] for j in chosen]
    return (min(values) + max(values)) / 2


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


def is_pure_nash(inst: GameInstance, z: Sequence) -> PureVerdict:
    """Exact equilibrium check: z_i must equal its best response for all i."""
    zz = as_opinions(inst, z)
    violations = []
    tie_seen = False
    for i in range(inst.n):
        chosen, tie = _chosen(inst, zz, i)
        tie_seen = tie_seen or tie
        values = [inst.beliefs[i]] + [zz[j] for j in chosen]
        lo, hi = min(values), max(values)
        reply = (lo + hi) / 2
        if zz[i] != reply:
            standing = max(abs(zz[i] - inst.beliefs[i]), *(abs(zz[j] - zz[i]) for j in chosen))
            violations.append(Violation(i, reply, standing - (hi - lo) / 2))
    return PureVerdict(not violations, tuple(violations), tie_seen)


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
    trajectory: Optional[tuple[Opinions, ...]] = None


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
    inst: GameInstance,
    z0: Sequence,
    schedule: Optional[Sequence[int]] = None,
    max_rounds: int = 1_000,
    record_trajectory: bool = False,
) -> DynamicsResult:
    """Round-robin best-response updates that end on a verified equilibrium.

    Each round replaces every opinion (in schedule order, in place) by the
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
    ``max_rounds`` rounds; see :class:`DynamicsResult`.  With
    ``record_trajectory`` the trajectory holds the start and the state after
    each round, plus the solved vector when the run ends on a pattern solve.

    The state is kept as integers over one shared denominator (which doubles
    only when a midpoint is odd), so long runs stay fast; Fractions are
    reconstructed on demand.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    order = list(range(inst.n)) if schedule is None else list(schedule)
    if sorted(order) != list(range(inst.n)):
        raise ValueError("schedule must be a permutation of all players")
    start = as_opinions(inst, z0)

    denom = lcm(*[q.denominator for q in (*inst.beliefs, *start)])
    s = [int(q * denom) for q in inst.beliefs]
    z = [int(q * denom) for q in start]
    n, k = inst.n, inst.k

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

    def result(outcome: str, opinions: Opinions, rounds: int, period=None) -> DynamicsResult:
        if record_trajectory and trajectory[-1] != opinions:
            trajectory.append(opinions)
        return DynamicsResult(
            outcome, opinions, rounds, period=period,
            trajectory=tuple(trajectory) if record_trajectory else None,
        )

    trajectory = [snapshot()] if record_trajectory else None
    seen: dict[bytes, int] = {state_key(): 0}
    tried: set[tuple[tuple[int, int], ...]] = set()
    pattern: list[tuple[int, int]] = [(-1, -1)] * n

    for rounds in range(1, max_rounds + 1):
        changed = False
        for i in order:
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
        if record_trajectory:
            trajectory.append(snapshot())
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
            return result("converged", candidate, rounds)
        key = state_key()
        if key in seen:
            return result("cycle", snapshot(), rounds, period=rounds - seen[key])
        if len(seen) < _STATE_WINDOW:
            seen[key] = rounds
    return result("exhausted", snapshot(), max_rounds)


@dataclass(frozen=True)
class StructureReport:
    """Structural facts that hold at every pure Nash equilibrium."""

    monotone: bool
    in_belief_range: bool
    consecutive_neighborhoods: bool

    @property
    def all_ok(self) -> bool:
        return self.monotone and self.in_belief_range and self.consecutive_neighborhoods


def structure_report(inst: GameInstance, z: Sequence) -> StructureReport:
    """Check opinion monotonicity, belief-range containment, and whether each
    player's interval is spanned by some window of k+1 consecutive players.

    Informational for arbitrary vectors; at a verified equilibrium all three
    hold.
    """
    zz = as_opinions(inst, z)
    s = inst.beliefs
    n, k = inst.n, inst.k

    monotone = all(
        zz[i] <= zz[i + 1] for i in range(n - 1) if s[i] < s[i + 1]
    )

    in_range = True
    consecutive = True
    for i in range(n):
        box, lo_owner, hi_owner = interval(inst, zz, i)
        if not (s[lo_owner] <= zz[i] <= s[hi_owner]):
            in_range = False
        found = False
        for a in range(max(0, i - k), min(i, n - 1 - k) + 1):
            window = zz[a : a + k + 1]
            if min(s[i], *window) == box.lo and max(s[i], *window) == box.hi:
                found = True
                break
        if not found:
            consecutive = False
    return StructureReport(monotone, in_range, consecutive)
