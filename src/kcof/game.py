"""Exact compromise games on the real line.

A game is a sorted vector of rational beliefs plus a neighborhood size k.
Each player publicly expresses an opinion; her cost is the largest distance
from her opinion to her own belief and to the opinions of the k players whose
opinions lie closest to her belief.  Her unique cost-minimizing opinion is the
midpoint of the shortest interval spanning her belief and those neighbor
opinions, which makes pure-equilibrium verification an exact midpoint test.

Inputs and results are ``fractions.Fraction`` and every comparison is exact.
Inside, a check reads the beliefs as integers from :class:`GameInstance`,
which scales them once (``s_int`` at ``scale``), puts the opinions on a
common scale with them (:meth:`GameInstance.at`; Python ints never
overflow), sorts the opinions once (:func:`kcof._accel.sorted_view`) and
ranks each player once with :func:`kcof._accel.span`, the one place that
applies the neighbour tie rule and takes the interval spanning s_i and the
chosen opinions.  It walks out from s_i through the sorted values, one
group of equal values at a time, until k opinions are taken, so
:func:`check_pure` takes the verdict, the player costs, the social cost and
the structure flags from one pass in O(n k log n) for n players (a walk
finds at most k + 2 groups, by one bisection each), not a sort of n - 1
keys per player.  A player's cost, best reply and structure flags are read
from its result, which keeps the costs as ints at the check's scale; the
extremes of every window of k + 1 consecutive players are taken once, and a
False structure flag is not tested again.  The two views of the pass are
:func:`is_pure_nash` and :func:`social_cost`.

Distance ties when ranking neighbor candidates break toward the player's own
opinion first and then toward the smallest index (:func:`kcof._accel.ranked`).
The ``tie_seen`` diagnostic on verdicts reports when such a boundary tie
occurred, i.e. when the verdict could depend on the tie rule at all.

:func:`best_response_dynamics` runs rounds of best replies in integers and
ends on a verified equilibrium, a repeated state or the round cap.  Many
runs without an equilibrium settle within a few rounds into a cycle of at
most four interval patterns whose state shrinks toward a limit cycle by one
exact ratio per period.  Such a run is proved to stay in the cycle for good:
every comparison a round makes is linear along the segment from the next
period to the limit, and a certificate checks that each has the same
outcome at both ends.  The rounds left are then skipped by a closed form,
and the result is exactly the one that running them gives.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from ._accel import first_unstable, ranked, scaled, sorted_view, span
from .rationals import to_fraction

__all__ = [
    "GameInstance",
    "PureVerdict",
    "PureCheck",
    "Violation",
    "DynamicsResult",
    "StructureReport",
    "as_opinions",
    "social_cost",
    "is_pure_nash",
    "check_pure",
    "best_response_dynamics",
    "MAX_ROUNDS",
]

Opinions = tuple[Fraction, ...]


@dataclass(frozen=True)
class GameInstance:
    """Neighborhood size k plus the sorted belief vector, and the beliefs as
    integers: ``s_int``, the beliefs times ``scale``, their lcm denominator."""

    k: int
    beliefs: Opinions
    labels: Optional[tuple[str, ...]] = None
    scale: int = field(init=False, repr=False, compare=False)
    s_int: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise ValueError("k must be a positive integer")
        beliefs = tuple(b if type(b) is Fraction else to_fraction(b) for b in self.beliefs)
        object.__setattr__(self, "beliefs", beliefs)
        n = len(beliefs)
        if n < self.k + 1:
            raise ValueError(f"need at least k+1={self.k + 1} players, got {n}")
        scale, s_int = scaled(beliefs)
        for i in range(n - 1):
            if s_int[i] > s_int[i + 1]:
                raise ValueError(
                    f"beliefs must be sorted ascending; index {i} has "
                    f"{beliefs[i]} > {beliefs[i + 1]}"
                )
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != n:
                raise ValueError("labels length must equal the number of players")
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "s_int", tuple(s_int))

    @property
    def n(self) -> int:
        return len(self.beliefs)

    def at(self, values: Sequence[Fraction]) -> tuple[int, list[int], list[int]]:
        """(d, the beliefs times d, the values times d) at the lcm d of
        ``scale`` and the values' denominators."""
        d, ints = scaled((Fraction(1, self.scale), *values))
        return d, [v * ints[0] for v in self.s_int], ints[1:]


def as_opinions(inst: GameInstance, values: Iterable) -> Opinions:
    """Validate and convert one opinion per player."""
    z = tuple(v if type(v) is Fraction else to_fraction(v) for v in values)
    if len(z) != inst.n:
        raise ValueError(f"expected {inst.n} opinions, got {len(z)}")
    return z


def _owner(view: tuple[list[int], list[int]], i: int, si: int, zi: int, value: int) -> int:
    """Who attains an end of player i's interval: i first, then the smallest
    index of the end's group in ``view``, since a group is chosen from it up."""
    if value == si or value == zi:
        return i
    vals, order = view
    return order[bisect_left(vals, value)]


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
    """Everything one pass over the players decides about an opinion vector.

    The player costs are kept as ints: player i's cost is ``costs[i] / scale``.
    """

    verdict: PureVerdict
    scale: int
    costs: tuple[int, ...]
    structure: StructureReport

    @property
    def player_costs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.scale) for c in self.costs)

    @property
    def social_cost(self) -> Fraction:
        return Fraction(sum(self.costs), self.scale)


def check_pure(inst: GameInstance, z: Sequence) -> PureCheck:
    """Verdict, player costs, social cost and structure of z in one pass.

    The opinions are sorted once, at the integer scale of the beliefs and
    opinions, and each player is ranked once by walking out from her belief
    through them.  From the walk come the boundary-tie flag and the span
    [lo, hi] of s_i and the chosen neighbours' opinions: z_i is a best reply
    exactly when z_i - lo = hi - z_i, and the player's cost is the larger of
    the two.  The structure flags are

    - ``monotone``: z_i <= z_{i+1} wherever s_i < s_{i+1};
    - ``in_belief_range``: z_i lies between the beliefs of the owners of the
      ends of the interval spanning s_i, z_i and the neighbours' opinions
      (ties prefer i, then the smallest index);
    - ``consecutive_neighborhoods``: for every i, some window of k+1
      consecutive players containing i, together with s_i, spans exactly
      that interval.

    They are informational for arbitrary vectors; at a verified equilibrium
    all three hold.  Every window's extremes are taken once, by C-level maps
    over k + 1 shifted iterators of the opinions; a player tests the at most
    k + 1 windows that hold her, and a False flag is not tested again.
    """
    zz = as_opinions(inst, z)
    n, k = inst.n, inst.k
    d, s, zs = inst.at(zz)
    view = sorted_view(zs)
    # windows[a]: the extremes of z_a..z_{a+k}; shift j yields each window's (j+1)-th
    # member, and the shifts are iterators, so this holds O(n + k) values, not O(n k)
    least = map(min, *[islice(zs, j, None) for j in range(k + 1)])
    most = map(max, *[islice(zs, j, None) for j in range(k + 1)])
    windows = list(zip(least, most))
    costs = []
    violations = []
    tie_seen = False
    in_range = consecutive = True
    for i in range(n):
        si, zi = s[i], zs[i]
        tie, lo, hi = span(s, zs, k, i, zi, view)
        tie_seen = tie_seen or tie
        below, above = zi - lo, hi - zi
        costs.append(below if below > above else above)
        if below != above:
            violations.append(
                Violation(i, Fraction(lo + hi, 2 * d), Fraction(abs(below - above), 2 * d))
            )
        if below < 0:
            lo = zi
        if above < 0:
            hi = zi
        if in_range and not s[_owner(view, i, si, zi, lo)] <= zi <= s[_owner(view, i, si, zi, hi)]:
            in_range = False
        if consecutive:
            # a window holding i lies in [lo, hi] and, with s_i, reaches both ends
            for wlo, whi in windows[i - k if i > k else 0 : i + 1]:
                if wlo >= lo and whi <= hi and (wlo == lo or si == lo) and (whi == hi or si == hi):
                    break
            else:
                consecutive = False
    monotone = all(zs[i] <= zs[i + 1] for i in range(n - 1) if s[i] < s[i + 1])
    return PureCheck(
        PureVerdict(not violations, tuple(violations), tie_seen),
        d,
        tuple(costs),
        StructureReport(monotone, in_range, consecutive),
    )


def is_pure_nash(inst: GameInstance, z: Sequence) -> PureVerdict:
    """Exact equilibrium check: z_i must equal its best response for all i."""
    return check_pure(inst, z).verdict


def social_cost(inst: GameInstance, z: Sequence) -> Fraction:
    """Sum of the player costs."""
    return check_pure(inst, z).social_cost


@dataclass(frozen=True)
class DynamicsResult:
    """How a best-response run ended.

    ``outcome`` is one of:

    - ``"converged"``: ``opinions`` passed the test of :func:`is_pure_nash`,
      run on ints by :func:`kcof._accel.first_unstable`.  It is either
      a state that a full round left unchanged or the exact solution of the
      affine system of the last round's interval pattern.
    - ``"cycle"``: a full-round state repeated exactly (``period`` rounds
      apart) before any verified equilibrium was found; ``opinions`` is that
      state.
    - ``"exhausted"``: ``max_rounds`` rounds ran without either; ``opinions``
      is the last state.  This does not show that no equilibrium exists.
      When the run was proved to settle into a shrinking cycle (see
      :func:`best_response_dynamics`), the rounds after the proof are not
      run: ``opinions`` comes from a closed form and is exactly the state
      that running them reaches.
    """

    outcome: str  # "converged" | "cycle" | "exhausted"
    opinions: Opinions
    rounds: int
    period: Optional[int] = None


MAX_ROUNDS = 1_000_000  # a skip still builds the state after all max_rounds rounds
_STATE_WINDOW = 10_000  # bounded memory for cycle detection and tried patterns
_MAX_PERIOD = 4  # longest period of interval patterns tested for a shrinking cycle

_State = tuple[int, Sequence[int]]  # (m, opinions times inst.scale * m)


def _solve_pattern(
    inst: GameInstance, pattern: Sequence[tuple[int, int]]
) -> Optional[tuple[int, list[int]]]:
    """Exact solution of z_i = (lo_i + hi_i) / 2 for every player i, as (det, y)
    in lowest terms, with det > 0 and z_i = y_i / (det * inst.scale).

    ``pattern[i]`` names the points at the low and high ends of player i's
    interval: a player index j for z_j, or -1 for the belief s_i.  The system
    2 z_i - (those points) = (those beliefs) is solved at the beliefs' lcm
    scale by sparse elimination over ints.  A row is a {column: coefficient}
    dict with the right-hand side in column n.  At column c with pivot h,
    only the rows below that hold c change, each to h row - f head divided
    by the gcd of its entries.  Each row has 2 on the diagonal and entries
    <= 0 off it, at most 2 in absolute value in all.  Elimination without
    row swaps keeps that weak diagonal dominance and those signs, so every
    pivot is >= 0 and a zero pivot comes with a zero row: no swaps are
    needed, and the function returns None exactly when the system is
    singular.  Back-substitution keeps y over one common denominator, which
    each pivot raises only by the factor that does not divide its
    numerator.
    """
    n, s = inst.n, inst.s_int
    rows = []
    for i, ends in enumerate(pattern):
        row = {i: 2, n: 0}
        for j in ends:
            if j < 0:
                row[n] += s[i]
            else:
                row[j] = row.get(j, 0) - 1
        rows.append(row)
    pivots = []
    for c in range(n):
        head = rows[c]
        h = head.pop(c, 0)
        if not h:
            return None
        pivots.append(h)
        for row in rows[c + 1 :]:
            f = row.pop(c, 0)
            if not f:
                continue
            for j in row:
                row[j] *= h
            for j, a in head.items():
                row[j] = row.get(j, 0) - f * a
            g = gcd(*row.values())
            if g > 1:
                for j in row:
                    row[j] //= g
    det, y = 1, [0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        num = row.pop(n) * det - sum(a * y[j] for j, a in row.items())
        g = gcd(num, pivots[i])
        if pivots[i] > g:
            f = pivots[i] // g
            det *= f
            y = [v * f for v in y]
        y[i] = num // g
    g = gcd(det, *y)
    return det // g, [v // g for v in y]


def _interval(z: Sequence[int], si: int, order: Sequence[tuple], k: int):
    """(lo, hi, (lo_at, hi_at)): the span of s_i and the opinions of the first
    k players of ``order``, and who attains its ends (-1 for s_i; ties keep
    the belief, then the earlier player)."""
    lo = hi = si
    lo_at = hi_at = -1
    for _, _, j in order[:k]:
        v = z[j]
        if v < lo:
            lo, lo_at = v, j
        elif v > hi:
            hi, hi_at = v, j
    return lo, hi, (lo_at, hi_at)


def _set_midpoint(z: list[int], i: int, total: int) -> tuple[list[int], bool]:
    """Set z_i = total / 2, doubling the scale of z first if total is odd; (z, doubled)."""
    if total % 2 == 0:
        z[i] = total // 2
        return z, False
    z = [2 * v for v in z]
    z[i] = total
    return z, True


def _forced(s: Sequence[int], state: _State, i: int, owners: tuple[int, int]) -> _State:
    """Player i's update of the state (m, z) with its interval's owners given (-1: s_i * m)."""
    m, z = state
    z, doubled = _set_midpoint(z, i, sum(z[j] if j >= 0 else s[i] * m for j in owners))
    return m << doubled, z


def _ratio(new: _State, mid: _State, old: _State) -> Optional[tuple[int, int]]:
    """(a, b) in lowest terms with new - mid = (a/b) (mid - old) != 0 and 0 < a < b.

    The differences are put on one integer scale and compared coordinate by
    coordinate by cross-multiplication, which stops at the first mismatch.
    """
    scale = lcm(new[0], mid[0], old[0])
    fn, fm, fo = scale // new[0], scale // mid[0], scale // old[0]
    a = b = 0
    for u, v, w in zip(new[1], mid[1], old[1]):
        d, e = u * fn - v * fm, v * fm - w * fo
        if b:
            if d * b != a * e:
                return None
        elif e:
            a, b = (d, e) if e > 0 else (-d, -e)
            if not 0 < a < b:
                return None
        elif d:
            return None
    if not b:
        return None
    g = gcd(a, b)
    return a // g, b // g


def _signs(si: int, z: Sequence[int], i: int, chosen: Sequence[int]) -> list[int]:
    """Signs of z_j - s_i and z_j - z_i (every j) and z_j - z_l (j, l chosen)."""
    zi = z[i]
    return (
        [(v > si) - (v < si) for v in z]
        + [(v > zi) - (v < zi) for v in z]
        + [(z[j] > z[l]) - (z[j] < z[l]) for j in chosen for l in chosen]
    )


def _agree(k: int, first: tuple, second: tuple, i: int, owners: tuple[int, int]) -> bool:
    """Whether player i's update has the given owners everywhere between two states.

    ``first`` and ``second`` are (s_i, z) at one integer scale each.  Player
    i's full ranking must order the other players alike at both, the owners
    at ``first`` must be ``owners``, and z_j - s_i, z_j - z_i (every j) and
    z_j - z_l (j, l among the k chosen) must each have the same sign (-, 0
    or +) at both.  Each of these is linear between the states, so then it
    keeps its sign in between, every absolute value in a ranking key is
    linear there, and two keys in the same order at both ends are in that
    order throughout: every comparison of the update has one outcome.
    """
    (sa, za), (sb, zb) = first, second
    order = ranked(za, i, sa, za[i])
    if [j for _, _, j in order] != [j for _, _, j in ranked(zb, i, sb, zb[i])]:
        return False
    chosen = [j for _, _, j in order[:k]]
    return (
        _interval(za, sa, order, k)[2] == owners
        and _signs(sa, za, i, chosen) == _signs(sb, zb, i, chosen)
    )


def _certify(
    inst: GameInstance, ends: tuple[_State, _State], patterns: Sequence[Sequence[tuple[int, int]]]
) -> bool:
    """Whether the patterns repeat at every state on the segment between two ends.

    Both ends run one period with the patterns forced, and every update
    must pass :func:`_agree` between them.
    """
    s = inst.s_int
    runs = [(m, list(z)) for m, z in ends]
    for pattern in patterns:
        for i, owners in enumerate(pattern):
            (ma, za), (mb, zb) = runs
            if not _agree(inst.k, (s[i] * ma, za), (s[i] * mb, zb), i, owners):
                return False
            runs = [_forced(s, run, i, owners) for run in runs]
    return True


class _CycleWatch:
    """Proves, after a round, that a run has settled into a shrinking cycle.

    For a period p, when the last two periods used the same patterns and
    d = x_r - x_{r-p} = lambda (x_{r-p} - x_{r-2p}) with d != 0 and
    0 < lambda < 1, d is an eigenvector of the affine map of one period:
    while the patterns repeat, x_{r+jp} = x_r + d lambda (1 - lambda^j) /
    (1 - lambda).  :func:`_certify` proves that they repeat for good, from
    the next period to the limit x_r + d lambda / (1 - lambda).

    The work is bounded.  A round costs a comparison of its pattern with
    the one p rounds back, for each p.  While the patterns repeat, each
    phase's d is the one-period linear map applied to the d before it; after
    n periods it has lost any component that the map sends to 0, so if it is
    no eigenvector by then, it never becomes one.  So a streak of repeating
    patterns is tested only on its t-th testable round (the p-th round of
    the streak is the first) for t = 1, 2, 4, 8, ... and on its last, t =
    p (n + 1), and its tests end when a certificate fails: at most
    2 + log2(p (n + 1)) ratio tests per streak.  That bounds the work per
    streak, not per run, since a run can break and restart many streaks.
    A streak that testing every round would certify on its t-th testable
    round is certified by its 2t-th or its last: while the patterns repeat,
    an eigenvector d stays one, and a certificate that holds on a segment
    holds on each later, shorter one.  A (p, patterns) whose certificate
    failed is not certified again.
    """

    def __init__(self, inst: GameInstance, m: int, z: Sequence[int]) -> None:
        self.inst = inst
        self.history: deque = deque([(m, tuple(z), None)], maxlen=2 * _MAX_PERIOD + 1)
        self.streak = [0] * (_MAX_PERIOD + 1)  # rounds repeating the pattern p rounds back
        self.due = [1] * (_MAX_PERIOD + 1)  # the streak's next testable round to test; 0: none
        self.refused: set = set()

    def skip(self, m: int, z: Sequence[int], pattern: tuple, left: int) -> Optional[Opinions]:
        """Record a round's state (m, z); the state ``left`` rounds on once a cycle is proved."""
        history, streak, due = self.history, self.streak, self.due
        history.append((m, tuple(z), pattern))
        for p in range(1, _MAX_PERIOD + 1):
            if len(history) <= p or pattern != history[-1 - p][2]:
                streak[p] = 0
                due[p] = 1
                continue
            streak[p] += 1
            t, end = streak[p] - p + 1, p * (self.inst.n + 1)
            if t != due[p]:
                continue
            due[p] = min(2 * t, end) if t < end else 0
            mid, old = history[-1 - p], history[-1 - 2 * p]
            rate = _ratio(history[-1][:2], mid[:2], old[:2])
            if rate is None:
                continue
            key = (p, tuple(history[m][2] for m in range(-p, 0)))
            last = None if key in self.refused else self._certified(key[1], mid, rate, left)
            if last is not None:
                return last
            due[p] = 0
            if len(self.refused) < _STATE_WINDOW:
                self.refused.add(key)
        return None

    def _certified(
        self, patterns: tuple, mid: tuple, rate: tuple[int, int], left: int
    ) -> Optional[Opinions]:
        """The state ``left`` rounds on if the certificate holds, else None."""
        m, z, _ = self.history[-1]
        a, b = rate
        scale = lcm(m, mid[0])
        f, g = scale // m, scale // mid[0]
        step = [u * f - v * g for u, v in zip(z, mid[1])]  # d, at scale
        limit = (scale * (b - a), [u * f * (b - a) + a * e for u, e in zip(z, step)])
        if not _certify(self.inst, ((m, z), limit), patterns):
            return None
        p = len(patterns)
        periods, q = divmod(left, p)
        bj = b**periods
        c = a * (bj - a**periods) // (b - a)  # b^j (lambda + ... + lambda^j)
        state = (scale * bj, [u * f * bj + c * e for u, e in zip(z, step)])
        for pattern in patterns[:q]:
            for i, owners in enumerate(pattern):
                state = _forced(self.inst.s_int, state, i, owners)
        m, z = state
        return tuple(Fraction(v, self.inst.scale * m) for v in z)


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
    or a pattern's solution passes :func:`kcof._accel.first_unstable` at its
    own integer scale; a positive common scale changes no order and no
    midpoint test, so the verdict is that of :func:`is_pure_nash`.  A
    singular system or a rejected solution is ignored.  Otherwise it returns
    ``"cycle"`` when an earlier full-round state repeats exactly, and
    ``"exhausted"`` after ``max_rounds`` rounds, at most :data:`MAX_ROUNDS`;
    see :class:`DynamicsResult`.

    Many runs without an equilibrium settle into a cycle of p rounds whose
    patterns repeat while the state shrinks toward a limit cycle by one
    exact ratio lambda per period.  After each round the run tests every
    period p <= 4: the last two periods used the same patterns and
    x_r - x_{r-p} = lambda (x_{r-p} - x_{r-2p}) != 0 with 0 < lambda < 1.
    Then, while the patterns repeat, the state just before each player's
    update moves along a segment, from its value in the next period to its
    limit.  The certificate checks, at both ends of each of the p n
    segments, that the ranking, the interval's owners and the signs of all
    the differences they compare agree (see :func:`_certify`).  Each of
    those differences is linear along the segment, so every comparison a
    round makes keeps its outcome: the patterns repeat for good.  Every
    round then moves the state; no state repeats, since a repeat would make
    the distinct states x_{r+jp} periodic; and every later pattern has been
    solved and rejected already.  So the run would end ``"exhausted"``
    after ``max_rounds``, and it returns that at once, with the state from
    the closed form x_r + d lambda (1 - lambda^j) / (1 - lambda) followed by
    the remaining q < p rounds of the patterns.  Each (p, patterns) is
    certified at most once; a run without a certificate goes on round by
    round.

    The state is integers z over d0 * 2**e, with d0 and the beliefs s0 from
    :meth:`GameInstance.at`, belief i read as s0_i << e.  An odd midpoint
    doubles z; after a round z is halved while e > 0 and all of it is even,
    so equal states hash equally.  Fractions are built only for the
    returned state.
    """
    if not 1 <= max_rounds <= MAX_ROUNDS:
        raise ValueError(f"max_rounds {max_rounds} is outside 1 to {MAX_ROUNDS}, the dynamics cap")
    start = as_opinions(inst, z0)

    n, k = inst.n, inst.k
    d0, s0, z = inst.at(start)
    e, f = 0, d0 // inst.scale  # the watch's states are over inst.scale * (f << e)

    def snapshot() -> Opinions:
        return tuple(Fraction(v, d0 << e) for v in z)

    def state_key() -> bytes:
        # binary encoding: decimal conversion of huge numerators is capped
        h = hashlib.blake2b(digest_size=16)
        for v in (e, *z):
            blob = v.to_bytes((v.bit_length() + 8) // 8 + 1, "big", signed=True)
            h.update(len(blob).to_bytes(4, "big"))
            h.update(blob)
        return h.digest()

    seen: dict[bytes, int] = {state_key(): 0}
    tried: set[tuple[tuple[int, int], ...]] = set()
    watch = _CycleWatch(inst, f, z)
    pattern: list[tuple[int, int]] = [(-1, -1)] * n

    for rounds in range(1, max_rounds + 1):
        changed = False
        for i in range(n):
            si, zi = s0[i] << e, z[i]
            lo, hi, pattern[i] = _interval(z, si, ranked(z, i, si, zi), k)
            total = lo + hi
            if total == 2 * zi:
                continue
            changed = True
            z, doubled = _set_midpoint(z, i, total)
            e += doubled
        while e and all(v % 2 == 0 for v in z):
            z = [v // 2 for v in z]
            e -= 1
        frozen = tuple(pattern)
        candidate = None  # (d, beliefs times d, opinions times d)
        if not changed:
            candidate = d0 << e, [v << e for v in s0], z
        elif frozen not in tried:
            if len(tried) < _STATE_WINDOW:
                tried.add(frozen)
            solved = _solve_pattern(inst, frozen)
            if solved is not None:
                det, y = solved
                candidate = det * inst.scale, [v * det for v in inst.s_int], y
        if candidate is not None and first_unstable(candidate[1], candidate[2], k) < 0:
            d, _, y = candidate
            return DynamicsResult("converged", tuple(Fraction(v, d) for v in y), rounds)
        key = state_key()
        if key in seen:
            return DynamicsResult("cycle", snapshot(), rounds, period=rounds - seen[key])
        if len(seen) < _STATE_WINDOW:
            seen[key] = rounds
        if rounds < max_rounds:
            last = watch.skip(f << e, z, frozen, max_rounds - rounds)
            if last is not None:
                return DynamicsResult("exhausted", last, max_rounds)
    return DynamicsResult("exhausted", snapshot(), max_rounds)
