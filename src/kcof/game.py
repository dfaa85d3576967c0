"""Exact compromise games on the real line.

A game is a sorted vector of rational beliefs plus a neighborhood size k.
Each player publicly expresses an opinion; her cost is the largest distance
from her opinion to her own belief and to the opinions of the k players whose
opinions lie closest to her belief.  Her unique cost-minimizing opinion is the
midpoint of the shortest interval spanning her belief and those neighbor
opinions, which makes pure-equilibrium verification an exact midpoint test.

Inputs and results are ``fractions.Fraction`` and every comparison is exact.
Inside, a check reads the beliefs as integers from :class:`GameInstance`,
which holds them so (``s_int`` at ``scale``; ``beliefs`` is their
:class:`kcof.rationals.Scaled` view), puts the opinions on a common scale
with them (:meth:`GameInstance.at`; Python ints never overflow), sorts the
opinions once (:func:`kcof._accel.sorted_view`) and
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
opinion first and then toward the smallest index; :func:`kcof._accel.ranked`
is that rule's reference.
The ``tie_seen`` diagnostic on verdicts reports when such a boundary tie
occurred, i.e. when the verdict could depend on the tie rule at all.

:func:`best_response_dynamics` runs rounds of best replies in integers,
each update read by :func:`kcof._accel.span` from a sorted view of the
current opinions, and ends on a verified equilibrium, a repeated state or
the round cap.  Most runs without an equilibrium settle into a cycle of
interval patterns, of period up to 16, whose states tend to a limit cycle.
One certificate proves such a run stays in the cycle for good: an exact
linear recurrence of its states gives the limit, and every comparison of a
period keeps its outcome on a sup-norm box around the limit that holds all
later states.  The rounds left are then skipped by powering the
recurrence, and the result is exactly the one that running them gives, as
ints: its Fractions are made only when read.
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

from ._accel import first_unstable, ranked, sorted_view, span
from .rationals import Scaled, as_scaled

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

Opinions = Sequence[Fraction]  # a tuple, or a Scaled that reads as one


@dataclass(frozen=True)
class GameInstance:
    """Neighborhood size k plus the sorted beliefs, held as integers:
    ``s_int``, the beliefs times ``scale``, their lcm denominator.
    ``beliefs`` is their :class:`kcof.rationals.Scaled`, which reads,
    compares and hashes as the tuple of their Fractions."""

    k: int
    beliefs: Opinions
    labels: Optional[tuple[str, ...]] = None
    scale: int = field(init=False, repr=False, compare=False)
    s_int: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise ValueError("k must be a positive integer")
        beliefs = as_scaled(self.beliefs)
        g = gcd(beliefs.scale, *beliefs.ints)  # > 1 only for a Scaled over a multiple of the lcm
        if g > 1:
            beliefs = Scaled(beliefs.scale // g, [v // g for v in beliefs.ints])
        scale, s_int = beliefs.scale, beliefs.ints
        n = len(s_int)
        if n < self.k + 1:
            raise ValueError(f"need at least k+1={self.k + 1} players, got {n}")
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
        object.__setattr__(self, "beliefs", beliefs)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "s_int", s_int)

    @property
    def n(self) -> int:
        return len(self.s_int)

    def at(self, values: Iterable) -> tuple[int, list[int], list[int]]:
        """(d, the beliefs times d, the values times d) at the lcm d of
        ``scale`` and the scale of the values' :func:`kcof.rationals.as_scaled`."""
        z = as_scaled(values)
        d = lcm(self.scale, z.scale)
        f, g = d // self.scale, d // z.scale
        return d, [v * f for v in self.s_int], [v * g for v in z.ints]


def as_opinions(inst: GameInstance, values: Iterable) -> Scaled:
    """Validate and convert one opinion per player."""
    z = as_scaled(values)
    if len(z) != inst.n:
        raise ValueError(f"expected {inst.n} opinions, got {len(z)}")
    return z


def _owner(view: tuple[list[int], list[int]], i: int, value: int) -> int:
    """Who attains an end of player i's interval that is a neighbour's opinion:
    the smallest index other than i in the end's group in ``view``, since a
    group is chosen from it up."""
    vals, order = view
    a = bisect_left(vals, value)
    return order[a] if order[a] != i else order[a + 1]


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
        if in_range:
            lo_at = i if lo == si or lo == zi else _owner(view, i, lo)
            hi_at = i if hi == si or hi == zi else _owner(view, i, hi)
            in_range = s[lo_at] <= zi <= s[hi_at]
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
      When the run was proved to stay in a limit cycle (see
      :func:`best_response_dynamics`), the rounds after the proof are not
      run: ``opinions`` comes from the cycle's recurrence and is exactly
      the state that running them reaches.

    ``opinions`` is a :class:`kcof.rationals.Scaled` of the run's integer
    state, whose Fractions are made on the first read.
    """

    outcome: str  # "converged" | "cycle" | "exhausted"
    opinions: Opinions
    rounds: int
    period: Optional[int] = None


MAX_ROUNDS = 1_000_000  # a skip still builds the state after all max_rounds rounds
_STATE_WINDOW = 10_000  # bounded memory for cycle detection and tried patterns
_MAX_PERIOD = 16  # longest period of interval patterns a certificate covers
_HISTORY = 16 * _MAX_PERIOD  # rounds of states kept for the certificate's recurrence

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


def _recurrence(vectors: Sequence[Sequence[int]]) -> Optional[list[int]]:
    """Ints c_0 .. c_d, c_d > 0, of the shortest exact linear recurrence
    c_0 w_{m-d} + ... + c_d w_m = 0 of the last vectors; None if there is none.
    By fraction-free elimination from the last vector back, each row in lowest
    terms with its combination of the vectors; as w_{m-d+1} .. w_m are
    independent, c_0 and c_d are nonzero."""
    basis = []  # (pivot column, reduced row, its combination)
    for j, w in enumerate(reversed(vectors)):
        row, comb = list(w), [0] * len(vectors)
        comb[j] = 1
        for col, head, used in basis:
            f, h = row[col], head[col]
            if f:
                row = [h * a - f * b for a, b in zip(row, head)]
                comb = [h * a - f * b for a, b in zip(comb, used)]
                g = gcd(*row, *comb)
                row, comb = [a // g for a in row], [a // g for a in comb]
        if not any(row):
            return comb[j::-1] if comb[0] > 0 else [-a for a in comb[j::-1]]
        basis.append((next(c for c, a in enumerate(row) if a), row, comb))
    return None


def _inside(q: Sequence[int]) -> bool:
    """Whether every root of q lies strictly inside the unit circle, by the
    Schur-Cohn recursion on monic Fractions (in lowest terms, so their size
    grows with the degree, not twofold per step as unreduced ints would)."""
    p = [Fraction(c, q[-1]) for c in q]
    while len(p) > 1:
        if abs(p[0]) >= 1:
            return False
        p = [(a - p[0] * b) / (1 - p[0] ** 2) for a, b in zip(p[1:], reversed(p[:-1]))]
    return True


def _power(poly: list[int], exp: int) -> tuple[list[int], int]:
    """(a, t) with x**exp = (a_0 + a_1 x + ...) / c**t modulo ``poly``, ints of
    degree d >= 1 and leading coefficient c: squaring from the top bit, where
    each top term is reduced by c x**d = -(poly_0 + ... + poly_{d-1} x**(d-1))."""
    d, c = len(poly) - 1, poly[-1]
    a, t = [1], 0
    for bit in bin(exp)[2:]:
        square = [0] * (2 * len(a) - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(a):
                square[i + j] += u * v
        a, t = ([0, *square] if bit == "1" else square), 2 * t
        while len(a) > d:
            top = a.pop()
            a = [v * c for v in a]
            for i in range(d):
                a[len(a) - d + i] -= top * poly[i]
            t += 1
    return a, t


def _keeps(k: int, i: int, si: int, lo, hi, forms: Sequence, owners: tuple[int, int]) -> bool:
    """Whether player i's update has ``owners`` at every state y of the box
    lo <= y <= hi in which the players of one form differ as at lo (two of
    them with one lo value are one point, which the indices order): the k
    chosen at the centre stay strictly nearest s_i, and each owner strictly
    beyond s_i and the other chosen points on its side (-1: none may be).
    """
    mid = [a + b for a, b in zip(lo, hi)]
    chosen = [j for _, _, j in ranked(mid, i, 2 * si, mid[i])[:k]]
    far = {j: max(hi[j] - si, si - lo[j]) for j in chosen}  # the greatest |y_j - s_i|
    farthest = max(far.values(), default=0)
    for other in range(len(lo)):
        near = max(lo[other] - si, si - hi[other], 0)  # the least |y_other - s_i|
        if other != i and other not in far and near <= farthest:
            point = forms[other], lo[other]
            if any(far[j] >= near and (forms[j], lo[j]) != point for j in chosen):
                return False
    mirrored = [-v for v in hi], [-v for v in lo], -si
    for a, (lo, hi, si) in zip(owners, ((lo, hi, si), mirrored)):
        if a < 0 and any(lo[j] < si for j in chosen):
            return False
        if a >= 0 and not (a in far and hi[a] < si and all(
            a < j if (forms[a], lo[a]) == (forms[j], lo[j])
            else (lo[a] if forms[a] == forms[j] else hi[a]) < lo[j]
            for j in chosen if j != a
        )):
            return False
    return True


def _limit_cycle(
    inst: GameInstance, starts: Sequence[tuple], patterns: Sequence[tuple], left: int
) -> Optional[Scaled]:
    """The state ``left`` rounds on, if the run is proved to repeat ``patterns``
    for good; else None.

    ``starts`` are states (m, z, pattern) one period apart, the last the
    current state u: each is F of the one before, for the period's map F(x)
    = M x + b, M nonnegative with row sums <= 1.  The shortest recurrence of
    the (u_j, 1) is P = (x - 1) q.  Unless q is a power of x or has a root
    on or outside the unit circle (q(1) = 0 among them), the states tend to
    x* = sum q_i u_i / q(1) without reaching it.  F never increases sup-norm
    distances, so every later state lies, at each phase, in the box of
    radius |u - x*| around the phase's limit; each update must keep its
    owners over its box (:func:`_keeps`).  Players whose differences from
    x* are equal at u share a variable, split when a period parts them.
    The state after ``left`` rounds comes from x**J mod q.
    """
    n, s = inst.n, inst.s_int
    scale = lcm(*(m for m, _, _ in starts))
    us = [[v * (scale // m) for v in z] for m, z, _ in starts]
    poly = _recurrence([[*u, scale] for u in us])
    if poly is None:
        return None
    us = us[-len(poly) :]
    q = [sum(poly[i + 1 :]) for i in range(len(poly) - 1)]  # P / (x - 1)
    if sum(map(bool, q)) == 1 or not _inside(q):
        return None
    m = scale * sum(q)
    limit = [sum(c * u[j] for c, u in zip(q, us)) for j in range(n)]
    gaps = [[v * (m // scale) - x for v, x in zip(u, limit)] for u in us]  # u_j - x*
    group, rho = gaps[-1], max(map(abs, gaps[-1]))  # one gap, one variable; 0: at x*
    both = s + s  # the beliefs of the box's lower ends, then of its upper ends
    while True:
        spread = [rho if g else 0 for g in group]
        box = (m, [x - r for x, r in zip(limit, spread)] + [x + r for x, r in zip(limit, spread)])
        # coefficients over 2**(p n): an update halves them, and a period has p n updates
        forms = [frozenset({(g, 1 << len(patterns) * n)} if g else ()) for g in group]
        for pattern in patterns:
            for i, owners in enumerate(pattern):
                if not _keeps(inst.k, i, s[i] * box[0], box[1][:n], box[1][n:], forms, owners):
                    return None
                box = _forced(both, box, i, owners)
                box = _forced(both, box, n + i, tuple(j + n if j >= 0 else j for j in owners))
                mean: dict = {}
                for g, c in (item for j in owners if j >= 0 for item in forms[j]):
                    mean[g] = mean.get(g, 0) + c // 2
                forms[i] = frozenset(mean.items())
        ends = set(zip(group, forms))
        if len(ends) == len(set(group)) and all(g or not e for g, e in ends):
            break
        group = [(g, e) if g or e else 0 for g, e in zip(group, forms)]
    # u_J = x* + sum r_i (u_i - x*) for r = x**J mod q, as x**J mod P is 1 at x = 1
    periods, rest = divmod(left, len(patterns))
    r, t = _power(q, len(us) - 1 + periods)
    c = q[-1] ** t
    state = (m * c, [x * c + sum(a * g[j] for a, g in zip(r, gaps)) for j, x in enumerate(limit)])
    for pattern in patterns[:rest]:
        for i, owners in enumerate(pattern):
            state = _forced(s, state, i, owners)
    return Scaled(inst.scale * state[0], state[1])


def best_response_dynamics(
    inst: GameInstance, z0: Sequence, max_rounds: int = 1_000
) -> DynamicsResult:
    """Round-robin best-response updates that end on a verified equilibrium.

    Each round replaces every opinion (in index order, in place) by the
    player's best response.  An update sorts the opinions
    (:func:`kcof._accel.sorted_view`), reads the player's interval from them
    with :func:`kcof._accel.span` and each end's owner from the same view:
    s_i, else the smallest index other than i in the end's group of equal
    opinions.  Exact updates only approach most equilibria in
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

    Many runs without an equilibrium settle into a cycle of p <= 16 rounds
    whose patterns repeat while the states tend to a limit cycle.  On
    log-spaced rounds of such a streak the run tries one certificate
    (:func:`_limit_cycle`): an exact recurrence of the states one period
    apart gives the limit, and every comparison of the period keeps its
    outcome on sup-norm boxes around the limit that hold all later states.
    Then the patterns repeat for good, no state repeats, no round leaves the
    state unchanged, and every later pattern has been solved and rejected
    already.  So the run would end ``"exhausted"`` after ``max_rounds``; it
    returns that at once, with the state the recurrence gives.  A run
    without a certificate goes on round by round.

    The state is integers z over d0 * 2**e, with d0 and the beliefs s0 from
    :meth:`GameInstance.at`; the beliefs s0 << e are kept beside z.  An odd
    midpoint doubles both; after a round both are halved while e > 0 and all
    of z is even, so equal states hash equally.  The returned state is a
    :class:`kcof.rationals.Scaled` of those ints, with no Fraction built.
    """
    if not 1 <= max_rounds <= MAX_ROUNDS:
        raise ValueError(f"max_rounds {max_rounds} is outside 1 to {MAX_ROUNDS}, the dynamics cap")
    start = as_opinions(inst, z0)

    n, k = inst.n, inst.k
    d0, s, z = inst.at(start)  # s: the beliefs at the state's scale, s0 << e
    e, f = 0, d0 // inst.scale  # the history's states are over inst.scale * (f << e)

    def snapshot() -> Scaled:
        return Scaled(d0 << e, z)

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
    history: deque = deque([(f, tuple(z), None)], maxlen=_HISTORY + 1)  # (m, z, pattern)
    streak = [0] * (_MAX_PERIOD + 1)  # rounds in a row repeating the pattern p rounds back
    pattern: list[tuple[int, int]] = [(-1, -1)] * n

    for rounds in range(1, max_rounds + 1):
        changed = False
        for i in range(n):
            si, zi = s[i], z[i]
            view = sorted_view(z)
            _, lo, hi = span(s, z, k, i, zi, view)
            lo_at = -1 if lo == si else _owner(view, i, lo)
            hi_at = -1 if hi == si else _owner(view, i, hi)
            pattern[i] = lo_at, hi_at
            total = lo + hi
            if total == 2 * zi:
                continue
            changed = True
            z, doubled = _set_midpoint(z, i, total)
            if doubled:
                s, e = [2 * v for v in s], e + 1
        while e and all(v % 2 == 0 for v in z):
            z, s, e = [v // 2 for v in z], [v // 2 for v in s], e - 1
        frozen = tuple(pattern)
        candidate = None  # (d, beliefs times d, opinions times d)
        if not changed:
            candidate = d0 << e, s, z
        elif frozen not in tried:
            if len(tried) < _STATE_WINDOW:
                tried.add(frozen)
            solved = _solve_pattern(inst, frozen)
            if solved is not None:
                det, y = solved
                candidate = det * inst.scale, [v * det for v in inst.s_int], y
        if candidate is not None and first_unstable(candidate[1], candidate[2], k) < 0:
            d, _, y = candidate
            return DynamicsResult("converged", Scaled(d, y), rounds)
        key = state_key()
        if key in seen:
            return DynamicsResult("cycle", snapshot(), rounds, period=rounds - seen[key])
        if len(seen) < _STATE_WINDOW:
            seen[key] = rounds
        if rounds == max_rounds:
            break
        history.append((f << e, tuple(z), frozen))
        for p in range(1, _MAX_PERIOD + 1):
            streak[p] = streak[p] + 1 if len(history) > p and frozen == history[-1 - p][2] else 0
        # the period whose repeats reach furthest back, the shortest of those, is
        # tried on the t-th round of its streak for t = 1, 2, 4, ...: at most
        # 1 + log2(r) tries in a streak of r rounds, while its boxes shrink
        reach = [streak[p] + p if streak[p] >= p else 0 for p in range(_MAX_PERIOD + 1)]
        p = reach.index(max(reach))
        t = streak[p] - p + 1
        if p and not t & (t - 1):
            kept = list(history)
            starts = kept[-1 - min(reach[p], len(kept) - 1) // p * p :: p]
            last = _limit_cycle(inst, starts, [h[2] for h in kept[-p:]], max_rounds - rounds)
            if last is not None:
                return DynamicsResult("exhausted", last, max_rounds)
    return DynamicsResult("exhausted", snapshot(), max_rounds)
