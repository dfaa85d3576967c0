"""Exact reference for the k-nearest-neighbour compromise game, apart from kcof.

Everything here is ``fractions.Fraction`` arithmetic on plain tuples; nothing
is imported from the package under test.  The benchmark checks every answer
the program gives against these functions.

The rules, as documented by the program and the paper:

- Player i picks as neighbours the k other players whose opinions lie
  closest to her belief s_i.  Distance ties break toward her own opinion
  z_i, then toward the smaller index.
- Her cost is the largest distance from z_i to s_i and to each neighbour's
  opinion; the social cost is the sum of the player costs.
- Her unique best response is the midpoint of the smallest interval holding
  s_i and the neighbours' opinions, so z is a pure Nash equilibrium exactly
  when every z_i equals that midpoint.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Sequence

Vector = tuple[Fraction, ...]


def neighbours(s: Sequence[Fraction], z: Sequence[Fraction], k: int, i: int) -> list[int]:
    """The k players chosen by player i under the documented tie rule."""
    others = [j for j in range(len(s)) if j != i]
    others.sort(key=lambda j: (abs(z[j] - s[i]), abs(z[j] - z[i]), j))
    return others[:k]


def player_cost(s: Sequence[Fraction], z: Sequence[Fraction], k: int, i: int) -> Fraction:
    cost = abs(z[i] - s[i])
    for j in neighbours(s, z, k, i):
        cost = max(cost, abs(z[j] - z[i]))
    return cost


def social_cost(s: Sequence[Fraction], z: Sequence[Fraction], k: int) -> Fraction:
    return sum((player_cost(s, z, k, i) for i in range(len(s))), Fraction(0))


def best_response(s: Sequence[Fraction], z: Sequence[Fraction], k: int, i: int) -> Fraction:
    points = [s[i]] + [z[j] for j in neighbours(s, z, k, i)]
    return (min(points) + max(points)) / 2


def is_equilibrium(s: Sequence[Fraction], z: Sequence[Fraction], k: int) -> bool:
    """The midpoint test: every opinion is its owner's best response."""
    return all(z[i] == best_response(s, z, k, i) for i in range(len(s)))


def solve_pointer_pattern(s: Sequence[Fraction], right: Sequence[bool]) -> Vector:
    """Exact solution of z_i = (s_i + z_p(i)) / 2 for a k=1 pointer pattern.

    ``right[i]`` says player i points at i+1, otherwise at i-1 (player 0
    must point right, player n-1 left).  Two players pointing at each other
    form a 2-cycle with the closed solution (2 s_b + s_c) / 3; every other
    player hangs on a chain that ends in such a cycle, so back-substitution
    along the chains solves the system.
    """
    n = len(s)
    z: list[Fraction | None] = [None] * n
    for b in range(n - 1):
        if right[b] and not right[b + 1]:
            z[b] = (2 * s[b] + s[b + 1]) / 3
            z[b + 1] = (s[b] + 2 * s[b + 1]) / 3
    for i in range(n - 1, -1, -1):
        if z[i] is None and right[i] and z[i + 1] is not None:
            z[i] = (s[i] + z[i + 1]) / 2
    for i in range(n):
        if z[i] is None and not right[i] and z[i - 1] is not None:
            z[i] = (s[i] + z[i - 1]) / 2
    assert all(v is not None for v in z), "pointer chains must end in a 2-cycle"
    return tuple(z)  # type: ignore[arg-type]


def k1_equilibria(s: Sequence[Fraction]) -> list[Vector]:
    """Every pure equilibrium of a k=1 game, by all 2^(n-2) pointer patterns.

    At an equilibrium each player's interval is spanned by her belief and an
    adjacent player's opinion, so each equilibrium solves some pattern's
    system; the midpoint test keeps exactly the patterns whose solution is one.
    """
    s = tuple(Fraction(v) for v in s)
    n = len(s)
    found: set[Vector] = set()
    for inner in product((True, False), repeat=n - 2):
        right = (True, *inner, False)
        z = solve_pointer_pattern(s, right)
        if z in found or _someone_strictly_closer(s, z, right):
            continue
        if is_equilibrium(s, z, 1):
            found.add(z)
    return sorted(found)


def _someone_strictly_closer(s: Vector, z: Vector, right: Sequence[bool]) -> bool:
    """Cheap exact rejection: some player's pointer target is not her nearest
    opinion, so her interval (and best response) differs from the pattern's."""
    for i in range(len(s)):
        d = abs(z[i + 1 if right[i] else i - 1] - s[i])
        if any(abs(z[j] - s[i]) < d for j in range(len(s)) if j != i):
            return True
    return False


def window_bound(s: Sequence[Fraction], k: int) -> Fraction:
    """Sum over players of the narrowest k+1 consecutive beliefs holding them,
    divided by 2(k+1): a lower bound on every vector's social cost."""
    n = len(s)
    total = Fraction(0)
    for i in range(n):
        total += min(s[a + k] - s[a] for a in range(max(0, i - k), min(i, n - 1 - k) + 1))
    return total / (2 * (k + 1))


def nearest_belief_bound(s: Sequence[Fraction]) -> Fraction:
    """k=1 only: a third of the summed distances to the nearest adjacent belief."""
    n = len(s)
    total = Fraction(0)
    for i in range(n):
        total += min(abs(s[i] - s[j]) for j in (i - 1, i + 1) if 0 <= j < n)
    return total / 3


def expected_social_cost(
    s: Sequence[Fraction], supports: Sequence[Sequence[tuple[Fraction, Fraction]]], k: int
) -> Fraction:
    """Exact expectation over the product of independent finite supports."""
    total = Fraction(0)
    for combo in product(*supports):
        prob = Fraction(1)
        for _, p in combo:
            prob *= p
        total += prob * social_cost(s, [v for v, _ in combo], k)
    return total
