"""Segment-decomposition solver for neighborhood-size-1 games.

In a 1-neighbor game every pure Nash equilibrium induces, for each player, a
pointer to the previous or the next player, and the pointer pattern splits the
line into blocks of consecutive players: everyone up to a pivot points right,
everyone after it points left.  Inside such a block ("segment") the midpoint
property forces unique opinions in closed form.  The solver enumerates all
candidate segments, keeps the self-consistent ("legit") ones, wires
consecutive segments into a DAG, and answers existence / best / worst /
enumeration queries as source-sink path computations; a path's total node
weight equals the social cost of the equilibrium it assembles.

Assembled vectors are always re-verified with :func:`kcof.game.is_pure_nash`
before being reported - the graph tests use non-strict comparisons, so at
exact distance ties a path may describe an equilibrium that only exists under
a different tie rule than ours.

Indices are 0-based throughout (a segment is a triple ``a <= b < c``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, Optional, Sequence

from . import _accel
from .game import GameInstance, Opinions, as_opinions

__all__ = [
    "Segment",
    "SegmentGraph",
    "build_segment",
    "build_segment_graph",
    "exists_pne",
    "best_pne",
    "worst_pne",
    "enumerate_pne",
    "brute_force_pne_oracle",
    "to_dot",
]

_ORACLE_MAX_PLAYERS = 16


def _require_k1(inst: GameInstance) -> None:
    if inst.k != 1:
        raise ValueError(f"the segment solver handles k=1 only, got k={inst.k}")


def _scale(inst: GameInstance) -> tuple[list[int], int]:
    """Beliefs as ints at a scale that keeps every segment opinion integral.

    The closed forms divide once by 3 (at the pivot) and by 2 at most n-2
    times, so beliefs * lcm(denominators) * 3 * 2**n clears everything.
    """
    base = lcm(*[b.denominator for b in inst.beliefs])
    factor = base * 3 * (1 << inst.n)
    return [int(b * factor) for b in inst.beliefs], factor


def _segment_opinions(s: Sequence[int], a: int, b: int, c: int) -> list[int]:
    """Closed-form opinions for players a..c (scaled ints, exact divisions)."""
    z = [0] * (c - a + 1)
    gap = s[b + 1] - s[b]
    z[b - a] = s[b] + gap // 3
    z[b + 1 - a] = s[b] + (2 * gap) // 3
    for p in range(b - 1, a - 1, -1):
        z[p - a] = (s[p] + z[p + 1 - a]) // 2
    for p in range(b + 2, c + 1):
        z[p - a] = (s[p] + z[p - 1 - a]) // 2
    return z


def _consistency(s: Sequence[int], z: Sequence[int], a: int, b: int, c: int) -> bool:
    """Pairwise consistency of opinions with the pointers.

    Each player's designated neighbor must be weakly closest to her belief
    among all segment members.
    """
    for p in range(a, c + 1):
        designated = p + 1 if p <= b else p - 1
        dd = abs(z[designated - a] - s[p])
        for q in range(a, c + 1):
            if q != p and abs(z[q - a] - s[p]) < dd:
                return False
    return True


@dataclass(frozen=True)
class Segment:
    """A block a..c of players pointing right up to pivot b, then left.

    ``legit`` requires the boundary condition (a != 1 and c != n-2, so the
    block can take part in a full decomposition) plus pairwise consistency.
    """

    a: int
    b: int
    c: int
    opinions: Opinions
    weight: Fraction
    legit: bool
    pairwise_consistent: bool

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


def _build_segment_scaled(
    s: Sequence[int], n: int, a: int, b: int, c: int
) -> tuple[list[int], int, bool, bool]:
    z = _segment_opinions(s, a, b, c)
    weight = sum(abs(z[p - a] - s[p]) for p in range(a, c + 1))
    pairwise = _consistency(s, z, a, b, c)
    boundary_ok = a != 1 and c != n - 2
    return z, weight, boundary_ok and pairwise, pairwise


def build_segment(inst: GameInstance, a: int, b: int, c: int) -> Segment:
    """Compute one segment's forced opinions, weight, and legitimacy."""
    _require_k1(inst)
    if not 0 <= a <= b < c < inst.n:
        raise ValueError(f"need 0 <= a <= b < c < n, got ({a}, {b}, {c}) with n={inst.n}")
    s_int, factor = _scale(inst)
    z, weight, legit, pairwise = _build_segment_scaled(s_int, inst.n, a, b, c)
    return Segment(
        a=a,
        b=b,
        c=c,
        opinions=tuple(Fraction(v, factor) for v in z),
        weight=Fraction(weight, factor),
        legit=legit,
        pairwise_consistent=pairwise,
    )


@dataclass(frozen=True)
class SegmentGraph:
    """DAG over legit segments; source-sink paths assemble into equilibria."""

    n: int
    segments: tuple[Segment, ...]
    successors: tuple[tuple[int, ...], ...]
    start_ids: tuple[int, ...]  # segments with a == 0 (edges from the source)
    end_ids: tuple[int, ...]  # segments with c == n-1 (edges to the sink)
    _s_int: tuple[int, ...]
    _z_int: tuple[tuple[int, ...], ...]
    _w_int: tuple[int, ...]
    _factor: int


def build_segment_graph(inst: GameInstance) -> SegmentGraph:
    """Enumerate all O(n^3) candidate segments and wire the legit ones."""
    _require_k1(inst)
    n = inst.n
    s_int, factor = _scale(inst)

    triples: list[tuple[int, int, int]] = []
    z_rows: list[list[int]] = []
    weights: list[int] = []
    segs: list[Segment] = []
    for a in range(n - 1):
        if a == 1:
            continue  # boundary condition can never hold
        for b in range(a, n - 1):
            for c in range(b + 1, n):
                if c == n - 2:
                    continue
                z, w, legit, pairwise = _build_segment_scaled(s_int, n, a, b, c)
                if not legit:
                    continue
                triples.append((a, b, c))
                z_rows.append(z)
                weights.append(w)
                segs.append(
                    Segment(
                        a=a,
                        b=b,
                        c=c,
                        opinions=tuple(Fraction(v, factor) for v in z),
                        weight=Fraction(w, factor),
                        legit=True,
                        pairwise_consistent=pairwise,
                    )
                )

    by_start: dict[int, list[int]] = {}
    for idx, (a, _, _) in enumerate(triples):
        by_start.setdefault(a, []).append(idx)

    successors: list[tuple[int, ...]] = []
    for u, (a, b, c) in enumerate(triples):
        if c == n - 1:
            successors.append(())
            continue
        zu = z_rows[u]
        outs = []
        for v in by_start.get(c + 1, ()):
            av = triples[v][0]
            zv = z_rows[v]
            # player c keeps pointing at c-1, player a' keeps pointing at a'+1
            ok_left = abs(zu[c - 1 - a] - s_int[c]) <= abs(zv[0] - s_int[c])
            ok_right = abs(zv[1] - s_int[av]) <= abs(zu[c - a] - s_int[av])
            if ok_left and ok_right:
                outs.append(v)
        successors.append(tuple(outs))

    start_ids = tuple(i for i, (a, _, _) in enumerate(triples) if a == 0)
    end_ids = tuple(i for i, (_, _, c) in enumerate(triples) if c == n - 1)
    return SegmentGraph(
        n=n,
        segments=tuple(segs),
        successors=tuple(successors),
        start_ids=start_ids,
        end_ids=end_ids,
        _s_int=tuple(s_int),
        _z_int=tuple(tuple(z) for z in z_rows),
        _w_int=tuple(weights),
        _factor=factor,
    )


def _reaches_end(graph: SegmentGraph) -> list[bool]:
    n = graph.n
    order = sorted(range(len(graph.segments)), key=lambda u: -graph.segments[u].a)
    reach = [False] * len(graph.segments)
    for u in order:
        if graph.segments[u].c == n - 1:
            reach[u] = True
        else:
            reach[u] = any(reach[v] for v in graph.successors[u])
    return reach


def exists_pne(inst: GameInstance) -> bool:
    """Whether the segment DAG has any source-sink path."""
    graph = build_segment_graph(inst)
    reach = _reaches_end(graph)
    return any(reach[u] for u in graph.start_ids)


def _completion_bounds(graph: SegmentGraph, maximize: bool) -> list[Optional[int]]:
    """Best achievable weight from each node to a sink, node weight included."""
    better = max if maximize else min
    comp: list[Optional[int]] = [None] * len(graph.segments)
    order = sorted(range(len(graph.segments)), key=lambda u: -graph.segments[u].a)
    for u in order:
        w = graph._w_int[u]
        if graph.segments[u].c == graph.n - 1:
            comp[u] = w
            continue
        child = [comp[v] for v in graph.successors[u] if comp[v] is not None]
        if child:
            comp[u] = w + better(child)
    return comp


def _ordered_paths(
    graph: SegmentGraph, maximize: bool
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield (total weight, path) best-first; ties by lexicographic triples.

    A* over the DAG with the exact completion bound as heuristic, so paths
    come out in exact weight order with polynomial delay.
    """
    comp = _completion_bounds(graph, maximize)
    sign = -1 if maximize else 1
    heap: list[tuple[int, tuple[tuple[int, int, int], ...], int, int]] = []
    for u in graph.start_ids:
        if comp[u] is None:
            continue
        heapq.heappush(heap, (sign * comp[u], (graph.segments[u].triple,), u, graph._w_int[u]))
    while heap:
        _, triples, u, acc = heapq.heappop(heap)
        if graph.segments[u].c == graph.n - 1:
            yield acc, triples
            continue
        for v in graph.successors[u]:
            if comp[v] is None:
                continue
            nacc = acc + graph._w_int[v]
            prio = sign * (nacc + comp[v] - graph._w_int[v])
            heapq.heappush(heap, (prio, triples + (graph.segments[v].triple,), v, nacc))


def _assemble(graph: SegmentGraph, triples: Sequence[tuple[int, int, int]]) -> list[int]:
    index = {graph.segments[u].triple: u for u in range(len(graph.segments))}
    out: list[int] = []
    for t in triples:
        out.extend(graph._z_int[index[t]])
    return out


def _passes(graph: SegmentGraph, z_int: Sequence[int]) -> bool:
    return _accel.first_unstable(list(graph._s_int), list(z_int), 1) == -1


def _extreme_pne(
    inst: GameInstance, maximize: bool
) -> Optional[tuple[Opinions, Fraction]]:
    graph = build_segment_graph(inst)
    for weight, triples in _ordered_paths(graph, maximize):
        z_int = _assemble(graph, triples)
        if _passes(graph, z_int):
            f = graph._factor
            return tuple(Fraction(v, f) for v in z_int), Fraction(weight, f)
    return None


def best_pne(inst: GameInstance) -> Optional[tuple[Opinions, Fraction]]:
    """Minimum social-cost equilibrium, or None when none exists."""
    _require_k1(inst)
    return _extreme_pne(inst, maximize=False)


def worst_pne(inst: GameInstance) -> Optional[tuple[Opinions, Fraction]]:
    """Maximum social-cost equilibrium, or None when none exists."""
    _require_k1(inst)
    return _extreme_pne(inst, maximize=True)


def enumerate_pne(inst: GameInstance, limit: int) -> list[tuple[Opinions, Fraction]]:
    """Up to ``limit`` distinct equilibria via depth-first path enumeration.

    Distinct decompositions of degenerate instances can assemble the same
    vector; duplicates are dropped.  Every returned vector has passed the
    exact equilibrium check.
    """
    _require_k1(inst)
    if limit < 1:
        raise ValueError("limit must be >= 1")
    graph = build_segment_graph(inst)
    reach = _reaches_end(graph)
    found: list[tuple[Opinions, Fraction]] = []
    seen: set[tuple[int, ...]] = set()
    f = graph._factor

    stack: list[tuple[int, tuple[int, ...], int]] = []
    for u in sorted(graph.start_ids, key=lambda u: graph.segments[u].triple, reverse=True):
        if reach[u]:
            stack.append((u, (u,), graph._w_int[u]))
    while stack and len(found) < limit:
        u, path, acc = stack.pop()
        if graph.segments[u].c == graph.n - 1:
            z_int = tuple(v for seg in path for v in graph._z_int[seg])
            if z_int not in seen:
                seen.add(z_int)
                if _passes(graph, z_int):
                    found.append(
                        (tuple(Fraction(v, f) for v in z_int), Fraction(acc, f))
                    )
            continue
        for v in sorted(
            (v for v in graph.successors[u] if reach[v]),
            key=lambda v: graph.segments[v].triple,
            reverse=True,
        ):
            stack.append((v, path + (v,), acc + graph._w_int[v]))
    return found


def brute_force_pne_oracle(inst: GameInstance) -> list[Opinions]:
    """Independent oracle: try all 2^(n-2) pointer assignments.

    Player 0 must point right and player n-1 left; every other player points
    at an adjacent player.  Each assignment decomposes uniquely into segments,
    whose closed forms give a candidate vector; candidates passing the exact
    equilibrium check are returned (deduplicated, sorted).

    Shares nothing with the graph machinery beyond the forced closed forms.
    """
    _require_k1(inst)
    n = inst.n
    if n > _ORACLE_MAX_PLAYERS:
        raise ValueError(f"oracle supports n <= {_ORACLE_MAX_PLAYERS}, got {n}")
    s_int, factor = _scale(inst)
    s_list = list(s_int)

    results: set[tuple[int, ...]] = set()
    for mask in range(1 << (n - 2)):
        # directions[i] True = points right; players 0 / n-1 forced
        directions = [True] + [bool(mask >> t & 1) for t in range(n - 2)] + [False]
        z = [0] * n
        a = 0
        while a < n:
            # each block is a run of right-pointers then a run of left-pointers
            b = a
            while directions[b + 1]:  # safe: directions[n-1] is False
                b += 1
            c = b + 1
            while c + 1 < n and not directions[c + 1]:
                c += 1
            z[a : c + 1] = _segment_opinions(s_list, a, b, c)
            a = c + 1
        if _accel.first_unstable(s_list, z, 1) == -1:
            results.add(tuple(z))
    return [tuple(Fraction(v, factor) for v in z) for z in sorted(results)]


def to_dot(graph: SegmentGraph) -> str:
    """DOT rendering of the segment DAG (debugging aid)."""
    lines = ["digraph segments {", "  source [shape=box];", "  sink [shape=box];"]

    def name(u: int) -> str:
        a, b, c = graph.segments[u].triple
        return f"seg_{a}_{b}_{c}"

    for u, seg in enumerate(graph.segments):
        label = f"C({seg.a},{seg.b},{seg.c}) w={seg.weight}"
        lines.append(f'  {name(u)} [label="{label}"];')
    for u in graph.start_ids:
        lines.append(f"  source -> {name(u)};")
    for u, outs in enumerate(graph.successors):
        for v in outs:
            lines.append(f"  {name(u)} -> {name(v)};")
    for u in graph.end_ids:
        lines.append(f"  {name(u)} -> sink;")
    lines.append("}")
    return "\n".join(lines)
