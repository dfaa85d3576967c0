"""Segment-decomposition solver for neighborhood-size-1 games.

In a 1-neighbor game every pure Nash equilibrium induces, for each player, a
pointer to the previous or the next player, and the pointer pattern splits the
line into blocks of consecutive players: everyone up to a pivot points right,
everyone after it points left.  Inside such a block ("segment") the midpoint
property forces unique opinions in closed form.  Those opinions depend on the
pivot only, so every segment with pivot b is a slice of one non-decreasing
chain of opinions, grown outward from b only as far as its members keep
their pointers; the self-consistent ("legit") segments follow in O(n) plus
the output (:func:`build_segment_graph`).
The solver wires consecutive legit segments into a DAG and answers existence /
best / worst / enumeration queries as source-sink path computations; a path's
total node weight equals the social cost of the equilibrium it assembles.
Each query function takes the built graph, so one build (and one completion
pass per direction, kept on the graph) serves them all.
All of it runs on integers: the instance's integer beliefs (``s_int`` of
:class:`kcof.game.GameInstance`) times 3 * 2**n, which makes every closed
form exact, and each :class:`Segment` stores its opinions and weight at
that scale once; their ``Fraction`` values are made only when read.

Assembled vectors are re-verified before being reported, once per graph (the
graph keeps the vectors that passed), by the integer equilibrium test
:func:`kcof._accel.first_unstable` on the graph's integer scale - the graph
tests use non-strict comparisons, so at exact distance ties a path may
describe an equilibrium that only exists under a different tie rule than
ours.  That test applies the tie rule of
:func:`kcof._accel.ranked`, as :func:`kcof.game.is_pure_nash` does: it sorts
the vector's opinions once and, through :func:`kcof._accel.span`, walks out
from each belief to the nearest group of equal opinions on either side, so
a re-check costs one sort and a few bisections per player, with no key
tuples and no sort per player.  :func:`brute_force_pne_oracle` checks its candidates the
same way.

Indices are 0-based throughout (a segment is a triple ``a <= b < c``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from . import _accel
from .game import GameInstance, Opinions

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
    times, so the instance's ``scale`` times 3 * 2**n clears everything.
    """
    extra = 3 << inst.n
    return [v * extra for v in inst.s_int], inst.scale * extra


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

    ``z_int`` holds the opinions of players a..c and ``w_int`` the weight
    (the sum of |z_p - s_p|), both times ``scale``; :attr:`opinions` and
    :attr:`weight` are their exact values, made on access.  Every segment is
    legit: a != 1 and c != n-2, so the block can take part in a full
    decomposition, and each member's designated neighbour is weakly closest
    to her belief among the members.
    """

    a: int
    b: int
    c: int
    z_int: tuple[int, ...]
    w_int: int
    scale: int

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    @property
    def opinions(self) -> Opinions:
        return tuple(Fraction(v, self.scale) for v in self.z_int)

    @property
    def weight(self) -> Fraction:
        return Fraction(self.w_int, self.scale)


def build_segment(inst: GameInstance, a: int, b: int, c: int) -> Optional[Segment]:
    """Segment (a, b, c) from its closed forms, or None when it is not legit.

    The per-triple reference that :func:`build_segment_graph` is tested
    against: it checks every pair of members (:func:`_consistency`).
    """
    _require_k1(inst)
    if not 0 <= a <= b < c < inst.n:
        raise ValueError(f"need 0 <= a <= b < c < n, got ({a}, {b}, {c}) with n={inst.n}")
    s_int, scale = _scale(inst)
    z = _segment_opinions(s_int, a, b, c)
    if a == 1 or c == inst.n - 2 or not _consistency(s_int, z, a, b, c):
        return None
    w = sum(abs(z[p - a] - s_int[p]) for p in range(a, c + 1))
    return Segment(a, b, c, tuple(z), w, scale)


@dataclass(frozen=True)
class SegmentGraph:
    """DAG over legit segments; source-sink paths assemble into equilibria."""

    n: int
    segments: tuple[Segment, ...]
    successors: tuple[tuple[int, ...], ...]
    start_ids: tuple[int, ...]  # segments with a == 0 (edges from the source)
    end_ids: tuple[int, ...]  # segments with c == n-1 (edges to the sink)
    s_int: tuple[int, ...]  # the beliefs at the segments' scale
    _completions: dict[bool, list[Optional[int]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _verified: set[tuple[int, ...]] = field(
        default_factory=set, init=False, repr=False, compare=False
    )

    def completions(self, maximize: bool) -> list[Optional[int]]:
        """:func:`_completion_bounds` of this graph, computed once per direction."""
        if maximize not in self._completions:
            self._completions[maximize] = _completion_bounds(self, maximize)
        return self._completions[maximize]


def build_segment_graph(inst: GameInstance) -> SegmentGraph:
    """Find every legit segment by walking out from each pivot, and wire them.

    A segment's closed forms do not depend on a or c, so segment (a, b, c) is
    the slice a..c of one chain per pivot b.  Left of the pivot z_p lies
    between s_p and z_{p+1}, right of it between z_{p-1} and s_p, so for
    sorted beliefs the chain is non-decreasing (exactly: the scale makes every
    division exact), and only a member farther from the pivot can break a
    pointer: q < p breaks left player p's iff z_q > 2 s_p - z_{p+1} (at a tie
    z_q = z_{p+1} the bound is z_q), and the mirror holds right of b.  So the
    sides are independent, and each grows only while its new member keeps its
    neighbour's pointer: as z_{p+2} = 2 z_{p+1} - s_{p+1}, a bound of p above
    that of p+1 would put z_p above the latter, so kept bounds fall leftward
    and rise rightward.  The legit segments of pivot b are all (a, b, c)
    between the two reaches, weighed by a sum per side.  An edge test reads
    only the two opinions at the boundary, so it is made once per (b, c) of
    the left segment and pivot b' of the right one.  Cost: O(n) n-bit integer
    operations plus the output.  Ids follow the triples' lexicographic order.
    """
    _require_k1(inst)
    n = inst.n
    s_int, scale = _scale(inst)

    # found[a]: (b, c, opinions, weight) in (b, c) order
    found: list[list[tuple[int, int, tuple[int, ...], int]]] = [[] for _ in range(n)]
    for b in range(n - 1):
        gap = s_int[b + 1] - s_int[b]
        # the chain of _segment_opinions, grown out from b: left[i] = z_{b-i},
        # right[i] = z_{b+1+i}, and wl[i], wr[i] the weights of those i + 1 players
        left, right = [s_int[b] + gap // 3], [s_int[b] + (2 * gap) // 3]
        wl, wr = [left[0] - s_int[b]], [s_int[b + 1] - right[0]]
        bound = 2 * s_int[b] - right[0]
        for p in range(b - 1, -1, -1):
            z = (s_int[p] + left[-1]) // 2
            if z > bound:
                break
            bound = 2 * s_int[p] - left[-1]
            left.append(z)
            wl.append(wl[-1] + z - s_int[p])
        bound = 2 * s_int[b + 1] - left[0]
        for p in range(b + 2, n):
            z = (s_int[p] + right[-1]) // 2
            if z < bound:
                break
            bound = 2 * s_int[p] - right[-1]
            right.append(z)
            wr.append(wr[-1] + s_int[p] - z)
        chain = left[::-1] + right
        lo = b + 1 - len(left)
        for a in range(b, lo - 1, -1):
            if a != 1:
                found[a].extend(
                    (b, c, tuple(chain[a - lo : c - lo + 1]), wl[b - a] + wr[c - b - 1])
                    for c in range(b + 1, b + 1 + len(right))
                    if c != n - 2
                )

    segs: list[Segment] = []
    # starts[a]: per pivot b of the segments at a, (b, z_a, z_{a+1}, their ids)
    starts: list[list[tuple[int, int, int, list[int]]]] = [[] for _ in range(n)]
    for a in range(n):
        for b, c, z, w in found[a]:
            if not starts[a] or starts[a][-1][0] != b:
                starts[a].append((b, z[0], z[1], []))
            starts[a][-1][3].append(len(segs))
            segs.append(Segment(a, b, c, z, w, scale))

    out_of: dict[tuple[int, int], tuple[int, ...]] = {}
    successors: list[tuple[int, ...]] = []
    for seg in segs:
        c, z = seg.c, seg.z_int
        key = (seg.b, c)
        if c == n - 1:
            successors.append(())
            continue
        if key not in out_of:
            # player c keeps pointing at c-1, player c+1 keeps pointing at c+2
            pointer_c = abs(z[c - 1 - seg.a] - s_int[c])
            across_c = abs(z[c - seg.a] - s_int[c + 1])
            outs: list[int] = []
            for _, z0, z1, ids in starts[c + 1]:
                if pointer_c <= abs(z0 - s_int[c]) and abs(z1 - s_int[c + 1]) <= across_c:
                    outs.extend(ids)
            out_of[key] = tuple(outs)
        successors.append(out_of[key])

    return SegmentGraph(
        n=n,
        segments=tuple(segs),
        successors=tuple(successors),
        start_ids=tuple(u for u, seg in enumerate(segs) if seg.a == 0),
        end_ids=tuple(u for u, seg in enumerate(segs) if seg.c == n - 1),
        s_int=tuple(s_int),
    )


def exists_pne(graph: SegmentGraph) -> bool:
    """Whether the segment DAG has any source-sink path."""
    comp = graph.completions(maximize=False)
    return any(comp[u] is not None for u in graph.start_ids)


def _completion_bounds(graph: SegmentGraph, maximize: bool) -> list[Optional[int]]:
    """Best achievable weight from each node to a sink, node weight included.

    ``None`` marks a node that reaches no sink.  Segments with equal (b, c)
    share one successor tuple, so the best completion after a segment is
    taken once per (b, c).
    """
    better = max if maximize else min
    comp: list[Optional[int]] = [None] * len(graph.segments)
    shared: dict[tuple[int, int], Optional[int]] = {}
    for u in range(len(graph.segments) - 1, -1, -1):
        seg = graph.segments[u]
        if seg.c == graph.n - 1:
            comp[u] = seg.w_int
            continue
        key = (seg.b, seg.c)
        if key not in shared:
            child = [comp[v] for v in graph.successors[u] if comp[v] is not None]
            shared[key] = better(child) if child else None
        after = shared[key]
        if after is not None:
            comp[u] = seg.w_int + after
    return comp


def _ordered_paths(
    graph: SegmentGraph, maximize: bool
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield (total weight, path of segment ids) best-first.

    Ties go to the lexicographically smaller path; ids follow the triples, so
    that is also the smaller sequence of triples.  A* over the DAG with the
    exact completion bound as heuristic, so paths come out in exact weight
    order with polynomial delay.
    """
    comp = graph.completions(maximize)
    segs = graph.segments
    sign = -1 if maximize else 1
    heap: list[tuple[int, tuple[int, ...], int]] = []
    for u in graph.start_ids:
        if comp[u] is None:
            continue
        heapq.heappush(heap, (sign * comp[u], (u,), segs[u].w_int))
    while heap:
        _, path, acc = heapq.heappop(heap)
        u = path[-1]
        if segs[u].c == graph.n - 1:
            yield acc, path
            continue
        for v in graph.successors[u]:
            if comp[v] is None:
                continue
            nacc = acc + segs[v].w_int
            prio = sign * (nacc + comp[v] - segs[v].w_int)
            heapq.heappush(heap, (prio, path + (v,), nacc))


def _passes(graph: SegmentGraph, z_int: tuple[int, ...]) -> bool:
    """The exact equilibrium check, made once per graph for each vector that passes."""
    if z_int not in graph._verified:
        if _accel.first_unstable(graph.s_int, z_int, 1) != -1:
            return False
        graph._verified.add(z_int)
    return True


def _extreme_pne(graph: SegmentGraph, maximize: bool) -> Optional[tuple[Opinions, Fraction]]:
    for weight, path in _ordered_paths(graph, maximize):
        z_int = tuple(v for u in path for v in graph.segments[u].z_int)
        if _passes(graph, z_int):
            scale = graph.segments[path[0]].scale
            return tuple(Fraction(v, scale) for v in z_int), Fraction(weight, scale)
    return None


def best_pne(graph: SegmentGraph) -> Optional[tuple[Opinions, Fraction]]:
    """Minimum social-cost equilibrium, or None when none exists."""
    return _extreme_pne(graph, maximize=False)


def worst_pne(graph: SegmentGraph) -> Optional[tuple[Opinions, Fraction]]:
    """Maximum social-cost equilibrium, or None when none exists."""
    return _extreme_pne(graph, maximize=True)


def enumerate_pne(graph: SegmentGraph, limit: int) -> list[tuple[Opinions, Fraction]]:
    """Up to ``limit`` distinct equilibria via depth-first path enumeration.

    Distinct decompositions of degenerate instances can assemble the same
    vector; duplicates are dropped.  The stack holds the opinions assembled so
    far.  Segments with equal (b, c) share one successor tuple, and an equal
    prefix of opinions gives equal completions, so a (b, c, opinions so far)
    triple is expanded once: when a repeat pops, the depth-first order has
    already explored the same subtree, so skipping it changes neither the
    results nor their order, and n equal beliefs (2^(n-2) paths, one
    equilibrium) take polynomial time.  Every returned vector has passed the
    exact equilibrium check on this graph, and its opinions share one
    ``Fraction`` per distinct value.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    reach = [c is not None for c in graph.completions(maximize=False)]
    found: list[tuple[Opinions, Fraction]] = []
    values: dict[int, Fraction] = {}
    seen: set[tuple[int, ...]] = set()
    expanded: set[tuple[int, int, tuple[int, ...]]] = set()
    segs = graph.segments

    stack = [(u, segs[u].z_int, segs[u].w_int) for u in reversed(graph.start_ids) if reach[u]]
    while stack and len(found) < limit:
        u, z_int, acc = stack.pop()
        seg = segs[u]
        if seg.c == graph.n - 1:
            if z_int not in seen:
                seen.add(z_int)
                if _passes(graph, z_int):
                    f = seg.scale
                    for v in z_int:
                        if v not in values:
                            values[v] = Fraction(v, f)
                    found.append((tuple(map(values.__getitem__, z_int)), Fraction(acc, f)))
            continue
        key = (seg.b, seg.c, z_int)
        if key in expanded:
            continue
        expanded.add(key)
        for v in reversed(graph.successors[u]):
            if reach[v]:
                stack.append((v, z_int + segs[v].z_int, acc + segs[v].w_int))
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
    s_int, scale = _scale(inst)

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
            z[a : c + 1] = _segment_opinions(s_int, a, b, c)
            a = c + 1
        if _accel.first_unstable(s_int, z, 1) == -1:
            results.add(tuple(z))
    return [tuple(Fraction(v, scale) for v in z) for z in sorted(results)]


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
