"""Spans around calls into kcof's modules, recorded from outside the program.

:class:`Tracer` replaces chosen module attributes with wrappers.  Every kcof
module that holds the same function object (``from .game import
is_pure_nash``) gets the wrapper too, and calls through a module global
resolve it at call time, so internal calls are caught as well.  Each call
records a span ``[name, start, end, parent]`` in memory; a layer's time is
the self time of its spans (duration minus the time of child spans).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Optional


def _dynamics(result, counts: Counter) -> None:
    counts["game.dynamics_rounds"] += result.rounds
    counts["game.dynamics_converged"] += result.outcome == "converged"


def _graph(graph, counts: Counter) -> None:
    counts["segments.legit_segments"] += len(graph.segments)
    counts["segments.edges"] += sum(len(out) for out in graph.successors)


def _candidates(result, counts: Counter) -> None:
    counts["optimize.candidates"] += len(result)


# (module, attribute, span name or None for a count-only hook, result observer)
HOOKS: tuple[tuple[str, str, Optional[str], Optional[Callable]], ...] = (
    ("kcof.cli", "main", "cli.main", None),
    ("kcof.instance_io", "load_instance", "instance_io.load", None),
    ("kcof.catalog", "catalog", "catalog.build", None),
    ("kcof.game", "is_pure_nash", "game.is_pure_nash", None),
    ("kcof.game", "player_cost", "game.player_cost", None),
    ("kcof.game", "structure_report", "game.structure_report", None),
    ("kcof.game", "best_response_dynamics", "game.dynamics", _dynamics),
    ("kcof.segments", "build_segment_graph", "segments.build_graph", _graph),
    ("kcof.segments", "best_pne", "segments.extreme", None),
    ("kcof.segments", "worst_pne", "segments.extreme", None),
    ("kcof.segments", "enumerate_pne", "segments.enumerate", None),
    ("kcof.optimize", "optimize_social_cost", "optimize.optimize", None),
    ("kcof.optimize", "candidate_opinions", None, _candidates),
    ("kcof._accel", "coordinate_best", "kernels.coordinate_best", None),
    ("kcof._accel", "social_cost", "kernels.social_cost", None),
    ("kcof._accel", "first_unstable", "kernels.first_unstable", None),
    ("kcof.bounds", "poa_bracket", "bounds.poa_bracket", None),
    ("kcof.mixed", "is_mixed_nash", "mixed.is_mixed_nash", None),
    ("kcof.mixed", "expected_social_cost", "mixed.expected_social_cost", None),
)

# metric name -> (span name, "self_s" | "calls")
SPAN_METRICS = {
    "cli.self_s": ("cli.main", "self_s"),
    "instance_io.load_s": ("instance_io.load", "self_s"),
    "instance_io.load_calls": ("instance_io.load", "calls"),
    "catalog.build_s": ("catalog.build", "self_s"),
    "game.is_pure_nash_s": ("game.is_pure_nash", "self_s"),
    "game.is_pure_nash_calls": ("game.is_pure_nash", "calls"),
    "game.player_cost_s": ("game.player_cost", "self_s"),
    "game.player_cost_calls": ("game.player_cost", "calls"),
    "game.structure_report_s": ("game.structure_report", "self_s"),
    "game.dynamics_s": ("game.dynamics", "self_s"),
    "segments.build_graph_s": ("segments.build_graph", "self_s"),
    "segments.build_graph_calls": ("segments.build_graph", "calls"),
    "segments.extreme_self_s": ("segments.extreme", "self_s"),
    "segments.enumerate_self_s": ("segments.enumerate", "self_s"),
    "optimize.self_s": ("optimize.optimize", "self_s"),
    "optimize.calls": ("optimize.optimize", "calls"),
    "kernels.coordinate_best_s": ("kernels.coordinate_best", "self_s"),
    "kernels.coordinate_best_calls": ("kernels.coordinate_best", "calls"),
    "kernels.social_cost_s": ("kernels.social_cost", "self_s"),
    "kernels.social_cost_calls": ("kernels.social_cost", "calls"),
    "kernels.first_unstable_s": ("kernels.first_unstable", "self_s"),
    "kernels.first_unstable_calls": ("kernels.first_unstable", "calls"),
    "bounds.poa_bracket_self_s": ("bounds.poa_bracket", "self_s"),
    "mixed.is_mixed_nash_s": ("mixed.is_mixed_nash", "self_s"),
    "mixed.expected_social_cost_s": ("mixed.expected_social_cost", "self_s"),
}
COUNT_METRICS = (
    "game.dynamics_rounds",
    "game.dynamics_converged",
    "segments.legit_segments",
    "segments.edges",
    "optimize.candidates",
    "mixed.realizations",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: Optional[str], observe: Optional[Callable]) -> Callable:
        spans, counts, stack = self.spans, self.counts, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                span = [name, clock(), 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
            if observe is not None:
                observe(result, counts)
            return result

        return traced

    def _count_realizations(self, product: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            for item in product(*args, **kwargs):
                counts["mixed.realizations"] += 1
                yield item

        return counted

    def _replace(self, original: object, wrapper: object) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "kcof" and not mod_name.startswith("kcof."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def install(self) -> None:
        for mod_name, attr, name, observe in HOOKS:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                print(f"trace: {mod_name}.{attr} not found; its metrics read 0", file=sys.stderr)
                continue
            self._replace(original, self._wrap(original, name, observe))
        mixed = sys.modules.get("kcof.mixed")
        if mixed is not None and hasattr(mixed, "product"):
            # the product iterator enumerates the mixed realizations
            original = mixed.product
            mixed.product = self._count_realizations(original)
            self._patched.append((mixed, "product", original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def mark(self) -> tuple[int, Counter]:
        """Position to measure from: spans and counts recorded so far."""
        return len(self.spans), Counter(self.counts)

    def totals(self, since: tuple[int, Counter], runs: int = 1) -> dict[str, float]:
        """Per-run self time and call count per span name, plus counts."""
        first, counts_before = since
        child = defaultdict(float)
        for name, start, end, parent in self.spans[first:]:
            if parent >= first:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for idx in range(first, len(self.spans)):
            name, start, end, _ = self.spans[idx]
            self_s[name] += end - start - child[idx]
            calls[name] += 1
        out = {}
        for metric, (span, kind) in SPAN_METRICS.items():
            out[metric] = (self_s[span] if kind == "self_s" else calls[span]) / runs
        for metric in COUNT_METRICS:
            out[metric] = (self.counts[metric] - counts_before[metric]) / runs
        return out

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans}) + "\n", encoding="utf-8")
