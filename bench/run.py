#!/usr/bin/env python3
"""Benchmark of kcof through its command-line entry point ``kcof.cli.main``.

    python3 bench/run.py --workload k1-solve --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` (the pure-Python kernels unless the extension has been built).
One process, one query at a time.  The run

1. sets up at least ``SETUP_MIN_REPS`` times and for at least
   ``SETUP_MIN_SECONDS`` (fresh import of kcof, inputs made from the seed,
   ``kcof catalog --out``, instance files) and reports the median;
2. repeats whole passes over the workload's queries, in a seeded shuffled
   order, for about ``--seconds`` seconds (at least one pass; the last may
   overrun by half a pass), timing every ``cli.main`` call, with a
   calibration call between queries every ``CALIBRATE_EVERY_S`` seconds;
3. checks the first pass's answers against the benchmark's own exact
   reference and requires every later pass to print the same answers.

The times are reported at the reference speed: the query times are scaled
by ``REFERENCE_CALIBRATION_S`` over the passes' mean calibration time,
weighted by the seconds each calibration stands for, and the set-up time
over the mean of one calibration after each set-up (see ``_calibration``).

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` the set-up and half of the passes are traced (see
``tracing.py``) and the last line holds the per-layer metrics, taken per
traced pass, with the tracing overhead against the untraced passes.  The
spans are written to ``.bench_work/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 1.5
# The reference speed: one _calibration() call takes this long.
REFERENCE_CALIBRATION_S = 0.01
CALIBRATE_EVERY_S = 0.2


def _forget_kcof() -> None:
    """Drop kcof from the module cache so the next import runs it afresh."""
    for name in [m for m in sys.modules if m == "kcof" or m.startswith("kcof.")]:
        del sys.modules[name]
    gc.collect()  # the old modules sit in reference cycles; keep peak RSS flat


def _import_kcof():
    """Import kcof.cli from the checkout's ``src``."""
    cli = importlib.import_module("kcof.cli")
    if Path(cli.__file__).resolve().parent != SRC / "kcof":
        raise RuntimeError(f"imported kcof from {cli.__file__}, not from {SRC}")
    return cli


def _setup(name: str, seed: int, work: Path, tracer: Tracer | None = None):
    """One set-up; returns (seconds, kcof.cli module, inputs)."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    _forget_kcof()
    t0 = time.perf_counter()
    cli = _import_kcof()
    if tracer is not None:
        tracer.install()
    try:
        rng = random.Random(f"{name}:{seed}")
        inputs = workloads.WORKLOADS[name](rng, work, cli.main)
        # like queries spread over the pass, so that the shared machine's
        # speed swings of several seconds average out in query_p50_s
        rng.shuffle(inputs.queries)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return time.perf_counter() - t0, cli, inputs


def _calibration() -> float:
    """Seconds for a fixed piece of pure-Python work, unrelated to kcof.

    Other tenants of the machine slow it by a third or more, in stretches
    from under a second to minutes, and most of a run can fall in one.  The
    slowdown is in the CPU (process CPU time tracks wall time), and it slows
    this loop of exact Fraction arithmetic, sorting and dict stores by
    nearly the same factor as a query: over 15 s windows whose mean times of
    a k1-solve and a poa-bracket query varied by 24% and 27%, their ratios
    to this call varied by 5% and 6%.
    """
    t0 = time.perf_counter()
    rng = random.Random(0)
    acc, table = Fraction(0), {}
    for i in range(600):
        a = Fraction(rng.randint(1, 1000), rng.randint(1, 50))
        acc += a * a / (i + 1)
        table[i % 37] = sorted((a, acc, Fraction(i, 7)))
    return time.perf_counter() - t0


def _one_pass(cli, queries, calibrations) -> tuple[list[float], list[tuple[int, str]]]:
    """Times and answers of each query.

    Calibrates before the first query, before any query that starts at
    least ``CALIBRATE_EVERY_S`` after the last calibration, and after the
    last query.  Appends to ``calibrations`` each calibration time with the
    seconds of the pass it stands for: half the time since the calibration
    before it and half the time to the one after it.
    """
    times, answers, starts, cals = [], [], [], []

    def calibrate() -> None:
        starts.append(time.perf_counter())
        cals.append(_calibration())

    for q in queries:
        if not starts or time.perf_counter() >= starts[-1] + CALIBRATE_EVERY_S:
            calibrate()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                rc = cli.main(list(q.argv))
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash counts as a failed query
                rc = -1
                print(traceback.format_exc())
            times.append(time.perf_counter() - t0)
        answers.append((rc, out.getvalue()))
    calibrate()
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    calibrations.extend(zip(cals, ((x + y) / 2 for x, y in zip([0.0] + gaps, gaps + [0.0]))))
    return times, answers


def _passes(cli, queries, seconds: float, first):
    """Whole passes for about ``seconds`` (at least one).

    Returns (seconds of each pass, query times of each pass, calibration
    times, answers of the first pass, whether every pass printed the same
    answers as ``first`` or, when that is None, as the first pass).
    """
    durations, times, calibrations, same = [], [], [], True
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        pass_times, answers = _one_pass(cli, queries, calibrations)
        durations.append(time.perf_counter() - start)
        times.append(pass_times)
        if first is None:
            first = answers
        same = same and answers == first
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(durations) / 2 > seconds:
            return durations, times, calibrations, first, same


def _check(queries, answers) -> tuple[bool, int, set]:
    """(correct, failed queries per pass, verified equilibria)."""
    correct, failed, found = True, 0, set()
    for q, (rc, out) in zip(queries, answers):
        try:
            verdict = q.check(rc, out)
        except (workloads.WrongAnswer, KeyError, TypeError, ValueError) as exc:
            print(f"WRONG: kcof {' '.join(q.argv)}: {type(exc).__name__}: {exc}", file=sys.stderr)
            correct = False
            continue
        if verdict.failed:
            print(f"failed: kcof {' '.join(q.argv)} (exit {rc})", file=sys.stderr)
            failed += 1
        found |= verdict.equilibria
    return correct, failed, found


def _revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            loose = ROOT / ".git" / ref
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return text
    except OSError:
        return "unknown"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> dict:
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    try:
        if args.trace:
            tracer = Tracer()
            setup_mark = tracer.mark()
            _, cli, inputs = _setup(args.workload, args.seed, work, tracer)
            setup_layers = tracer.totals(setup_mark)
        else:
            reps: list[float] = []
            setup_calibrations: list[float] = []
            while len(reps) < SETUP_MIN_REPS or sum(reps) < SETUP_MIN_SECONDS:
                seconds, cli, inputs = _setup(args.workload, args.seed, work)
                reps.append(seconds)
                setup_calibrations.append(_calibration())
            setup_scale = REFERENCE_CALIBRATION_S / statistics.fmean(setup_calibrations)
        queries = inputs.queries
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "kernel_backend": sys.modules["kcof"].kernel_backend,
            "python": platform.python_version(),
            "revision": _revision(),
            "queries_per_pass": len(queries),
            "instances": dict(inputs.counts),
        }
        print(json.dumps({"info": info}))

        if not args.trace:
            durations, times, calibrations, answers, same = _passes(cli, queries, args.seconds, None)
            passes = len(durations)
            # each query's mean over the passes, so that it and the mean
            # calibration average over the same speed swings
            mean_times = [statistics.fmean(per_query) for per_query in zip(*times)]
            calibration_s = statistics.fmean(*zip(*calibrations))  # weighted by span
            scale = REFERENCE_CALIBRATION_S / calibration_s
            timing = {
                "unscaled_setup_s": statistics.median(reps),
                "passes": passes,
                "calibrations": len(calibrations),
                "calibration_mean_s": calibration_s,
                "unscaled_query_p50_s": statistics.median(mean_times),
                "unscaled_queries_per_s": len(queries) / sum(mean_times),
            }
            print(json.dumps({"timing": timing}))
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            half = args.seconds / 2
            plain, _, _, answers, same = _passes(cli, queries, half, None)
            tracer.install()
            mark = tracer.mark()
            try:
                traced, _, _, _, same_traced = _passes(cli, queries, half, answers)
            finally:
                tracer.uninstall()
            same = same and same_traced
            layers = tracer.totals(mark, len(traced))
            tracer.dump(ROOT / ".bench_work" / f"spans-{args.workload}-{args.seed}.json")
            passes = len(plain) + len(traced)

        correct, failed, found = _check(queries, answers)
        if not same:
            print("WRONG: a later pass printed other answers than the first", file=sys.stderr)
            correct = False
        result = {
            "correct": correct,
            "attempted": passes * len(queries),
            "failed": passes * failed,
        }
        if not args.trace:
            result["metrics"] = {
                "setup_s": _metric(statistics.median(reps) * setup_scale, "s"),
                "queries_per_s": _metric(len(queries) / sum(mean_times) / scale, "1/s"),
                "query_p50_s": _metric(statistics.median(mean_times) * scale, "s"),
                "peak_rss_mb": _metric(peak_rss_mb, "MB"),
                "equilibria_verified": _metric(len(found), "count"),
            }
        else:
            metrics = {}
            for name, value in layers.items():
                unit = "s" if name.endswith("_s") else "count"
                metrics[name] = _metric(value, unit)
            # the catalog is built during set-up, not in the passes
            metrics["catalog.build_s"] = _metric(setup_layers["catalog.build_s"], "s")
            untraced_pass_s = statistics.median(plain)
            metrics["trace.untraced_pass_s"] = _metric(untraced_pass_s, "s")
            metrics["trace.overhead_s"] = _metric(statistics.median(traced) - untraced_pass_s, "s")
            result["metrics"] = metrics
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark kcof through kcof.cli.main.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "kcof" / "__init__.py").is_file():
        print(f"error: no kcof sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    try:
        result = run(args)
    except workloads.WrongAnswer as exc:  # raised while setting up
        print(f"WRONG: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
