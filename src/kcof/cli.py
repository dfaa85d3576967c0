"""Command-line front end.

Subcommands: check, solve, bounds, optimize, mixed-check, catalog.
Exit codes: 0 success (for check/mixed-check: the vector is an equilibrium),
1 checked vector is not an equilibrium, 2 input or usage error, or standard
output closed before the report was written (``kcof ... | head``; the rest of
the report is dropped quietly, without a traceback).
All reports are also available as JSON via --json, one line of compact JSON;
rationals are always rendered as exact strings.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from pathlib import Path
from typing import Optional

from . import bounds as bounds_mod
from . import mixed as mixed_mod
from . import segments
from .catalog import catalog as build_catalog
from .catalog import recompute
from .game import GameInstance, best_response_dynamics, check_pure
from .instance_io import load_instance, write_instance
from .optimize import optimize_social_cost
from .rationals import format_ratio, format_rational, parse_rational

_R = format_rational


def _emit(report: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(report))  # no indent: the C encoder, one line
    else:
        print("\n".join(lines))


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _pure_check_report(inst: GameInstance, opinions) -> dict:
    checked = check_pure(inst, opinions)
    verdict, structure, d = checked.verdict, checked.structure, checked.scale
    return {
        "pne": verdict.is_pne,
        "social_cost": format_ratio(sum(checked.costs), d),
        "player_costs": [format_ratio(c, d) for c in checked.costs],
        "tie_seen": verdict.tie_seen,
        "violations": [
            {
                "player": v.player,
                "best_reply": _R(v.best_reply),
                "cost_drop": _R(v.cost_drop),
            }
            for v in verdict.violations
        ],
        "structure": {
            "monotone": structure.monotone,
            "in_belief_range": structure.in_belief_range,
            "consecutive_neighborhoods": structure.consecutive_neighborhoods,
        },
    }


def _pure_lines(report: dict) -> list[str]:
    """The text form of a pure check report."""
    lines = [
        f"PNE: {'yes' if report['pne'] else 'no'}, SC = {report['social_cost']}",
        "player costs: " + ", ".join(report["player_costs"]),
    ]
    if report["tie_seen"]:
        lines.append("note: an exact neighbor-distance tie occurred during verification")
    for v in report["violations"]:
        lines.append(
            f"  player {v['player']} improves by moving to {v['best_reply']}"
            f" (cost drop {v['cost_drop']})"
        )
    lines.append(
        "structure: monotone={monotone} in_belief_range={in_belief_range} "
        "consecutive_neighborhoods={consecutive_neighborhoods}".format(
            **report["structure"]
        )
    )
    return lines


def _mixed_check_report(inst: GameInstance, rz) -> dict:
    checked = mixed_mod.check_mixed(inst, rz)
    return {
        "mne": checked.verdict.is_mne,
        "expected_social_cost": _R(checked.expected_social_cost),
        "expected_player_costs": [_R(c) for c in checked.expected_costs],
        "violations": [
            {
                "player": v.player,
                "deviation": _R(v.deviation),
                "improvement": _R(v.improvement),
            }
            for v in checked.verdict.violations
        ],
    }


def _mixed_lines(report: dict) -> list[str]:
    """The text form of a mixed check report."""
    lines = [
        f"MNE: {'yes' if report['mne'] else 'no'}, E[SC] = {report['expected_social_cost']}",
        "expected player costs: " + ", ".join(report["expected_player_costs"]),
    ]
    for v in report["violations"]:
        lines.append(
            f"  player {v['player']} improves by deviating to {v['deviation']}"
            f" (expected improvement {v['improvement']})"
        )
    return lines


def _cmd_check(args) -> int:
    doc = load_instance(args.file)
    if doc.opinions is None and doc.mixed is None:
        return _fail('the file must contain "opinions" or "mixed" to check')
    report: dict = {}
    lines: list[str] = []
    ok = True
    if doc.opinions is not None:
        sub = report["pure"] = _pure_check_report(doc.instance, doc.opinions)
        lines += [] if args.json else _pure_lines(sub)
        ok = sub["pne"]
    if doc.mixed is not None:
        sub = report["mixed"] = _mixed_check_report(doc.instance, doc.mixed)
        lines += [] if args.json else _mixed_lines(sub)
        ok = ok and sub["mne"]
    _emit(report, args.json, lines)
    return 0 if ok else 1


def _cmd_mixed_check(args) -> int:
    doc = load_instance(args.file)
    if doc.mixed is None:
        return _fail('the file must contain a "mixed" field')
    report = _mixed_check_report(doc.instance, doc.mixed)
    _emit(report, args.json, [] if args.json else _mixed_lines(report))
    return 0 if report["mne"] else 1


def _vector_report(opinions, cost, strings: dict) -> dict:
    """One vector's report.  ``strings`` maps id(value) to its string for one
    report whose values all stay alive, so a value object that
    :func:`kcof.segments.enumerate_pne` shares is formatted once."""
    for v in opinions:
        if id(v) not in strings:
            strings[id(v)] = _R(v)
    return {"opinions": [strings[id(v)] for v in opinions], "social_cost": _R(cost)}


def _k1_lines(report: dict, segment_count: int, limit: int) -> list[str]:
    """The text form of a k=1 solve report."""

    def vector(entry: dict) -> str:
        return f"SC = {entry['social_cost']}  z = ({', '.join(entry['opinions'])})"

    lines = [f"legit segments: {segment_count}"]
    if report["exists_pne"]:
        lines.append(f"best PNE:  {vector(report['best'])}")
        lines.append(f"worst PNE: {vector(report['worst'])}")
    else:
        lines.append("no pure Nash equilibrium exists")
    if "enumerated" in report:
        lines.append(f"enumerated {len(report['enumerated'])} equilibria (limit {limit}):")
        lines.extend(f"  {vector(entry)}" for entry in report["enumerated"])
    if "dot" in report:
        lines.append(f"wrote segment graph to {report['dot']}")
    return lines


def _cmd_solve(args) -> int:
    doc = load_instance(args.file)
    inst = doc.instance
    if inst.k == 1:
        graph = segments.build_segment_graph(inst)
        best = segments.best_pne(graph)
        worst = segments.worst_pne(graph)
        report: dict = {"k": 1}
        if args.json:  # text mode prints only their count
            report["legit_segments"] = [
                {"a": s.a, "b": s.b, "c": s.c, "weight": format_ratio(s.w_int, s.scale)}
                for s in graph.segments
            ]
        report["exists_pne"] = best is not None
        strings: dict = {}
        if best is not None:
            report["best"] = _vector_report(*best, strings)
            report["worst"] = _vector_report(*worst, strings)
        if args.enumerate:
            found = segments.enumerate_pne(graph, args.enumerate)
            report["enumerated"] = [_vector_report(z, c, strings) for z, c in found]
        if args.dot:
            Path(args.dot).write_text(segments.to_dot(graph) + "\n", encoding="utf-8")
            report["dot"] = args.dot
        lines = [] if args.json else _k1_lines(report, len(graph.segments), args.enumerate)
        _emit(report, args.json, lines)
        return 0

    result = best_response_dynamics(inst, inst.beliefs, max_rounds=args.rounds)
    report = {
        "k": inst.k,
        "dynamics_outcome": result.outcome,
        "rounds": result.rounds,
    }
    if result.outcome == "converged":
        checked = check_pure(inst, result.opinions)
        report["opinions"] = [_R(v) for v in result.opinions]
        report["social_cost"] = format_ratio(sum(checked.costs), checked.scale)
        report["pne"] = checked.verdict.is_pne
    _emit(report, args.json, [] if args.json else _dynamics_lines(report))
    return 0


def _dynamics_lines(report: dict) -> list[str]:
    """The text form of a k >= 2 solve report."""
    lines = [
        f"k={report['k']}: best-response dynamics from the beliefs "
        f"ran {report['rounds']} rounds, outcome: {report['dynamics_outcome']}"
    ]
    if "opinions" in report:
        lines.append(
            f"found PNE: {'yes' if report['pne'] else 'no'}, SC = {report['social_cost']}, "
            f"z = ({', '.join(report['opinions'])})"
        )
    else:
        lines.append("no pure Nash equilibrium found")
    return lines


def _cmd_bounds(args) -> int:
    doc = load_instance(args.file)
    inst = doc.instance
    starts = [doc.opinions] if doc.opinions is not None else []
    bracket = bounds_mod.poa_bracket(inst, use_optimizer=not args.no_opt, starts=starts)
    caps = [bounds_mod.pne_player_cost_cap(inst, i) for i in range(inst.n)]
    report: dict = {
        "opt_lower_bound_k": _R(bounds_mod.opt_lower_bound_k(inst)),
        "player_cost_caps": [_R(c) for c in caps],
        "opt_lower": _R(bracket.opt_lower),
        "opt_upper": _R(bracket.opt_upper),
        "worst_pne_cost": None if bracket.worst_pne_cost is None else _R(bracket.worst_pne_cost),
        "ratio_lower": None if bracket.ratio_lower is None else _R(bracket.ratio_lower),
        "ratio_upper": None if bracket.ratio_upper is None else _R(bracket.ratio_upper),
        "ratio_upper_unbounded": bracket.ratio_upper_unbounded,
    }
    if inst.k == 1:
        report["opt_lower_bound_1"] = _R(bounds_mod.opt_lower_bound_1(inst))
        caps1 = [bounds_mod.pne_player_cost_cap_1(inst, i) for i in range(inst.n)]
        report["player_cost_caps_1"] = [_R(c) for c in caps1]
    _emit(report, args.json, [] if args.json else _bounds_lines(report))
    return 0


def _bounds_lines(report: dict) -> list[str]:
    """The text form of a bounds report."""
    lines = [f"opt lower bound (window form): {report['opt_lower_bound_k']}"]
    if "opt_lower_bound_1" in report:
        lines.append(f"opt lower bound (nearest-belief form): {report['opt_lower_bound_1']}")
    lines.append("per-player PNE cost caps: " + ", ".join(report["player_cost_caps"]))
    lines.append(f"optimal social cost in [{report['opt_lower']}, {report['opt_upper']}]")
    if report["worst_pne_cost"] is None:
        lines.append("worst PNE cost: unavailable (no equilibrium known)")
    else:
        lines.append(f"worst PNE cost: {report['worst_pne_cost']}")
        if report["ratio_lower"] is not None:
            lines.append(f"instance PoA >= {report['ratio_lower']}")
        if report["ratio_upper_unbounded"]:
            lines.append("instance PoA upper estimate: unbounded (lower bound is zero)")
        elif report["ratio_upper"] is not None:
            lines.append(f"instance PoA <= {report['ratio_upper']}")
    return lines


def _cmd_optimize(args) -> int:
    doc = load_instance(args.file)
    starts = [doc.opinions] if doc.opinions is not None else []
    z, cost = optimize_social_cost(doc.instance, starts=starts)
    report = {"opinions": [_R(v) for v in z], "social_cost": _R(cost)}
    lines = [] if args.json else [
        f"SC <= {report['social_cost']}",
        f"z = ({', '.join(report['opinions'])})",
    ]
    _emit(report, args.json, lines)
    return 0


def _cmd_catalog(args) -> int:
    lam = parse_rational(args.lam)
    eps = parse_rational(args.epsilon)
    entries = build_catalog(args.k, lam, eps)

    rows = []
    for entry in entries:
        for ref in entry.references:
            got_verdict, got_cost = recompute(entry.instance, ref)
            rows.append(
                {
                    "entry": entry.name,
                    "reference": ref.tag,
                    "expected_verdict": ref.verdict,
                    "recomputed_verdict": got_verdict,
                    "expected_cost": _R(ref.expected_cost),
                    "recomputed_cost": _R(got_cost),
                    "match": got_verdict == ref.verdict and got_cost == ref.expected_cost,
                }
            )

    header = (
        "| entry | reference | expected verdict | recomputed | expected cost "
        "| recomputed cost | match |"
    )
    sep = "|---|---|---|---|---|---|---|"
    lines = [header, sep]
    for r in rows:
        lines.append(
            f"| {r['entry']} | {r['reference']} | {r['expected_verdict']} "
            f"| {r['recomputed_verdict']} | {r['expected_cost']} "
            f"| {r['recomputed_cost']} | {'match' if r['match'] else 'MISMATCH'} |"
        )

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for entry in entries:
            write_instance(out / f"{entry.name}.json", entry.instance)
            for ref in entry.references:
                write_instance(
                    out / f"{entry.name}__{ref.tag}.json",
                    entry.instance,
                    opinions=ref.opinions,
                    mixed=ref.mixed,
                )
        with open(out / "reproduction.csv", "w", newline="", encoding="utf-8") as fp:
            writer = csv.DictWriter(fp, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        (out / "reproduction.md").write_text("\n".join(lines) + "\n", encoding="utf-8")
        lines.append(f"wrote {len(entries)} instances and the reproduction table to {out}")

    _emit({"rows": rows}, args.json, lines)
    return 0 if all(r["match"] for r in rows) else 1


@functools.cache  # parse_args leaves the parser as it was; in-process callers share it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcof",
        description="Exact solver and verifier for compromise games on the line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify the opinions (and/or mixed profile) in a file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve", help="k=1: segment-graph solve; k>=2: best-response dynamics")
    p.add_argument("file")
    p.add_argument("--enumerate", type=int, default=0, metavar="N")
    p.add_argument("--dot", metavar="PATH", help="write the segment DAG in DOT format (k=1)")
    p.add_argument("--rounds", type=int, default=1000, help="dynamics round cap (k>=2)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bounds", help="closed-form bounds and the PoA bracket")
    p.add_argument("file")
    p.add_argument("--no-opt", action="store_true", help="skip the optimizer upper bound")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("optimize", help="heuristic upper bound on the optimal social cost")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("mixed-check", help="verify the mixed profile in a file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_mixed_check)

    p = sub.add_parser("catalog", help="emit catalog instances and the reproduction table")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--lambda", dest="lam", default="1/2", metavar="Q")
    p.add_argument("--epsilon", default="1/8", metavar="Q")
    p.add_argument("--out", metavar="DIR")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows up here, not at interpreter exit
        return status
    except ValueError as exc:
        return _fail(str(exc))
    except BrokenPipeError:
        # the reader went away; send what is still buffered to devnull so the
        # interpreter's final flush does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
