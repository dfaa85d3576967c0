"""Instance-file parsing and the command-line surface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import kcof
from kcof import GameInstance, cli, load_instance, segments, write_instance
from kcof.catalog import catalog_entry
from kcof.cli import _build_parser, main
from kcof.instance_io import InstanceFormatError
from kcof.optimize import MAX_PLAYERS
from kcof.rationals import format_ratio, format_rational


@pytest.fixture
def eq_file(tmp_path):
    path = tmp_path / "eq.json"
    path.write_text(
        json.dumps(
            {"k": 1, "beliefs": ["-10", "2", "5"], "opinions": ["-3.5", "3", "4"]}
        )
    )
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"k": 1, "beliefs": ["5", "2", "10"]}))
    return str(path)


class TestInstanceFiles:
    def test_unsorted_beliefs_error_names_index(self, bad_file):
        with pytest.raises(InstanceFormatError, match="index 0"):
            load_instance(bad_file)

    def test_floats_rejected(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"k": 1, "beliefs": [0.5, 1]}))
        with pytest.raises(InstanceFormatError, match="not exact"):
            load_instance(path)

    @pytest.mark.parametrize(
        "value, message",
        [
            (2.5, "JSON floats are not exact; write the value as a string"),
            (True, "booleans are not rational values"),
            ("3/0", "not a rational number: '3/0'"),
            ("", "not a rational number: ''"),
        ],
    )
    @pytest.mark.parametrize(
        "where",
        ["beliefs[2]", "opinions[1]", "mixed[0][1] opinion", "mixed[0][1] probability"],
    )
    def test_bad_value_error_names_its_place(self, value, message, where, tmp_path):
        doc = {
            "k": 1,
            "beliefs": ["0", "1", "2"],
            "opinions": ["0", "1", "2"],
            "mixed": [[["0", "1/2"], ["1", "1/2"]], [["1", "1"]], [["2", "1"]]],
        }
        if where == "beliefs[2]":
            doc["beliefs"][2] = value
        elif where == "opinions[1]":
            doc["opinions"][1] = value
        else:
            doc["mixed"][0][1][1 if where.endswith("probability") else 0] = value
        path = tmp_path / "v.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError) as info:
            load_instance(path)
        assert str(info.value) == f"{where}: {message}"

    def test_unknown_fields_rejected(self, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(json.dumps({"k": 1, "beliefs": ["0", "1"], "junk": 3}))
        with pytest.raises(InstanceFormatError, match="unknown"):
            load_instance(path)

    def test_missing_required(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"beliefs": ["0", "1"]}))
        with pytest.raises(InstanceFormatError, match="required"):
            load_instance(path)

    def test_unicode_minus_accepted(self, tmp_path):
        path = tmp_path / "um.json"
        path.write_text(json.dumps({"k": 1, "beliefs": ["−21/2", "2"]}))
        assert load_instance(path).instance.beliefs[0] == F(-21, 2)

    def test_round_trip_exactness(self, tmp_path):
        inst = GameInstance(k=1, beliefs=(F(-21, 2), F(5, 2)), labels=("a", "b"))
        path = tmp_path / "rt.json"
        write_instance(path, inst, opinions=(F(1, 3), F(2, 3)))
        doc = load_instance(path)
        assert doc.instance == inst
        assert doc.opinions == (F(1, 3), F(2, 3))


@pytest.mark.parametrize("command", ["check", "solve", "bounds", "optimize", "mixed-check"])
def test_unsorted_beliefs_exit_two_with_the_index(command, bad_file, capsys):
    assert main([command, bad_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "index 0" in err
    assert "Traceback" not in err


def test_one_parser_serves_every_call(eq_file, tmp_path, capsys):
    parser = _build_parser()
    with pytest.raises(SystemExit) as usage:
        main(["solve"])  # no file: a usage error
    assert usage.value.code == 2
    capsys.readouterr()
    assert main(["check", eq_file, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["pure"]["social_cost"] == "17/2"
    quad = tmp_path / "quad.json"
    quad.write_text(json.dumps({"k": 1, "beliefs": ["0", "9", "12", "21"]}))
    assert main(["solve", str(quad), "--enumerate", "5"]) == 0
    assert "enumerated 2 equilibria" in capsys.readouterr().out
    assert main(["bounds", eq_file, "--no-opt", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["worst_pne_cost"] == "17/2"
    assert _build_parser() is parser


class TestCheck:
    def test_equilibrium_exits_zero(self, eq_file, capsys):
        assert main(["check", eq_file]) == 0
        out = capsys.readouterr().out
        assert "PNE: yes, SC = 17/2" in out

    def test_non_equilibrium_exits_one(self, tmp_path, capsys):
        path = tmp_path / "ne.json"
        path.write_text(
            json.dumps({"k": 1, "beliefs": ["-10", "2", "5"], "opinions": ["-10", "-5", "4"]})
        )
        assert main(["check", str(path)]) == 1
        assert "PNE: no, SC = 23" in capsys.readouterr().out

    def test_unsorted_exits_two(self, bad_file):
        assert main(["check", bad_file]) == 2

    def test_missing_vector_exits_two(self, tmp_path):
        path = tmp_path / "nov.json"
        path.write_text(json.dumps({"k": 1, "beliefs": ["0", "1"]}))
        assert main(["check", str(path)]) == 2

    def test_json_mode(self, eq_file, capsys):
        assert main(["check", eq_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pure"]["pne"] is True
        assert report["pure"]["social_cost"] == "17/2"
        assert report["pure"]["player_costs"] == ["13/2", "1", "1"]

    @pytest.mark.parametrize(
        "mixed, status, mne",
        [
            ([[["-7/2", "1"]], [["3", "1"]], [["4", "1"]]], 0, True),
            ([[["-10", "1"]], [["2", "1"]], [["5", "1"]]], 1, False),
        ],
    )
    def test_json_reports_pure_and_mixed_together(self, mixed, status, mne, tmp_path, capsys):
        # the pure vector is an equilibrium; the exit code follows the mixed one too
        path = tmp_path / "both.json"
        doc = {"k": 1, "beliefs": ["-10", "2", "5"], "opinions": ["-7/2", "3", "4"], "mixed": mixed}
        path.write_text(json.dumps(doc))
        assert main(["check", str(path), "--json"]) == status
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"pure", "mixed"}
        assert report["pure"]["pne"] is True and report["pure"]["social_cost"] == "17/2"
        assert report["mixed"]["mne"] is mne
        assert report["mixed"]["expected_social_cost"] == ("17/2" if mne else "18")
        assert bool(report["mixed"]["violations"]) is not mne

    def test_text_mode_notes_a_distance_tie(self, eq_file, tmp_path, capsys):
        # player 1's belief 9 lies 6 from both other opinions 3 and 15
        path = tmp_path / "tie.json"
        doc = {"k": 1, "beliefs": ["0", "9", "12", "21"], "opinions": ["3", "6", "15", "18"]}
        path.write_text(json.dumps(doc))
        note = "note: an exact neighbor-distance tie occurred during verification"
        assert main(["check", str(path)]) == 0
        assert note in capsys.readouterr().out
        assert main(["check", eq_file]) == 0
        assert note not in capsys.readouterr().out


class TestSolve:
    def test_enumerate_and_dot(self, tmp_path, capsys):
        path = tmp_path / "quad.json"
        path.write_text(json.dumps({"k": 1, "beliefs": ["0", "9", "12", "21"]}))
        dot = tmp_path / "g.dot"
        assert main(["solve", str(path), "--enumerate", "5", "--dot", str(dot)]) == 0
        out = capsys.readouterr().out
        assert "enumerated 2 equilibria" in out
        assert "digraph" in dot.read_text()

    def test_builds_the_segment_graph_once(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "quad.json"
        path.write_text(json.dumps({"k": 1, "beliefs": ["0", "9", "12", "21"]}))
        build = segments.build_segment_graph
        calls = []

        def counting(inst):
            calls.append(inst)
            return build(inst)

        monkeypatch.setattr(segments, "build_segment_graph", counting)
        dot = tmp_path / "g.dot"
        assert main(["solve", str(path), "--enumerate", "8", "--dot", str(dot), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["enumerated"]) == 2
        assert "C(0,1,3)" in dot.read_text()
        assert len(calls) == 1

    def test_one_completion_pass_per_direction(self, tmp_path, capsys, monkeypatch):
        # best_pne and enumerate_pne both read the minimizing pass, worst_pne the maximizing one
        path = tmp_path / "quad.json"
        path.write_text(json.dumps({"k": 1, "beliefs": ["0", "9", "12", "21"]}))
        passes = segments._completion_bounds
        calls = []

        def counting(graph, maximize):
            calls.append(maximize)
            return passes(graph, maximize)

        monkeypatch.setattr(segments, "_completion_bounds", counting)
        assert main(["solve", "--enumerate", "8", str(path), "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["enumerated"]) == 2
        assert sorted(calls) == [False, True]

    def test_text_mode_reads_no_segment_weight(self, tmp_path, capsys, monkeypatch):
        # text mode prints how many legit segments there are; only --json lists their weights
        path = tmp_path / "quad.json"
        path.write_text(json.dumps({"k": 1, "beliefs": ["0", "9", "12", "21"]}))
        count = len(segments.build_segment_graph(load_instance(str(path)).instance).segments)

        def no_weight(seg):
            raise AssertionError(f"weight of segment {seg.triple} read")

        monkeypatch.setattr(segments.Segment, "weight", property(no_weight))
        assert main(["solve", str(path), "--enumerate", "8"]) == 0
        assert f"legit segments: {count}\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "beliefs",
        [
            ["0"] * 6 + ["1"] * 6,
            ["-7/3", "0", "1/6", "9", "12", "21", "22", "22", "40"],
            ["5"] * 3 + ["6"] * 4,
        ],
    )
    def test_json_weights_are_the_exact_fractions(self, beliefs, tmp_path, capsys):
        # the weight strings are reduced by shifts, not by a gcd of the scale
        path = tmp_path / "k1.json"
        path.write_text(json.dumps({"k": 1, "beliefs": beliefs}))
        graph = segments.build_segment_graph(load_instance(str(path)).instance)
        assert main(["solve", str(path), "--json"]) == 0
        weights = [seg["weight"] for seg in json.loads(capsys.readouterr().out)["legit_segments"]]
        assert weights == [format_rational(seg.weight) for seg in graph.segments]
        assert len(set(weights)) > 1

    def test_format_ratio_matches_the_fraction(self, rng):
        for _ in range(5000):
            den = rng.choice((1, 3, 5, 9, 21, 2**61 - 1)) << rng.randint(0, 90)
            num = rng.choice((0, 1, -1, rng.randint(-(10**9), 10**9))) << rng.randint(0, 90)
            assert format_ratio(num, den) == format_rational(F(num, den)), (num, den)

    def test_each_reported_value_is_formatted_once(self, tmp_path, capsys, monkeypatch):
        # 12 equal beliefs: the enumerated equilibrium shares one value object
        path = tmp_path / "equal.json"
        path.write_text(json.dumps({"k": 1, "beliefs": ["0"] * 12}))
        formatted = []

        def recording(value):
            formatted.append(value)
            return format_rational(value)

        monkeypatch.setattr(cli, "_R", recording)
        assert main(["solve", str(path), "--enumerate", "8"]) == 0
        assert "enumerated 1 equilibria" in capsys.readouterr().out
        # the list keeps every value alive: a repeated id is one object formatted twice
        assert len(formatted) == len({id(v) for v in formatted})

    def test_closed_stdout_ends_quietly(self, tmp_path):
        # 30 equal beliefs: about 160 kB of JSON on one line, more than a pipe
        # holds, so kcof is still writing when the reader closes its end
        path = tmp_path / "equal.json"
        path.write_text(json.dumps({"k": 1, "beliefs": ["0"] * 30}))
        env = {**os.environ, "PYTHONPATH": str(Path(kcof.__file__).resolve().parents[1])}
        with subprocess.Popen(
            [sys.executable, "-m", "kcof.cli", "solve", "--json", str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as proc:
            assert proc.stdout.read(1) == b"{"
            proc.stdout.close()
            stderr = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 2
        assert "Traceback" not in stderr
        assert "BrokenPipeError" not in stderr

    def test_no_equilibrium_report(self, tmp_path, capsys):
        path = tmp_path / "gadget.json"
        path.write_text(json.dumps({"k": 1, "beliefs": ["0", "7/8", "2"]}))
        assert main(["solve", str(path)]) == 0
        assert "no pure Nash equilibrium exists" in capsys.readouterr().out

    def test_k2_runs_dynamics(self, tmp_path, capsys):
        path = tmp_path / "k2.json"
        path.write_text(json.dumps({"k": 2, "beliefs": ["0", "1", "1", "2"]}))
        assert main(["solve", str(path), "--rounds", "200"]) == 0
        assert "best-response dynamics" in capsys.readouterr().out

    def test_k2_dynamics_reports_verified_equilibrium(self, tmp_path, capsys):
        path = tmp_path / "blocks.json"
        write_instance(path, catalog_entry("poa_blocks", k=2).instance)
        assert main(["solve", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dynamics_outcome"] == "converged"
        assert report["pne"] is True

    def test_rounds_above_the_dynamics_cap_exit_two(self, tmp_path, capsys):
        path = tmp_path / "gadget.json"
        write_instance(path, catalog_entry("no_pne_gadget", k=8).instance)
        assert main(["solve", str(path), "--rounds", "1000001"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "1000000, the dynamics cap" in err


class TestJsonReports:
    QUAD_REPORT = {
        "k": 1,
        "legit_segments": [
            {"a": 0, "b": 0, "c": 1, "weight": "6"},
            {"a": 0, "b": 1, "c": 3, "weight": "12"},
            {"a": 2, "b": 2, "c": 3, "weight": "6"},
        ],
        "exists_pne": True,
        "best": {"opinions": ["3", "6", "15", "18"], "social_cost": "12"},
        "worst": {"opinions": ["3", "6", "15", "18"], "social_cost": "12"},
        "enumerated": [
            {"opinions": ["3", "6", "15", "18"], "social_cost": "12"},
            {"opinions": ["5", "10", "11", "16"], "social_cost": "12"},
        ],
    }

    @pytest.fixture(scope="class")
    def cat(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("cat")
        for k in (1, 2):
            assert main(["catalog", "--k", str(k), "--out", str(out / f"k{k}")]) == 0
        return out

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "k1/two_pne_quad__paired_blocks.json"],
            ["check", "k2/pos_quad__near_opt.json"],
            ["mixed-check", "k1/mpoa_chain__mixed_equilibrium.json"],
            ["solve", "k1/two_pne_quad.json", "--enumerate", "4"],
            ["solve", "k1/no_pne_gadget.json"],
            ["solve", "k2/poa_blocks.json"],
            ["bounds", "k2/pos_quad__equilibrium.json"],
            ["optimize", "k1/intro_triple.json"],
            ["catalog", "--k", "2"],
        ],
    )
    def test_each_report_is_one_line(self, argv, cat, capsys):
        argv = [str(cat / a) if a.endswith(".json") else a for a in argv]
        assert main(argv + ["--json"]) in (0, 1)
        out = capsys.readouterr().out
        assert out.endswith("\n") and out.count("\n") == 1
        assert isinstance(json.loads(out), dict)

    def test_k1_solve_report(self, cat, capsys):
        assert main(["solve", "--json", "--enumerate", "4", str(cat / "k1/two_pne_quad.json")]) == 0
        assert json.loads(capsys.readouterr().out) == self.QUAD_REPORT

    @pytest.mark.parametrize("mode", [[], ["--json"]])
    @pytest.mark.parametrize(
        "argv, values",
        [
            (["check", "k2/pos_quad__equilibrium.json"], 5),
            (["check", "k1/intro_triple__observed.json"], 10),  # three violations
            (["mixed-check", "k1/mpoa_chain__mixed_equilibrium.json"], 7),
            (["check", "both.json"], 20),  # a pure and a mixed part, each with violations
            (["solve", "k2/poa_blocks.json"], 10),  # converges: nine opinions and SC
            (["bounds", "k1/intro_triple.json"], 13),  # with the k=1 bound and caps
            (["optimize", "k1/intro_triple.json"], 4),
        ],
    )
    def test_check_formats_each_reported_value_once(
        self, argv, values, mode, cat, tmp_path, capsys, monkeypatch
    ):
        both = {
            "k": 1,
            "beliefs": ["-10", "2", "5"],
            "opinions": ["-10", "-5", "4"],
            "mixed": [[["-10", "1"]], [["2", "1"]], [["5", "1"]]],
        }
        (tmp_path / "both.json").write_text(json.dumps(both))
        argv = [argv[0], str((tmp_path if argv[1] == "both.json" else cat) / argv[1])]

        def strings(node) -> int:
            if isinstance(node, dict):  # the dynamics' outcome is a word, not a value
                node = [v for key, v in node.items() if key != "dynamics_outcome"]
            if isinstance(node, list):
                return sum(map(strings, node))
            return isinstance(node, str)

        status = main(argv + ["--json"])
        assert strings(json.loads(capsys.readouterr().out)) == values
        formatted = []

        def recording(value):
            formatted.append(value)
            return format_rational(value)

        def recording_ratio(num, den):
            formatted.append((num, den))
            return format_ratio(num, den)

        monkeypatch.setattr(cli, "_R", recording)
        monkeypatch.setattr(cli, "format_ratio", recording_ratio)
        assert main(argv + mode) == status
        capsys.readouterr()
        assert len(formatted) == values


class TestBounds:
    def test_chain_report(self, tmp_path, capsys):
        lam = F(1, 2)
        beliefs = [str(v) for v in (-10 - lam, -10 - lam, -2 - lam, 2 + lam, 10 + lam, 10 + lam)]
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"k": 1, "beliefs": beliefs}))
        assert main(["bounds", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["worst_pne_cost"] == "8"
        assert report["opt_lower_bound_1"] == "10/3"
        assert F(report["ratio_lower"]) >= F(12, 5) * F(10, 3) / F(report["opt_upper"])

    def test_no_opt_flag(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"k": 1, "beliefs": ["0", "9", "12", "21"]}))
        assert main(["bounds", str(path), "--no-opt"]) == 0
        # the best equilibrium (SC 12) caps the truthful vector's 24
        assert "optimal social cost in [8, 12]" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["pos_quad", "poa_blocks"])
    def test_k2_equilibrium_file_supplies_the_known_pne(self, name, tmp_path, capsys):
        assert main(["catalog", "--k", "2", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        [ref] = [r for r in catalog_entry(name, k=2).references if r.tag == "equilibrium"]
        assert main(["bounds", str(tmp_path / f"{name}__equilibrium.json"), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert F(report["worst_pne_cost"]) == ref.expected_cost
        assert F(report["opt_upper"]) <= ref.expected_cost


class TestOptimizeCommand:
    def test_star_instance(self, tmp_path, capsys):
        path = tmp_path / "star.json"
        path.write_text(json.dumps({"k": 3, "beliefs": ["0", "0", "0", "1"]}))
        assert main(["optimize", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert F(report["social_cost"]) <= 1

    @pytest.mark.parametrize("flag", ["--seed", "--restarts", "--sweeps", "--grid-extra"])
    def test_optimizer_settings_are_not_flags(self, flag, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"k": 1, "beliefs": ["0", "9", "12", "21"]}))
        with pytest.raises(SystemExit) as usage:
            main(["optimize", str(path), flag, "2"])
        assert usage.value.code == 2
        assert flag in capsys.readouterr().err


    def test_player_cap_exits_two_and_names_no_opt(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        beliefs = [str(i) for i in range(MAX_PLAYERS + 1)]
        path.write_text(json.dumps({"k": 2, "beliefs": beliefs}))
        for command in (["optimize", str(path)], ["bounds", str(path)]):
            start = time.perf_counter()
            assert main(command) == 2
            assert time.perf_counter() - start < 1
            err = capsys.readouterr().err
            assert "cap" in err and "--no-opt" in err
        assert main(["bounds", str(path), "--no-opt"]) == 0


class TestMixedCheck:
    def test_equilibrium(self, tmp_path, capsys):
        beliefs = ["-21/2", "-21/2", "-5/2", "5/2", "21/2", "21/2"]
        mixed = [
            [["-21/2", "1"]],
            [["-21/2", "1"]],
            [["-13/2", "1/2"], ["-9/2", "1/2"]],
            [["13/2", "1/2"], ["9/2", "1/2"]],
            [["21/2", "1"]],
            [["21/2", "1"]],
        ]
        path = tmp_path / "mx.json"
        path.write_text(json.dumps({"k": 1, "beliefs": beliefs, "mixed": mixed}))
        assert main(["mixed-check", str(path)]) == 0
        assert "MNE: yes, E[SC] = 15" in capsys.readouterr().out

    def test_missing_mixed_field(self, eq_file):
        assert main(["mixed-check", eq_file]) == 2

    def test_work_cap_exits_two(self, tmp_path, capsys):
        n = 19
        mixed = [[[str(i), "1/2"], [str(i + 1), "1/2"]] for i in range(n)]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"k": 1, "beliefs": [str(i) for i in range(n)], "mixed": mixed}))
        assert main(["mixed-check", str(path)]) == 2
        assert "cap" in capsys.readouterr().err


class TestCatalogCommand:
    def test_writes_instances_and_table(self, tmp_path, capsys):
        out = tmp_path / "cat"
        assert main(["catalog", "--k", "1", "--out", str(out)]) == 0
        assert (out / "reproduction.csv").exists()
        assert (out / "reproduction.md").exists()
        assert (out / "two_pne_quad.json").exists()
        assert (out / "mpoa_chain__mixed_equilibrium.json").exists()
        table = capsys.readouterr().out
        assert "MISMATCH" not in table

    @pytest.mark.parametrize("lam", ["3/4", "4/5", "99/100"])
    def test_large_lambda_table_matches(self, lam, capsys):
        assert main(["catalog", "--k", "1", "--lambda", lam]) == 0
        assert "MISMATCH" not in capsys.readouterr().out

    def test_bad_lambda_exits_two(self):
        assert main(["catalog", "--k", "1", "--lambda", "2"]) == 2

    def test_k5_table(self, capsys):
        assert main(["catalog", "--k", "5", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        entries = {r["entry"] for r in report["rows"]}
        assert entries == {"pos_star", "poa_blocks", "mpoa_blocks"}
        assert all(r["match"] for r in report["rows"])
