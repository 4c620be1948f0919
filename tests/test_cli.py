"""Command-line surface: envelopes, exit codes, formats and
determinism.  Every captured report is validated against the shipped
JSON schema."""

import contextlib
import hashlib
import io
import json
import traceback
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ulrich_kit
import ulrich_kit.cli
from ulrich_kit.cli import (
    MAX_GRID_POINTS,
    MAX_TWISTS,
    main,
    to_jsonable,
    _parse_grid,
    _parse_window,
)
from ulrich_kit.errors import ModeDisagreement, OracleDefect

jsonschema = pytest.importorskip("jsonschema")

SCHEMA = json.loads(
    (Path(ulrich_kit.__file__).parent / "report.schema.json").read_text()
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return code, report


class TestTable:
    def test_structure_sheaf_table(self, capsys):
        code, report = run_json(
            capsys, "table", "--variety", "pn:2", "--sheaf", "O(0)",
            "--window=-3:3",
        )
        assert code == 0
        assert report["model"] == "pn:2"
        assert report["verdict"] is None
        assert report["error"] is None
        payload = report["payload"]
        assert payload["window"] == [-3, 3]
        rows = {(r["i"], r["t"]): r["h"] for r in payload["rows"]}
        assert rows[(0, 0)] == 1
        assert rows[(0, 3)] == 10
        assert rows[(2, -3)] == 1
        assert (0, -1) not in rows

    @pytest.mark.parametrize("window", ["5:1", "1", "a:b", ""])
    @pytest.mark.parametrize("command", ["table", "check"])
    def test_malformed_window_gets_the_error_envelope(self, capsys, command, window):
        code = main([
            command, "--variety", "pn:2", "--sheaf", "O(0)", f"--window={window}",
        ])
        captured = capsys.readouterr()
        assert code == 2
        report = json.loads(captured.out)
        jsonschema.validate(report, SCHEMA)
        assert report["error"] and "window" in report["error"]
        assert report["payload"] is None
        assert "Traceback" not in captured.out + captured.err

    def test_num_class_is_echoed_on_surfaces(self, capsys):
        code, report = run_json(
            capsys, "table", "--variety", "quadric:2", "--sheaf", "S+",
            "--window=-2:2",
        )
        assert report["payload"]["num_class"] == {"r": 1, "e1": "1/2", "e2": "0"}

    def test_tsv_rows(self, capsys):
        code, out = run(
            capsys, "table", "--variety", "pn:1", "--sheaf", "O(1)",
            "--window=-2:2", "--format", "tsv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "i\tt\th"
        assert lines[-1] == "verdict\tNone"
        assert "0\t0\t2" in lines

    def test_no_oracle_is_exit_three(self, capsys):
        code, report = run_json(
            capsys, "table", "--variety", "surface:d=4,i=0,chi=2",
            "--sheaf", "O(0)",
        )
        assert code == 3
        assert report["error"]
        assert report["payload"] is None

    def test_unsupported_spinor_dimension_is_exit_three(self, capsys):
        code, report = run_json(
            capsys, "table", "--variety", "quadric:5", "--sheaf", "S"
        )
        assert code == 3


class TestCheck:
    def test_passing_sheaf(self, capsys):
        code, report = run_json(
            capsys, "check", "--variety", "pn:2", "--sheaf", "O(0)"
        )
        assert code == 0
        assert report["verdict"] == "pass"
        assert report["payload"]["passed"] is True
        names = {c["name"] for c in report["payload"]["criteria"]}
        assert "hyper-vanishing" in names

    def test_failing_sheaf_is_exit_one(self, capsys):
        code, report = run_json(
            capsys, "check", "--variety", "pn:2", "--sheaf", "O(1)"
        )
        assert code == 1
        assert report["verdict"] == "fail"

    def test_the_direct_mode_reads_only_the_ulrich_twists(self, capsys):
        # no table over the window: the spinor columns at -1..-3 and the
        # elliptic column at -1 decide, whatever the other twists need
        code, report = run_json(
            capsys, "check", "--variety", "quadric:3", "--sheaf", "2*S",
            "--mode", "direct", "--window=-800:800",
        )
        assert code == 0
        assert report["verdict"] == "pass"
        code, report = run_json(
            capsys, "check", "--variety", "elliptic:3", "--sheaf", "ss(1,0)", "--mode", "direct"
        )
        assert code == 1
        assert report["payload"]["criteria"][0]["witness"] == [1, -1, 3]

    def test_a_model_without_an_object_is_exit_two(self, capsys):
        code, report = run_json(capsys, "check", "--variety", "pn:2")
        assert code == 2
        assert report["error"] == "check needs --object or --sheaf"
        assert report["payload"] is None

    def test_object_file_with_glue(self, capsys, tmp_path):
        payload = {
            "variety": "pn:2",
            "sheaves": {"0": "O(0)", "-1": "2*O(0)"},
            "glue": [{"from": 0, "to": -1}],
        }
        path = tmp_path / "object.json"
        path.write_text(json.dumps(payload))
        code, report = run_json(capsys, "check", "--object", str(path))
        assert code == 0
        assert report["model"] == "pn:2"
        assert report["verdict"] == "pass"

    def test_variety_mismatch_is_exit_two(self, capsys, tmp_path):
        path = tmp_path / "object.json"
        path.write_text(json.dumps({"variety": "pn:2", "sheaves": {"0": "O(0)"}}))
        code, report = run_json(
            capsys, "check", "--variety", "pn:3", "--object", str(path)
        )
        assert code == 2
        assert "disagrees" in report["error"]

    def test_missing_variety_is_exit_two(self, capsys, tmp_path):
        path = tmp_path / "object.json"
        path.write_text(json.dumps({"sheaves": {"0": "O(0)"}}))
        code, report = run_json(capsys, "check", "--object", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "data",
        [
            {"variety": "pn:2", "sheaves": {"0": 5}},
            {"variety": 3, "sheaves": {"0": "O(0)"}},
            {"variety": "pn:2", "sheaves": ["O(0)"]},
            {
                "variety": "pn:2",
                "sheaves": {"0": "O(0)", "-1": "O(0)"},
                "glue": [{"from": "a", "to": -1}],
            },
            {"variety": "pn:2", "sheaves": {"0": "O(0)"}, "glue": 5},
        ],
    )
    def test_mistyped_object_file_gets_the_error_envelope(
        self, capsys, tmp_path, data
    ):
        path = tmp_path / "object.json"
        path.write_text(json.dumps(data))
        code = main(["check", "--object", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        report = json.loads(captured.out)
        jsonschema.validate(report, SCHEMA)
        assert report["error"]
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("nonzero", ["false", "true", 0, 1, None])
    def test_glue_nonzero_must_be_a_json_boolean(self, capsys, tmp_path, nonzero):
        path = tmp_path / "object.json"
        path.write_text(json.dumps({
            "variety": "pn:2",
            "sheaves": {"0": "O(0)", "-1": "O(0)"},
            "glue": [{"from": 0, "to": -1, "nonzero": nonzero}],
        }))
        code, report = run_json(capsys, "check", "--object", str(path))
        assert code == 2
        assert "nonzero" in report["error"]

    def test_glue_nonzero_booleans_decide_the_certificate(self, capsys, tmp_path):
        notes = {}
        for nonzero in (True, False):
            path = tmp_path / f"object-{nonzero}.json"
            path.write_text(json.dumps({
                "variety": "pn:2",
                "sheaves": {"0": "O(0)", "-1": "O(0)"},
                "glue": [{"from": 0, "to": -1, "nonzero": nonzero}],
            }))
            code, report = run_json(capsys, "check", "--object", str(path))
            assert code == 0
            notes[nonzero] = report["payload"]["criteria"][0]["note"]
        assert notes == {True: "exact-by-vanishing", False: ""}

    def test_glue_of_another_extension_degree_is_exit_two(self, capsys, tmp_path):
        path = tmp_path / "object.json"
        path.write_text(json.dumps({
            "variety": "pn:2",
            "sheaves": {"0": "O(0)", "-1": "O(0)"},
            "glue": [{"from": 0, "to": -1, "ext_degree": 3}],
        }))
        code, report = run_json(capsys, "check", "--object", str(path))
        assert code == 2
        assert report["error"] == "glue witnesses carry degree-two extensions"

    def test_a_degree_given_twice_is_exit_two(self, capsys, tmp_path):
        # "0" and "00" name one degree; the file must not be read as O(5) alone
        path = tmp_path / "object.json"
        path.write_text(json.dumps({"variety": "pn:2", "sheaves": {"0": "O(0)", "00": "O(5)"}}))
        code, report = run_json(capsys, "check", "--object", str(path))
        assert code == 2
        assert report["error"] == "sheaf degree 0 is given twice, as '0' and '00'"
        assert report["payload"] is None and report["verdict"] is None

    @pytest.mark.parametrize("argv", [
        ["table", "--variety", "pn:1_0", "--sheaf", "O(0)"],
        ["table", "--variety", "quadric:0_3", "--sheaf", "O(0)"],
        ["table", "--variety", "pn:٣", "--sheaf", "O(0)"],
        ["table", "--variety", "pn:2", "--sheaf", "O(0)", "--window=-1_0:0"],
        ["chern-solve", "--surface", "d=4,i=0,chi=2", "--rank", "1_0"],
        ["chern-solve", "--surface", "d=4,i=0,chi=2", "--rank", "٢"],
    ])
    def test_integers_are_ascii_digits_without_separators(self, capsys, argv):
        code, report = run_json(capsys, *argv)
        assert code == 2
        assert report["payload"] is None and report["verdict"] is None

    def test_object_degree_keys_are_ascii_digits_without_separators(self, capsys, tmp_path):
        for key in ("1_0", "٠"):
            path = tmp_path / "object.json"
            path.write_text(json.dumps({"variety": "pn:2", "sheaves": {key: "O(0)"}}))
            code, report = run_json(capsys, "check", "--object", str(path))
            assert code == 2
            assert report["error"] == f"sheaf degrees must be integers, got {key!r}"

    def test_wide_window_reports_keep_their_bytes(self, capsys, tmp_path):
        # the window criteria hold ranges; a report still writes out every
        # twist, byte for byte as when they were tuples (digests recorded
        # from that code)
        code, out = run(
            capsys, "check", "--variety", "pn:4", "--sheaf", "O(0) + O(3)",
            "--window=-3200:3200",
        )
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "09c3e587c97d1a80d17f1b49e52ecb08d3426380e84f042e5e8d1e0f2cacf480"
        )
        path = tmp_path / "object.json"
        path.write_text(json.dumps({
            "variety": "pn:4",
            "sheaves": {"0": "2*O(0)", "-1": "O(0)", "-2": "O(0)"},
            "glue": [{"from": 0, "to": -1}],
        }))
        code, report = run_json(capsys, "check", "--object", str(path), "--window=-3200:3200")
        assert code == 0
        criteria = json.dumps(report["payload"]["criteria"], sort_keys=True)
        assert hashlib.sha256(criteria.encode()).hexdigest() == (
            "dabad43f9d675985fbf77d2f6c9a92eb3a10b8c44459c33bf6adc1053ba889e1"
        )
        assert report["payload"]["criteria"][-1]["twists"] == list(range(-3200, 3201))

    def test_tsv_without_rows_prints_each_payload_key(self, capsys):
        code, out = run(
            capsys, "check", "--variety", "pn:2", "--sheaf", "O(1)", "--format", "tsv"
        )
        assert code == 1
        criteria = (
            '[{"name": "hyper-vanishing", "note": "", "passed": false,'
            ' "twists": [-1, -2], "witness": [0, -1, 1]},'
            ' {"name": "degree 0: twisted-vanishing", "note": "", "passed": false,'
            ' "twists": [-1, -2], "witness": [0, -1, 1]},'
            ' {"name": "degree 0: initialized", "note": "global", "passed": false,'
            ' "twists": [-9, -8, -7, -6, -5, -4, -3, -2, -1], "witness": [0, -1, 1]},'
            ' {"name": "degree 0: section-count", "note": "h0 = 3, deg * rank = 1",'
            ' "passed": false, "twists": [0], "witness": [0, 0, 3]},'
            ' {"name": "degree 0: acm-window", "note": "", "passed": true,'
            ' "twists": [-9, -8, -7, -6, -5, -4, -3, -2, -1, 0, 1, 2, 3, 4],'
            ' "witness": null}]'
        )
        assert out == (
            "passed\tfalse\n"
            'mode\t"both"\n'
            f"criteria\t{criteria}\n"
            'object\t"O(1)"\n'
            "verdict\tfail\n"
        )

    def test_mode_flag(self, capsys):
        code, report = run_json(
            capsys, "check", "--variety", "pn:2", "--sheaf", "O(0)",
            "--mode", "direct",
        )
        assert report["payload"]["mode"] == "direct"


class TestChernSolve:
    def test_k3_rank_two(self, capsys):
        code, report = run_json(
            capsys, "chern-solve", "--surface", "d=4,i=0,chi=2", "--rank", "2"
        )
        assert code == 0
        assert report["payload"] == {"r": 2, "e1": "3", "e2": "1"}
        assert report["model"] == "surface:d=4,i=0,chi=2"

    def test_fractional_solution(self, capsys):
        code, report = run_json(
            capsys, "chern-solve", "--surface", "d=3,i=-1,chi=1", "--rank", "1"
        )
        assert code == 0
        assert report["payload"]["e1"] == "1"
        assert report["payload"]["e2"] == "1/6"


class TestCharge:
    def test_cross_point_agreement(self, capsys):
        code, report = run_json(
            capsys, "charge", "--surface", "d=4,i=0,chi=2", "--rank", "2",
            "--s", "0", "--t", "1",
        )
        assert code == 0
        payload = report["payload"]
        assert payload["central"] == {"re": "0", "im": "12"}
        assert payload["closed_form"] == {"re": "0", "im": "12"}
        assert payload["agree"] is True
        assert payload["slope"] == "3/2"

    def test_off_point_divergence_is_reported_honestly(self, capsys):
        code, report = run_json(
            capsys, "charge", "--surface", "d=4,i=0,chi=2", "--rank", "2",
            "--s", "1", "--t", "1",
        )
        assert code == 0
        payload = report["payload"]
        assert payload["central"] == {"re": "8", "im": "4"}
        assert payload["closed_form"] == {"re": "16", "im": "20"}
        assert payload["agree"] is False

    def test_rank_zero_slope_is_infinite(self, capsys):
        code, report = run_json(
            capsys, "charge", "--surface", "d=4,i=0,chi=2", "--rank", "0",
            "--s", "1", "--t", "1",
        )
        assert code == 0
        assert report["payload"] == {
            "class": {"r": 0, "e1": "0", "e2": "0"},
            "slope": "infinite",
            "s": "1",
            "t": "1",
            "central": {"re": "0", "im": "0"},
            "closed_form": {"re": "0", "im": "0"},
            "agree": True,
        }

    def test_exponent_notation_is_exit_two(self, capsys):
        code = main([
            "charge", "--surface", "d=4,i=0,chi=2", "--rank", "1",
            "--s", "1e1000000000", "--t", "1",
        ])
        captured = capsys.readouterr()
        assert code == 2
        report = json.loads(captured.out)
        jsonschema.validate(report, SCHEMA)
        assert "not a rational number" in report["error"]
        assert "Traceback" not in captured.out + captured.err

    def test_nonpositive_t_is_exit_two(self, capsys):
        code, report = run_json(
            capsys, "charge", "--surface", "d=4,i=0,chi=2", "--rank", "1",
            "--s", "0", "--t", "0",
        )
        assert code == 2


class TestGate:
    def test_deficient_is_exit_one(self, capsys):
        code, report = run_json(
            capsys, "gate", "--variety", "elliptic:3", "--bundles", "O(1)"
        )
        assert code == 1
        assert report["verdict"] == "DeficientRank"
        assert report["payload"] == {
            "verdict": "DeficientRank", "rank": 1, "needed": 2,
        }

    def test_full_rank_is_exit_zero(self, capsys):
        code, report = run_json(
            capsys, "gate", "--variety", "elliptic:3",
            "--bundles", "O(0);O(1)",
        )
        assert code == 0
        assert report["verdict"] == "FullRank"

    def test_unknown_lattice_is_exit_three(self, capsys):
        code, report = run_json(
            capsys, "gate", "--variety", "surface:d=4,i=0,chi=2",
            "--bundles", "O(0)",
        )
        assert code == 3

    def test_empty_bundles_is_exit_two(self, capsys):
        code, report = run_json(
            capsys, "gate", "--variety", "pn:2", "--bundles", ";"
        )
        assert code == 2


class TestScan:
    def write_object(self, tmp_path):
        data = {
            "variety": "surface:d=4,i=0,chi=2",
            "sheaves": {"0": "O(2)", "-1": "O(-1)"},
        }
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(data))
        return path

    def test_grid_rows(self, capsys, tmp_path):
        path = self.write_object(tmp_path)
        code, report = run_json(
            capsys, "scan", "--object", str(path),
            "--grid", "s=-1..1:1,t=1..2:1",
        )
        assert code == 0
        assert report["convention"] == "paper-literal"
        rows = report["payload"]["rows"]
        assert len(rows) == 6
        assert {"s", "t", "best_shift", "heart", "reason", "re", "im",
                "im_zero", "phase_sector", "phase"} <= set(rows[0])

    def test_convention_flag_is_echoed(self, capsys, tmp_path):
        path = self.write_object(tmp_path)
        code, report = run_json(
            capsys, "scan", "--object", str(path),
            "--grid", "s=0..0,t=1..1", "--convention", "normalized",
        )
        assert report["convention"] == "normalized"

    def test_malformed_grid_is_exit_two(self, capsys, tmp_path):
        path = self.write_object(tmp_path)
        for grid in ("s=0..1", "x=0..1,t=1..2", "s=1..0:-1,t=1..2"):
            code, report = run_json(
                capsys, "scan", "--object", str(path), "--grid", grid
            )
            assert code == 2, grid

    def test_a_range_without_dots_names_itself(self, capsys, tmp_path):
        path = self.write_object(tmp_path)
        code, report = run_json(
            capsys, "scan", "--object", str(path), "--grid", "s=0:1,t=1..2"
        )
        assert code == 2
        assert report["error"] == "grid range needs lo..hi, got '0:1'"
        assert report["payload"] is None


class TestDemo:
    def test_curated_cases_all_pass(self, capsys):
        code, report = run_json(capsys, "demo")
        assert code == 0
        assert report["verdict"] == "pass"
        cases = report["payload"]["cases"]
        assert len(cases) == 10
        assert all(case["passed"] for case in cases)
        names = {case["name"] for case in cases}
        assert "spinor-q3" in names and "yoneda-not-in-heart" in names


class TestEnvelope:
    def test_reports_are_deterministic(self, capsys):
        argv = ("check", "--variety", "pn:2", "--sheaf", "O(0)")
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, text = run(
            capsys, "chern-solve", "--surface", "d=4,i=0,chi=2",
            "--rank", "1", "--out", str(out),
        )
        assert out.read_text() == text

    def test_unwritable_out_file_is_exit_two(self, capsys, tmp_path):
        out = tmp_path / "missing" / "r.json"
        code = main(["table", "--variety", "pn:1", "--sheaf", "O(0)", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        # the file is written first, so only the error envelope is printed
        report = json.loads(captured.out)
        jsonschema.validate(report, SCHEMA)
        assert report["payload"] is None
        assert "cannot write the report" in report["error"]
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()

    def test_command_is_echoed(self, capsys):
        code, report = run_json(
            capsys, "chern-solve", "--surface", "d=4,i=0,chi=2", "--rank", "1"
        )
        assert report["command"] == "chern-solve --surface d=4,i=0,chi=2 --rank 1"
        assert report["tool"] == {
            "name": "ulrich-kit",
            "version": ulrich_kit.__version__,
        }

    def test_malformed_variety_is_exit_two(self, capsys):
        code, report = run_json(
            capsys, "table", "--variety", "plane:2", "--sheaf", "O(0)"
        )
        assert code == 2
        assert report["error"]

    def test_unknown_subcommand_exits_two(self, capsys):
        code, report = run_json(capsys, "frobnicate")
        assert code == 2
        assert "frobnicate" in report["error"]
        assert report["payload"] is None

    def test_bare_invocation_echoes_the_tool_name(self, capsys):
        code = main([])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        report = json.loads(captured.out)
        jsonschema.validate(report, SCHEMA)
        assert report["command"] == "ulrich-kit"
        assert report["error"] and report["payload"] is None

    @pytest.mark.parametrize("argv, words", [
        (["chern-solve", "--surface", "d=4,i=0,chi=2", "--rank", "x"], "--rank"),
        (["chern-solve", "--surface", "d=4,i=0,chi=2"], "required: --rank"),
        (["check", "--variety", "pn:2", "--sheaf", "O(0)", "--mode", "sideways"], "--mode"),
    ])
    def test_usage_errors_get_the_error_envelope(self, capsys, argv, words):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        report = json.loads(captured.out)
        jsonschema.validate(report, SCHEMA)
        assert words in report["error"]
        assert report["payload"] is None and report["verdict"] is None
        assert captured.err == ""

    def test_config_is_a_usage_error(self, capsys):
        code = main(["table", "--config", "x", "--variety", "pn:2", "--sheaf", "O(0)"])
        captured = capsys.readouterr()
        assert code == 2
        report = json.loads(captured.out)
        jsonschema.validate(report, SCHEMA)
        assert "unrecognized arguments: --config x" in report["error"]
        assert report["payload"] is None and report["verdict"] is None
        assert captured.err == ""

    def test_help_still_prints_help(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["chern-solve", "--help"])
        assert info.value.code == 0
        assert "--rank" in capsys.readouterr().out

    def test_error_reports_validate_too(self, capsys):
        code, report = run_json(
            capsys, "check", "--variety", "pn:2", "--sheaf", "O(a)"
        )
        assert code == 2
        assert report["verdict"] is None and report["payload"] is None


class TestHelpers:
    def test_choices_are_the_kit_s_own_tuples(self):
        subcommands = next(
            action.choices
            for action in ulrich_kit.cli.build_parser()._actions
            if action.dest == "subcommand"
        )

        def choices(command, dest):
            (action,) = [a for a in subcommands[command]._actions if a.dest == dest]
            return action.choices

        assert choices("check", "mode") is ulrich_kit.ulrich.MODES
        assert choices("scan", "convention") is ulrich_kit.bridgeland.CONVENTIONS

    def test_parse_window(self):
        assert _parse_window("-3:4") == (-3, 4)
        from ulrich_kit.errors import ParseError

        for text in ("3", "4:3", "a:b"):
            with pytest.raises(ParseError):
                _parse_window(text)

    def test_parse_grid_inclusive_endpoints(self):
        from fractions import Fraction

        grid = _parse_grid("s=-1..0:1/2,t=1..1")
        assert grid == [
            (Fraction(-1), Fraction(1)),
            (Fraction(-1, 2), Fraction(1)),
            (Fraction(0), Fraction(1)),
        ]

    def test_to_jsonable_rationals(self):
        from fractions import Fraction

        data = {"a": Fraction(1, 2), "b": [Fraction(3)], "c": {2: None}}
        assert to_jsonable(data) == {"a": "1/2", "b": ["3"], "c": {"2": None}}


class TestBoundaries:
    """Work is bounded before anything is allocated, and a defect in the
    kit gets its own exit code instead of a traceback."""

    def test_window_past_the_cap_is_exit_two(self, capsys):
        code, report = run_json(
            capsys, "table", "--variety", "pn:2", "--sheaf", "O(0)",
            "--window=-1000000000:0",
        )
        assert code == 2
        assert "twists" in report["error"]

    def test_grid_past_the_cap_is_exit_two(self, capsys, tmp_path):
        obj = tmp_path / "obj.json"
        obj.write_text(json.dumps({"variety": "pn:2", "sheaves": {"0": "O(0)"}}))
        code, report = run_json(
            capsys, "scan", "--object", str(obj),
            "--grid", "s=0..1000:1/1000000,t=1..1:1",
        )
        assert code == 2
        assert "points" in report["error"]

    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    def test_an_integer_too_long_to_print_is_exit_two(self, capsys, fmt):
        # h^0(O(10^600)) on P^8 has about 4,800 digits, past the
        # interpreter's limit for printing an integer
        code = main([
            "table", "--variety", "pn:8", "--sheaf", f"O(1{'0' * 600})",
            "--window=0:0", "--format", fmt,
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "too long to print" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_scan_coordinates_past_the_float_range(self, capsys, tmp_path):
        obj = tmp_path / "obj.json"
        obj.write_text(json.dumps({"variety": "surface:d=4,i=0,chi=2", "sheaves": {"0": "O(2)"}}))
        # re grows as t^2: past every float at t = 10^154, and past the
        # interpreter's limit for printing an integer at t = 10^2999
        big = "1" + "0" * 154
        code, report = run_json(
            capsys, "scan", "--object", str(obj), "--grid", f"s=-1..-1:1,t={big}..{big}:1"
        )
        assert code == 0
        (row,) = report["payload"]["rows"]
        assert row["phase_sector"] == "upper-half" and 0 < row["phase"] <= 1
        huge = "1" + "0" * 2999
        code = main(["scan", "--object", str(obj), "--grid", f"s=-1..-1:1,t={huge}..{huge}:1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "too long to print" in captured.out
        assert "internal error" not in captured.out

    def test_a_scan_phase_just_above_minus_one_is_in_range(self, capsys, tmp_path):
        obj = tmp_path / "obj.json"
        obj.write_text(json.dumps({"variety": "surface:d=4,i=0,chi=2", "sheaves": {"0": "O(2)"}}))
        s = "1" + "0" * 40
        code, report = run_json(
            capsys, "scan", "--object", str(obj), "--grid", f"s={s}..{s}:1,t=1..1:1"
        )
        assert code == 0
        (row,) = report["payload"]["rows"]
        assert row["phase_sector"] == "lower-half" and -1 < row["phase"] <= 1

    @pytest.mark.parametrize("sheaf", ["O({})", "{}*O(0)", "ss(1,{})"])
    def test_an_integer_too_long_to_read_is_exit_two(self, capsys, sheaf):
        variety = "elliptic:3" if sheaf.startswith("ss") else "pn:2"
        code, report = run_json(
            capsys, "table", "--variety", variety, "--sheaf", sheaf.format("7" * 5000),
        )
        assert code == 2
        assert "too long to read" in report["error"]

    def test_an_object_file_integer_too_long_to_read_is_exit_two(self, capsys, tmp_path):
        obj = tmp_path / "obj.json"
        obj.write_text(
            '{"variety": "pn:2", "sheaves": {"0": "O(0)", "-1": "O(0)"},'
            f' "glue": [{{"from": 0, "to": {"7" * 5000}}}]}}'
        )
        code, report = run_json(capsys, "check", "--object", str(obj))
        assert code == 2
        assert "too long to read" in report["error"]

    def test_a_default_window_past_the_cap_is_exit_two(self, capsys):
        # the dimension cap refuses pn:8000 before its default window,
        # 3 * 8000 + 8 twists, is built
        code, report = run_json(capsys, "table", "--variety", "pn:8000", "--sheaf", "O(0)")
        assert code == 2
        assert report["error"] == "model dimension 8000 exceeds the cap of 1000"

    def test_caps_admit_their_largest_value(self):
        assert _parse_window(f"0:{MAX_TWISTS - 1}") == (0, MAX_TWISTS - 1)
        assert len(_parse_grid(f"s=1..{MAX_GRID_POINTS}:1,t=1..1")) == MAX_GRID_POINTS

    def test_internal_error_is_exit_four_without_traceback(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("simulated defect")

        monkeypatch.setattr(ulrich_kit.cli, "_cmd_table", broken)
        code = main(["table", "--variety", "pn:2", "--sheaf", "O(0)"])
        captured = capsys.readouterr()
        assert code == 4
        report = json.loads(captured.out)
        jsonschema.validate(report, SCHEMA)
        assert "RuntimeError: simulated defect" in report["error"]
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("defect", ["call", "attribute", "nested"])
    def test_an_internal_error_names_the_frame_traceback_names(self, capsys, monkeypatch, defect):
        """The innermost frame, read off ``__traceback__``: the file, line
        and function ``traceback.extract_tb`` gives, on expressions that
        span lines too."""

        def inner(args):
            return int(
                "not a number"
            )

        def broken(args):
            if defect == "call":
                return int(
                    args.sheaf
                )
            if defect == "attribute":
                return (
                    args
                    .missing
                )
            return inner(
                args
            )

        argv = ["table", "--variety", "pn:2", "--sheaf", "O(0)"]
        monkeypatch.setattr(ulrich_kit.cli, "_cmd_table", broken)
        code = main(argv)
        report = json.loads(capsys.readouterr().out)
        try:
            broken(ulrich_kit.cli.build_parser().parse_args(argv))
        except Exception as exc:  # noqa: BLE001 - the same defect, raised here
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            where = f"{Path(frame.filename).name}:{frame.lineno} in {frame.name}"
            expected = f"internal error: {type(exc).__name__}: {exc} (at {where})"
        assert code == 4
        assert report["error"] == expected

    @pytest.mark.parametrize("defect", [ModeDisagreement, OracleDefect])
    def test_kit_defects_are_exit_four(self, capsys, monkeypatch, defect):
        def broken(*args, **kwargs):
            raise defect("simulated disagreement")

        monkeypatch.setattr(ulrich_kit.cli, "is_ulrich_object", broken)
        code = main(["check", "--variety", "pn:2", "--sheaf", "O(0)"])
        captured = capsys.readouterr()
        assert code == 4
        report = json.loads(captured.out)
        jsonschema.validate(report, SCHEMA)
        assert report["error"].startswith(
            f"internal error: {defect.__name__}: simulated disagreement (at "
        )
        assert "Traceback" not in captured.out + captured.err


# Generated command lines: mostly well-formed and matched to their model,
# with small numbers so every call stays cheap; one draw in four at each
# position is free text or a number out of range instead.
def noisy(valid, noise):
    return st.integers(1, 4).flatmap(lambda k: noise if k == 1 else valid)


MODEL_SPECS = [
    "pn:1", "pn:2", "pn:3", "quadric:2", "quadric:3", "quadric:4", "prod:1x1", "prod:1x2",
    "prod:2x2", "surface:d=4,i=0,chi=2", "surface:d=3,i=-1,chi=1", "elliptic:3", "elliptic:5",
]
small = st.integers(-3, 6).map(str)
spec_noise = st.one_of(
    st.builds("pn:{}".format, small),
    st.builds("prod:{}x{}".format, small, small),
    st.builds("surface:d={},i={},chi={}".format, small, small, small),
    st.text(max_size=12),
)
atom_noise = st.one_of(
    st.builds("O({},{})".format, small, small),
    st.builds("ss({},{},{})".format, small, small, st.sampled_from(["trivial", "x"])),
    st.text(alphabet="OS()+-*,0123456789 st", max_size=8),
)


def sheaf_texts(spec):
    """Sums of up to three atoms the model has, or noise."""
    twist = st.integers(-4, 4)
    if spec.startswith("prod"):
        atoms = [st.builds("O({},{})".format, twist, twist)]
    else:
        atoms = [st.builds("O({})".format, twist)]
    if spec.startswith("quadric"):
        atoms.append(st.sampled_from(["S", "S+", "S-"]))
    if spec.startswith("elliptic"):
        bits = st.sampled_from(["", ",trivial", ",nontrivial"])
        atoms.append(st.builds("ss({},{}{})".format, st.integers(1, 3), st.integers(-9, 9), bits))
    atom = noisy(st.one_of(atoms), atom_noise)
    parts = st.lists(st.tuples(st.sampled_from(["", "2*"]), atom), min_size=1, max_size=3)
    return noisy(parts.map(lambda ps: "+".join(m + a for m, a in ps)), st.text(max_size=12))


rational_texts = noisy(
    st.one_of(small, st.builds("{}/{}".format, small, st.integers(1, 4)), st.sampled_from(["1.5", "-.25"])),
    st.sampled_from(["1e3", "inf", "nan", "", "1/0", " 1 "]) | st.text(max_size=6),
)
window_texts = noisy(
    st.builds("{}:{}".format, st.integers(-12, 0), st.integers(0, 12)),
    st.builds("{}:{}".format, small, small) | st.text(max_size=8),
)
grid_texts = noisy(
    st.builds(
        "s={}..{}:{},t={}..{}:{}".format,
        small, small, st.sampled_from(["1", "1/2", "2"]), small, small, st.sampled_from(["1", "1/3"]),
    ),
    st.builds("s={}..{}:{},t={}..{}:{}".format, *[rational_texts] * 6) | st.text(max_size=16),
)
surface_texts = noisy(
    st.builds("d={},i={},chi={}".format, st.integers(1, 6), st.integers(-3, 2), st.integers(-1, 3)),
    st.builds("d={},i={},chi={}".format, small, small, small) | st.text(max_size=10),
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def object_files(spec):
    """The bytes of an object file on the model, or noise."""
    glue = st.fixed_dictionaries(
        {"from": st.integers(-2, 2), "to": st.integers(-2, 2)},
        optional={"nonzero": noisy(st.booleans(), json_values), "ext_degree": st.integers(1, 3)},
    )
    sheaves = st.dictionaries(st.integers(-2, 2).map(str), sheaf_texts(spec), max_size=3)
    valid = st.builds(
        lambda variety, sheaves, glue: json.dumps({"variety": variety, "sheaves": sheaves, "glue": glue}),
        noisy(st.just(spec), json_values),
        noisy(sheaves, json_values),
        noisy(st.lists(glue, max_size=2), json_values),
    )
    noise = json_values.map(json.dumps) | st.text(max_size=20)
    return noisy(valid, noise).map(str.encode) | st.binary(max_size=12)


@st.composite
def cli_calls(draw, object_path):
    """argv for one subcommand, with the object file's bytes."""
    command = draw(st.sampled_from(["table", "check", "gate", "scan", "charge", "chern-solve"]))
    spec = draw(noisy(st.sampled_from(MODEL_SPECS), spec_noise))
    argv = [command]

    def option(flag, values, required=True):
        if required or draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")

    object_arg = noisy(st.just(str(object_path)), st.just(str(object_path) + "-missing"))
    if command in ("table", "gate"):
        argv.append(f"--variety={spec}")
    if command == "table":
        option("--sheaf", sheaf_texts(spec))
        option("--window", window_texts, required=False)
    if command == "gate":
        option("--bundles", st.lists(sheaf_texts(spec), max_size=4).map(";".join))
    if command == "check":
        option("--variety", st.just(spec), required=False)
        option("--object", object_arg, required=False)
        option("--sheaf", sheaf_texts(spec), required=False)
        option("--mode", noisy(st.sampled_from(["direct", "sheafwise", "both"]), st.just("x")), required=False)
        option("--window", window_texts, required=False)
    if command == "scan":
        option("--variety", st.just(spec), required=False)
        option("--object", object_arg)
        option("--grid", grid_texts)
        option("--convention", noisy(st.sampled_from(["paper-literal", "normalized"]), st.just("x")), required=False)
    if command in ("charge", "chern-solve"):
        option("--surface", surface_texts)
        option("--rank", noisy(st.integers(1, 4).map(str), small | st.text(max_size=3)))
    if command == "charge":
        option("--s", rational_texts)
        option("--t", rational_texts)
    return argv, draw(object_files(spec))


@pytest.fixture(scope="module")
def object_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "object.json"


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_generated_command_lines_get_an_envelope_and_no_defect(object_path, data):
    argv, object_bytes = data.draw(cli_calls(object_path))
    object_path.write_bytes(object_bytes)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    report = json.loads(out.getvalue())
    jsonschema.validate(report, SCHEMA)
    assert code in (0, 1, 2, 3), report["error"]  # exit 4 is a defect in the kit
    assert "Traceback" not in out.getvalue() + err.getvalue()
