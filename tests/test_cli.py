"""Command-line surface: envelopes, exit codes, formats, config, and
determinism.  Every captured report is validated against the shipped
JSON schema."""

import json
from pathlib import Path

import pytest

import ulrich_kit
from ulrich_kit.cli import main, to_jsonable, _parse_grid, _parse_window

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
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_error_reports_validate_too(self, capsys):
        code, report = run_json(
            capsys, "check", "--variety", "pn:2", "--sheaf", "O(a)"
        )
        assert code == 2
        assert report["verdict"] is None and report["payload"] is None


class TestConfig:
    def test_window_default_from_config(self, capsys, tmp_path):
        config = tmp_path / "kit.conf"
        config.write_text("window = -3:3  # narrow\n")
        code, report = run_json(
            capsys, "table", "--variety", "pn:2", "--sheaf", "O(0)",
            "--config", str(config),
        )
        assert report["payload"]["window"] == [-3, 3]

    def test_flag_overrides_config(self, capsys, tmp_path):
        config = tmp_path / "kit.conf"
        config.write_text("window=-3:3\n")
        code, report = run_json(
            capsys, "table", "--variety", "pn:2", "--sheaf", "O(0)",
            "--config", str(config), "--window=-2:2",
        )
        assert report["payload"]["window"] == [-2, 2]

    def test_convention_default_from_config(self, capsys, tmp_path):
        config = tmp_path / "kit.conf"
        config.write_text("slope_convention=normalized\n")
        data = {"variety": "surface:d=4,i=0,chi=2", "sheaves": {"0": "O(2)"}}
        obj = tmp_path / "object.json"
        obj.write_text(json.dumps(data))
        code, report = run_json(
            capsys, "scan", "--object", str(obj), "--grid", "s=0..0,t=1..1",
            "--config", str(config),
        )
        assert report["convention"] == "normalized"

    def test_unknown_key_is_exit_two(self, capsys, tmp_path):
        config = tmp_path / "kit.conf"
        config.write_text("depth=3\n")
        code, report = run_json(
            capsys, "table", "--variety", "pn:2", "--sheaf", "O(0)",
            "--config", str(config),
        )
        assert code == 2

    def test_negative_probe_depth_is_exit_two(self, capsys, tmp_path):
        config = tmp_path / "kit.conf"
        config.write_text("probe_depth=-3\n")
        code, report = run_json(
            capsys, "check", "--variety", "pn:2", "--sheaf", "O(0)",
            "--config", str(config),
        )
        assert code == 2
        assert "probe_depth" in report["error"]

    def test_missing_config_file_is_exit_two(self, capsys, tmp_path):
        code, report = run_json(
            capsys, "table", "--variety", "pn:2", "--sheaf", "O(0)",
            "--config", str(tmp_path / "absent.conf"),
        )
        assert code == 2


class TestHelpers:
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
