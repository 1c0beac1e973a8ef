import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import segrsk
from segrsk.cli import main
from segrsk.errors import InvariantViolation, ShapeViolation, SizeGuardExceeded


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRskCommand:
    def test_basic(self, capsys):
        code, out, _ = run_cli(capsys, "rsk", "[1,1]+[1,2]")
        assert code == 0
        assert out.strip() == "[1,2] ; [1,1]"

    def test_empty(self, capsys):
        code, out, _ = run_cli(capsys, "rsk", "0")
        assert code == 0
        assert out.strip() == ""

    def test_parse_error_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "rsk", "[2,1]")
        assert code == 1
        assert "parse error" in err

    def test_bitableau_precondition_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "rsk", "0", "--bitableau")
        assert code == 2
        assert "precondition" in err

    def test_parse_error_json_envelope(self, capsys):
        code, out, _ = run_cli(capsys, "rsk", "[2,1]", "--json")
        assert code == 1
        report = json.loads(out)
        assert report["status"] == "parse_error"
        assert report["diagnostics"][0].startswith("parse error")

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "rsk", "[1,1]+[1,2]", "--json", "--width", "--bitableau"
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["ladders"] == [[[1, 2]], [[1, 1]]]
        assert payload["width"] == 2
        assert payload["P"] == [[1], [1]]
        assert payload["Q"] == [[3], [2]]


class TestDeriveCommand:
    def test_bz(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "--bz", "3", "[1,3]+[2,2]")
        assert code == 0
        assert out.strip() == "[2,3]"

    def test_single_noop(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "--single", "5", "[1,3]")
        assert code == 0
        assert out.strip() == "[1,3]"

    def test_single_precondition(self, capsys):
        code, _, err = run_cli(capsys, "derive", "--single", "1", "[1,3]+[2,3]")
        assert code == 2
        assert "[2,3]" in err

    def test_plain(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "[1,3]+[2,2]")
        assert code == 0
        assert out.strip() == "[2,3]"

    def test_derived_descriptor(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "--derived", "[1,1]+[1,1]")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "0 ; 0"
        assert lines[1] == "shift: 1"

    def test_gamma_descriptor(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "--gamma-descriptor", "[1,1]+[1,1]")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "[1,1] ; [1,1]"
        assert lines[1] == "shift: 2"

    def test_phi(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "--phi", "[2,2]", "[1,1]")
        assert code == 0
        assert out.strip() == "phi: 1"

    def test_bz_support_precondition(self, capsys):
        code, _, _ = run_cli(capsys, "derive", "--bz", "2", "[1,3]")
        assert code == 2

    @pytest.mark.parametrize("text", ["[1,3]", "0"])
    def test_negative_bz_precondition(self, capsys, text):
        code, out, err = run_cli(capsys, "derive", "--bz", "-1", text)
        assert code == 2
        assert out == ""
        assert "precondition error" in err and "non-negative" in err
        assert "[--1" not in err

    def test_single_and_bz_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["derive", "--single", "1", "--bz", "3", "[1,3]"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_usage_error_json_envelope(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["derive", "--single", "1", "--bz", "3", "--json", "[1,3]"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: segrsk derive")
        assert "error: argument --bz: not allowed with argument --single" in captured.err
        assert json.loads(captured.out) == {
            "status": "usage_error",
            "payload": {},
            "diagnostics": ["argument --bz: not allowed with argument --single"],
        }

    def test_usage_error_without_json_prints_no_envelope(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["derive", "--single", "1", "--bz", "3", "[1,3]"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestSpechtCommand:
    def test_proper_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "specht",
            "--charge",
            "2,1,-1",
            "--parts",
            "4,2,2,2,1|3,3,2,2|3,2",
        )
        assert code == 0
        assert "restricted: True" in out
        assert "proper: True" in out

    def test_improper_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "specht", "--charge", "2,1,-1", "--parts", "4,3,2|3,3,2|3,1"
        )
        assert code == 0
        assert "restricted: True" in out
        assert "proper: False" in out

    def test_verify_rsk(self, capsys):
        code, out, _ = run_cli(
            capsys, "specht", "--charge", "0", "--parts", "1", "--verify-rsk", "--json"
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["gamma"] == {}
        assert payload["restricted"] is True
        assert {"specht_rsk": True} in payload["checks"]

    def test_verify_rsk_requires_restricted(self, capsys):
        code, _, err = run_cli(
            capsys, "specht", "--charge", "0,0", "--parts", "2|1", "--verify-rsk"
        )
        assert code == 2
        assert "restricted" in err

    def test_pad_and_derive(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "specht",
            "--charge",
            "1,0",
            "--parts",
            "2|2,1",
            "--pad",
            "--derive",
        )
        assert code == 0
        assert "padded: 3,1,1|3,2" in out
        assert "column removal: pass" in out

    def test_bad_charge_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "specht", "--charge", "0,1", "--parts", "1|1")
        assert code == 1


class TestTableauxCommand:
    def test_output(self, capsys):
        code, out, _ = run_cli(capsys, "tableaux", "--shape", "2,1", "--json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["count"] == 2
        assert payload["tableaux"][0]["rows"] == [[1, 2], [3]]
        assert payload["tableaux"][0]["residues"] == [0, 1, -1]

    @pytest.mark.parametrize("shape", ["5,5,5,5", "6,6,6,6,6"])
    def test_count_above_cap_exit_2(self, capsys, monkeypatch, shape):
        import segrsk.tableaux as tableaux_mod

        def refuse(shape):
            raise AssertionError("enumerated a shape above the cap")

        monkeypatch.setattr(tableaux_mod, "standard_tableaux", refuse)
        code, out, err = run_cli(capsys, "tableaux", "--shape", shape, "--json")
        assert code == 2
        assert "above the cap" in err
        report = json.loads(out)
        assert report["status"] == "precondition_error"
        assert "above the cap" in report["diagnostics"][0]

    def test_cap_is_inclusive(self, capsys, monkeypatch):
        import segrsk.cli as cli_mod

        # shape 2,1 has exactly two standard tableaux
        monkeypatch.setattr(cli_mod, "TABLEAUX_CAP", 2)
        assert run_cli(capsys, "tableaux", "--shape", "2,1")[0] == 0
        monkeypatch.setattr(cli_mod, "TABLEAUX_CAP", 1)
        assert run_cli(capsys, "tableaux", "--shape", "2,1")[0] == 2

    def test_cell_cap_is_inclusive(self, capsys, monkeypatch):
        import segrsk.cli as cli_mod

        monkeypatch.setattr(cli_mod, "TABLEAUX_MAX_CELLS", 3)
        assert run_cli(capsys, "tableaux", "--shape", "2,1")[0] == 0
        monkeypatch.setattr(cli_mod, "TABLEAUX_MAX_CELLS", 2)
        assert run_cli(capsys, "tableaux", "--shape", "2,1")[0] == 2

    def test_output_cell_cap_is_inclusive(self, capsys, monkeypatch):
        import segrsk.cli as cli_mod

        # shape 2,1 lists two tableaux of three cells
        monkeypatch.setattr(cli_mod, "TABLEAUX_MAX_OUTPUT_CELLS", 6)
        assert run_cli(capsys, "tableaux", "--shape", "2,1")[0] == 0
        monkeypatch.setattr(cli_mod, "TABLEAUX_MAX_OUTPUT_CELLS", 5)
        assert run_cli(capsys, "tableaux", "--shape", "2,1")[0] == 2

    def test_output_cells_above_cap_exit_2_before_enumerating(self, capsys, monkeypatch):
        import segrsk.tableaux as tableaux_mod

        def refuse(shape):
            raise AssertionError("enumerated a shape above the output cap")

        monkeypatch.setattr(tableaux_mod, "standard_tableaux", refuse)
        # 1,999 tableaux of 2,000 cells: under the cell cap and the count cap
        code, out, err = run_cli(capsys, "tableaux", "--shape", "1999,1", "--json")
        assert code == 2
        assert "lists 3998000 cells in its tableaux, above the cap 1000000" in err
        report = json.loads(out)
        assert report["status"] == "precondition_error"
        assert report["diagnostics"] == err.splitlines()

    def test_long_shape_lists_its_one_tableau(self, capsys):
        code, out, _ = run_cli(capsys, "tableaux", "--shape", "1200", "--json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["count"] == 1
        assert payload["tableaux"][0]["rows"] == [list(range(1, 1201))]

    @pytest.mark.parametrize("shape", ["100000", "2001", "1000,1000,1"])
    def test_cells_above_cap_exit_2_before_counting(self, capsys, monkeypatch, shape):
        import segrsk.oracle as oracle_mod

        def refuse(shape):
            raise AssertionError("counted a shape above the cell cap")

        monkeypatch.setattr(oracle_mod, "hook_length_count", refuse)
        code, out, err = run_cli(capsys, "tableaux", "--shape", shape, "--json")
        assert code == 2
        assert "cells, above the cap 2000" in err
        report = json.loads(out)
        assert report["status"] == "precondition_error"
        assert report["diagnostics"] == err.splitlines()


class TestExitCodeTable:
    @pytest.mark.parametrize(
        "kind, code, status",
        [
            (InvariantViolation, 4, "internal_error"),
            (ShapeViolation, 4, "internal_error"),
            (SizeGuardExceeded, 2, "precondition_error"),
        ],
    )
    def test_library_exceptions(self, capsys, monkeypatch, kind, code, status):
        import segrsk.rsk as rsk_mod

        def broken(m):
            raise kind("identity broken")

        monkeypatch.setattr(rsk_mod, "rsk_transform", broken)
        got, out, err = run_cli(capsys, "rsk", "[1,1]+[1,2]")
        assert got == code
        assert out == ""
        assert "identity broken" in err
        got, out, err = run_cli(capsys, "rsk", "[1,1]+[1,2]", "--json")
        assert got == code
        report = json.loads(out)
        assert report["status"] == status
        assert report["payload"] == {}
        assert "identity broken" in report["diagnostics"][0]
        assert report["diagnostics"] == err.splitlines()

    def test_internal_error_prints_reproduction(self, capsys, monkeypatch):
        import segrsk.rsk as rsk_mod

        def broken(m):
            raise InvariantViolation("identity broken")

        monkeypatch.setattr(rsk_mod, "rsk_transform", broken)
        code, _, err = run_cli(capsys, "rsk", "[1,1]+[1,2]", "--width")
        assert code == 4
        assert err.splitlines() == [
            "internal error: identity broken",
            "reproduce: segrsk rsk '[1,1]+[1,2]' --width",
        ]

    def test_input_errors_print_no_reproduction(self, capsys):
        _, _, err = run_cli(capsys, "rsk", "[2,1]")
        assert err.splitlines() == ["parse error: segment begin exceeds end in '[2,1]'"]


class TestCheckCommand:
    def test_trivial_domain_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--suite", "all", "--max-segments", "0")
        assert code == 0
        assert "FAIL" not in out

    def test_small_combi(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check",
            "--suite",
            "combi",
            "--min",
            "0",
            "--max",
            "1",
            "--max-segments",
            "2",
        )
        assert code == 0
        assert "combi: pass" in out

    def test_json_reports_time_per_suite(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--suite", "rsk", "--max-segments", "2", "--json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert set(payload) == {"rsk", "kv", "tableaux"}
        for suite in payload.values():
            assert set(suite) == {"cases", "failures", "notes", "elapsed_s", "cases_per_s"}
            assert suite["elapsed_s"] > 0
            assert suite["cases_per_s"] == pytest.approx(suite["cases"] / suite["elapsed_s"])
        assert payload["rsk"]["notes"] == ["exhaustive through size 2"]

    def test_text_output_carries_no_timing(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--suite", "rsk", "--max-segments", "1")
        assert code == 0
        assert "elapsed" not in out and "cases_per_s" not in out

    @pytest.mark.parametrize(
        "bounds",
        [
            ("--min", "3", "--max", "1"),
            ("--max-segments", "-1"),
            # a level cap below 1 or a negative sample would check nothing
            ("--level", "0"),
            ("--level", "-1"),
            ("--sample", "-1"),
        ],
    )
    def test_bad_bounds_exit_2(self, capsys, bounds):
        code, out, err = run_cli(capsys, "check", "--suite", "rsk", *bounds)
        assert code == 2
        assert out == ""
        assert "precondition error" in err

    def test_bad_bounds_json_envelope(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--min", "3", "--max", "1", "--json"
        )
        assert code == 2
        report = json.loads(out)
        assert report["status"] == "precondition_error"
        assert report["payload"] == {}
        assert "exceeds" in report["diagnostics"][0]

    def test_bad_level_and_sample_json_envelope(self, capsys):
        for flags, word in ((("--level", "0"), "level cap"), (("--sample", "-1"), "sample size")):
            code, out, _ = run_cli(capsys, "check", *flags, "--json")
            assert code == 2
            report = json.loads(out)
            assert report["status"] == "precondition_error"
            assert report["payload"] == {}
            assert word in report["diagnostics"][0]

    def test_failure_exit_3(self, capsys, monkeypatch):
        import segrsk.strings as strings_mod

        true_ell = strings_mod.ell_form
        monkeypatch.setattr(
            strings_mod, "ell_form", lambda b1, b2: -true_ell(b1, b2)
        )
        code, out, _ = run_cli(
            capsys,
            "check",
            "--suite",
            "combi",
            "--min",
            "0",
            "--max",
            "1",
            "--max-segments",
            "1",
        )
        assert code == 3
        assert "counterexample" in out
        assert "segrsk check --suite combi" in out  # reproduction command line


def test_module_entry_point():
    # the child imports segrsk from the same tree as this test process
    src = str(Path(segrsk.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "segrsk", "rsk", "[1,1]+[1,2]", "--width"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "width: 2" in proc.stdout
