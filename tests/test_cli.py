import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import segrsk
from segrsk import checks, cli
from segrsk.checks import iter_multicharges, iter_multipartitions
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

    def test_phi_cell_cap_is_inclusive(self, capsys, monkeypatch):
        # 3 + 1 + 2 cells; the weights are never built above the cap
        argv = ("derive", "--phi", "[0,2]", "[1,1]", "[4,5]")
        monkeypatch.setattr(cli, "PHI_MAX_CELLS", 6)
        assert run_cli(capsys, *argv)[0] == 0
        monkeypatch.setattr(cli, "PHI_MAX_CELLS", 5)
        monkeypatch.setattr(cli.strings, "phi_multiseg", None)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "precondition error: inputs have 6 cells, above the cap 5\n"

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

    def test_pad_requires_restricted(self, capsys):
        code, out, err = run_cli(capsys, "specht", "--charge", "0,0", "--parts", "2|1", "--pad")
        assert (code, out) == (2, "")
        assert err == "precondition error: padding requires a restricted multipartition\n"

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("--charge", "0", "--parts", "100000000"),
                "multipartition has 100000000 cells, above the cap 10000",
            ),
            (
                ("--charge", "0", "--parts", ",".join(["1"] * 301)),
                "multipartition has 301 rows, above the cap 300",
            ),
            # the padding of an empty component at a far charge is huge
            (
                ("--charge", "100000000,0", "--parts", "|", "--pad"),
                "padded multipartition has 100000000 cells, above the cap 10000",
            ),
            (
                ("--charge", "100000000,0", "--parts", "|", "--verify-rsk"),
                "padded multipartition has 100000000 cells, above the cap 10000",
            ),
        ],
    )
    def test_size_caps_exit_2_before_any_work(self, capsys, monkeypatch, argv, message):
        for name in ("is_restricted", "multiseg_of", "pad"):
            monkeypatch.setattr(cli.specht, name, None)
        code, out, err = run_cli(capsys, "specht", *argv)
        assert (code, out) == (2, "")
        assert err == f"precondition error: {message}\n"
        code, out, _ = run_cli(capsys, "specht", *argv, "--json")
        assert code == 2
        assert json.loads(out) == {
            "status": "precondition_error",
            "payload": {},
            "diagnostics": [f"precondition error: {message}"],
        }

    def test_size_caps_are_inclusive(self, capsys, monkeypatch):
        # "2|2,1" padded under 1,0 is "3,1,1|3,2": 10 cells in 5 rows
        argv = ("specht", "--charge", "1,0", "--parts", "2|2,1", "--pad")
        monkeypatch.setattr(cli, "SPECHT_MAX_CELLS", 10)
        monkeypatch.setattr(cli, "SPECHT_MAX_ROWS", 5)
        assert run_cli(capsys, *argv)[0] == 0
        monkeypatch.setattr(cli, "SPECHT_MAX_ROWS", 4)
        assert run_cli(capsys, *argv)[2].endswith("has 5 rows, above the cap 4\n")
        monkeypatch.setattr(cli, "SPECHT_MAX_CELLS", 9)
        assert run_cli(capsys, *argv)[2].endswith("has 10 cells, above the cap 9\n")

    def test_padded_size_matches_the_padding(self):
        for kappa in iter_multicharges(-2, 2, 3):
            for mp in iter_multipartitions(kappa.level(), 4):
                unpadded = (mp.size(), sum(mu.length() for mu in mp))
                assert cli._specht_size(kappa, mp, padded=False) == unpadded
                if cli.specht.is_restricted(kappa, mp):
                    padded = cli.specht.pad(kappa, mp)
                    assert cli._specht_size(kappa, mp, padded=True) == (
                        padded.size(),
                        sum(mu.length() for mu in padded),
                    ), f"{kappa} {mp}"


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
        # 1,999 tableaux of 2,000 cells: under the cell cap
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
            assert set(suite) == {
                "cases",
                "failures",
                "notes",
                "exhaustive_through",
                "sampled",
                "elapsed_s",
                "cases_per_s",
            }
            assert suite["elapsed_s"] > 0
            assert suite["cases_per_s"] == pytest.approx(suite["cases"] / suite["elapsed_s"])
        assert payload["rsk"]["notes"] == ["exhaustive through size 2"]

    def test_json_reports_exhaustive_size_and_sample_count(self, capsys, monkeypatch):
        # all exhaustive but for strings' random additivity pairs
        argv = ("check", "--suite", "all", "--min", "-1", "--max", "1",
                "--max-segments", "2", "--sample", "3", "--level", "2")
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0
        payload = json.loads(out)["payload"]
        sizes = {name: (s["exhaustive_through"], s["sampled"]) for name, s in payload.items()}
        assert sizes == {
            "combi": (3, 0),
            "rsk": (2, 0),
            "kv": (2, 0),
            "tableaux": (6, 0),
            "strings": (2, 3),
            "specht": (2, 0),
        }
        # the text output and the notes stay as they were
        code, text, _ = run_cli(capsys, *argv)
        assert "exhaustive_through" not in text and "sampled" not in text
        assert payload["rsk"]["notes"] == ["exhaustive through size 2"]
        # sizes past the exhaustive budget are drawn at random
        monkeypatch.setattr(checks, "EXHAUSTIVE_INSTANCES", 10)
        code, out, _ = run_cli(
            capsys, "check", "--suite", "rsk", "--min", "-1", "--max", "1",
            "--max-segments", "2", "--sample", "5", "--json",
        )
        rsk = json.loads(out)["payload"]["rsk"]
        assert (rsk["cases"], rsk["exhaustive_through"], rsk["sampled"]) == (11, 1, 5)
        # combi samples the triples of its 10-element domain past 100 tuples
        monkeypatch.setattr(checks, "EXHAUSTIVE_TUPLES", 100)
        code, out, _ = run_cli(
            capsys, "check", "--suite", "combi", "--min", "0", "--max", "1",
            "--max-segments", "2", "--sample", "4", "--json",
        )
        combi = json.loads(out)["payload"]["combi"]
        assert (combi["exhaustive_through"], combi["sampled"]) == (2, 4)

    @pytest.mark.parametrize(
        "bounds, message",
        [
            # each of these ended in a MemoryError traceback (exit 1) or ran
            # for minutes before the size rules
            (("--suite", "rsk", "--max-segments", "1000000000"), "segments per instance"),
            (
                ("--suite", "strings", "--min", "-100000", "--max", "100000",
                 "--max-segments", "2"),
                "support reaches 100000",
            ),
            (
                ("--suite", "combi", "--min", "-10", "--max", "10", "--max-segments", "4"),
                "combi would hold 123856041 multisegments",
            ),
            (
                ("--suite", "rsk", "--min", "-10", "--max", "10", "--max-segments", "6"),
                "kv would check 5845994231 cases",
            ),
            # the pool alone, without the support cap
            (
                ("--suite", "rsk", "--min", "0", "--max", "1000", "--max-segments", "1"),
                "rsk would hold",
            ),
        ],
    )
    def test_size_rules_exit_2_before_any_suite(self, capsys, monkeypatch, bounds, message):
        for suite in ("suite_combi", "suite_rsk", "suite_kv", "suite_strings"):
            monkeypatch.setattr(checks, suite, None)
        code, out, err = run_cli(capsys, "check", *bounds)
        assert (code, out) == (2, "")
        assert err.startswith("precondition error: ") and message in err
        code, out, _ = run_cli(capsys, "check", *bounds, "--json")
        assert code == 2
        report = json.loads(out)
        assert (report["status"], report["payload"]) == ("precondition_error", {})
        assert message in report["diagnostics"][0]

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


def _run_module(
    *argv: str, timeout: float | None = None, address_space: int | None = None
) -> subprocess.CompletedProcess:
    """Run `python -m segrsk argv`, capping the child's address space if asked."""
    # the child imports segrsk from the same tree as this test process
    src = str(Path(segrsk.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def cap_child():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", "segrsk", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
        preexec_fn=cap_child if address_space is not None else None,
    )


def test_module_entry_point():
    proc = _run_module("rsk", "[1,1]+[1,2]", "--width")
    assert proc.returncode == 0
    assert "width: 2" in proc.stdout


def test_bz_cost_does_not_grow_with_t():
    # the derivative visits the begins of the input, not all 2T + 1 indices
    proc = _run_module("derive", "--bz", "100000000", "[1,2]+[0,3]", timeout=10)
    assert proc.returncode == 0
    assert proc.stdout == "[2,2]+[1,3]\n"


def test_bz_cost_does_not_grow_with_segment_length():
    # the support check reads segment endpoints, not the dense weight
    proc = _run_module("derive", "--bz", "100000000", "[0,100000000]", timeout=10)
    assert proc.returncode == 0
    assert proc.stdout == "[1,100000000]\n"


def test_phi_refuses_long_segments_before_building_weights():
    # the dense weights of two 10^8-cell inputs would not fit in 1.5 GB
    proc = _run_module(
        "derive", "--phi", "[0,100000000]", "[0,100000000]",
        timeout=10, address_space=1_500_000_000,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        f"precondition error: inputs have 200000002 cells, above the cap {cli.PHI_MAX_CELLS}\n"
    )


# The argv grammar of the fuzz test below.  Segments, partition parts,
# shapes and check bounds may be huge: rsk and derive read segment
# endpoints, except `derive --phi`, whose cell cap refuses long segments
# first, as the specht, tableaux and check size caps refuse the rest.
_junk = st.sampled_from(
    ["", " ", "x", "-", "--", "--bogus", "[", "[2,1]", "[1,2", "[a,b]", "[1,2]+", "1,,2", "|", "3,1|", "0"]
) | st.text(max_size=4)
_huge = st.sampled_from(["100000000", "-100000000", str(10**30)])
_small_int = st.integers(-3, 3).map(str)
_segment = st.tuples(st.integers(-3, 3), st.integers(0, 3)).map(
    lambda p: f"[{p[0]},{p[0] + p[1]}]"
) | st.just("[0,100000000]")
_multisegment = st.just("0") | st.lists(_segment, min_size=1, max_size=5).map("+".join)
_partition = st.lists(st.integers(1, 3), max_size=3).map(
    lambda parts: ",".join(map(str, sorted(parts, reverse=True)))
)
_charges = st.lists(st.integers(-2, 2), min_size=1, max_size=3).map(
    lambda ks: ",".join(map(str, sorted(ks, reverse=True)))
)


def _or_junk(good):
    """Well-formed values three times in four, malformed tokens otherwise."""
    return st.one_of(good, good, good, _junk)


def _flags(*names: str):
    return st.lists(st.sampled_from(names), unique=True).map(lambda picked: [[f] for f in picked])


def _option(name: str, values, required: bool = False):
    return st.lists(values.map(lambda v: [name, v]), min_size=int(required), max_size=1)


def _command(name: str, *groups):
    """The subcommand, then its option groups in any order."""
    return st.tuples(*groups).flatmap(
        lambda parts: st.permutations([g for part in parts for g in part]).map(
            lambda order: [name] + [tok for g in order for tok in g]
        )
    )


_argvs = st.one_of(
    _command(
        "rsk", _or_junk(_multisegment).map(lambda m: [[m]]), _flags("--width", "--bitableau", "--json")
    ),
    _command(
        "derive",
        st.lists(_or_junk(_multisegment), min_size=1, max_size=3).map(lambda ms: [ms]),
        _option("--bz", _or_junk(st.integers(0, 3).map(str) | _huge)),
        _option("--single", _or_junk(_small_int | _huge)),
        _flags("--phi", "--gamma-descriptor", "--derived", "--json"),
    ),
    _command(
        "specht",
        _option("--charge", _or_junk(_charges), required=True),
        _option(
            "--parts",
            _or_junk(st.lists(_partition | _huge, min_size=1, max_size=3).map("|".join)),
            required=True,
        ),
        _flags("--pad", "--derive", "--verify-rsk", "--json"),
    ),
    _command(
        "tableaux",
        _option("--shape", _or_junk(_partition | _huge), required=True),
        _option("--charge", _or_junk(_small_int | _huge)),
        _flags("--json"),
    ),
    _command(
        "check",
        _option("--suite", _or_junk(st.sampled_from(["combi", "rsk", "specht", "strings", "all"]))),
        _option("--min", st.integers(-1, 1).map(str) | _huge, required=True),
        _option("--max", st.integers(-1, 1).map(str) | _huge, required=True),
        _option("--max-segments", st.integers(-1, 2).map(str) | _huge, required=True),
        _option("--sample", st.integers(-1, 5).map(str) | _huge, required=True),
        _option("--level", st.integers(0, 2).map(str) | _huge, required=True),
        _option("--seed", _small_int | _huge),
        _flags("--json"),
    ),
    st.lists(_junk, max_size=3),
)


@settings(max_examples=150, deadline=None)
@given(_argvs)
def test_any_argv_ends_in_a_documented_exit_code(argv):
    """Every argv exits 0 to 4, argparse's usage exit 2 included.

    `check` draws are small (support in [-1, 1], at most 2 segments, sample
    at most 5, level at most 2) or huge; a huge bound either costs nothing
    (a far but narrow support, a sample past the whole domain) or breaks a
    size rule of run_suite (exit 2).
    """
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in range(5), (argv, sink.getvalue())
