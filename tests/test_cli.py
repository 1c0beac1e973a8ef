import contextlib
import io
import json
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import segrsk
from _size_rules import CHECK_SUITES, assert_cap_is_inclusive, assert_refused
from segrsk import checks, cli, oracle, rsk, specht, strings, tableaux
from segrsk.checks import iter_multicharges, iter_multipartitions
from segrsk.cli import main
from segrsk.errors import InvariantViolation, ShapeViolation, SizeGuardExceeded


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _doubled_chain(k: int) -> str:
    """Two equal ll-chains of k segments [i-2, i]: the first peel leaves
    one chain of k as its rest."""
    chain = "+".join(f"[{i - 2},{i}]" for i in range(k))
    return f"{chain}+{chain}"


# the rsk-transform modes and the library function each one peels through
_PEELING_MODES = [
    (("rsk",), "rsk", "rsk_transform"),
    (("derive", "--gamma-descriptor"), "tableaux", "gamma_descriptor"),
    (("derive", "--derived"), "tableaux", "gamma_descriptor"),
]


class TestSegmentCap:
    """rsk and the descriptor modes of derive refuse long inputs before peeling."""

    @pytest.mark.parametrize("mode, module, name", _PEELING_MODES)
    def test_cap_is_inclusive(self, capsys, monkeypatch, mode, module, name):
        assert_cap_is_inclusive(
            capsys, monkeypatch, "cli.RSK_MAX_SEGMENTS", [*mode, "[0,0]+[0,1]+[1,1]"], 3,
            "input has 3 segments, above the cap 2",
            never=(getattr(getattr(cli, module), name), rsk.knuth_viennot),
        )

    @pytest.mark.parametrize("mode, module, name", _PEELING_MODES)
    def test_one_above_the_cap_exits_2_before_peeling(
        self, capsys, monkeypatch, mode, module, name
    ):
        cap = cli.RSK_MAX_SEGMENTS
        assert_refused(
            capsys, monkeypatch, [*mode, "+".join(["[0,0]"] * (cap + 1))],
            f"input has {cap + 1} segments, above the cap {cap}",
            never=(getattr(getattr(cli, module), name), rsk.knuth_viennot),
        )

    def test_deepest_input_at_the_cap_is_admitted(self, capsys):
        # the permissibility search recurses along the longest chain of the
        # rest, at most half the segments: two equal chains reach it
        code, out, _ = run_cli(capsys, "rsk", "--json", _doubled_chain(cli.RSK_MAX_SEGMENTS // 2))
        assert code == 0
        assert json.loads(out)["payload"]["width"] == 2


class TestRskCommand:
    def test_basic(self, capsys):
        code, out, _ = run_cli(capsys, "rsk", "[1,1]+[1,2]")
        assert code == 0
        assert out.strip() == "[1,2] ; [1,1]"

    def test_parse_error_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "rsk", "[2,1]")
        assert code == 1
        assert "parse error" in err

    def test_bitableau_precondition_exit_2(self, capsys, monkeypatch):
        argv = ["rsk", "0", "--bitableau"]
        assert_refused(capsys, monkeypatch, argv, "empty multisegment has no bitableau")

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


# three inputs of 3 + 1 + 2 cells
PHI_ARGV = ["derive", "--phi", "[0,2]", "[1,1]", "[4,5]"]


class TestDeriveCommand:
    def test_single_noop(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "--single", "5", "[1,3]")
        assert code == 0
        assert out.strip() == "[1,3]"

    def test_single_precondition(self, capsys, monkeypatch):
        argv = ["derive", "--single", "1", "[1,3]+[2,3]"]
        assert_refused(capsys, monkeypatch, argv, "segment [2,3] of [1,3]+[2,3] begins at 2")

    def test_derived_descriptor(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "--derived", "[1,1]+[1,1]")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "0 ; 0"
        assert lines[1] == "shift: 1"

    def test_gamma_descriptor_with_derived_is_the_derived_one(self, capsys):
        argv = ("derive", "--gamma-descriptor", "--derived", "[1,1]+[1,1]")
        assert run_cli(capsys, *argv) == run_cli(capsys, "derive", "--derived", "[1,1]+[1,1]")

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
        # the weights are never built above the cap
        assert_cap_is_inclusive(
            capsys, monkeypatch, "cli.PHI_MAX_CELLS", PHI_ARGV, 6,
            "inputs have 6 cells, above the cap 5", never=(strings.phi_multiseg,),
        )

    @pytest.mark.parametrize("mode", [("--phi",), ("--bz", "3"), ("--single", "1"), ()])
    def test_segment_cap_is_inclusive_in_every_mode(self, capsys, monkeypatch, mode):
        assert_cap_is_inclusive(
            capsys, monkeypatch, "cli.RSK_MAX_SEGMENTS", ["derive", *mode, "[0,0]+[0,1]+[1,1]"],
            3, "input has 3 segments, above the cap 2",
            never=(strings.phi_multiseg, strings.bz_derivative, strings.single_derivative),
        )

    def test_bz_one_above_the_segment_cap_exits_2_before_deriving(self, capsys, monkeypatch):
        # --bz rebuilds the input at each distinct begin, quadratic in its length
        cap = cli.RSK_MAX_SEGMENTS
        argv = ["derive", "--bz", str(cap), "+".join(f"[{i},{i}]" for i in range(cap + 1))]
        message = f"input has {cap + 1} segments, above the cap {cap}"
        assert_refused(capsys, monkeypatch, argv, message, never=(strings.bz_derivative,))

    def test_phi_input_cap_is_inclusive(self, capsys, monkeypatch):
        assert_cap_is_inclusive(
            capsys, monkeypatch, "cli.PHI_MAX_INPUTS", PHI_ARGV, 3, "3 inputs, above the cap 2",
            never=(strings.phi_multiseg,),
        )

    def test_phi_on_2000_inputs_exits_2_at_once(self, capsys, monkeypatch):
        # Phi walks every pair of inputs: 2,000 of them took 9.7 s
        argv = ["derive", "--phi", *["[0,0]"] * 2000]
        message = f"2000 inputs, above the cap {cli.PHI_MAX_INPUTS}"
        assert_refused(capsys, monkeypatch, argv, message, never=(strings.phi_multiseg,))

    def test_bz_support_precondition(self, capsys, monkeypatch):
        argv = ["derive", "--bz", "2", "[1,3]"]
        assert_refused(capsys, monkeypatch, argv, "support of wt([1,3]) exceeds [-2,2]")

    @pytest.mark.parametrize("text", ["[1,3]", "0"])
    def test_negative_bz_precondition(self, capsys, monkeypatch, text):
        argv = ["derive", "--bz", "-1", text]
        assert_refused(capsys, monkeypatch, argv, "BZ parameter must be non-negative, got -1")

    def test_single_and_bz_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["derive", "--single", "1", "--bz", "3", "[1,3]"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, later, earlier",
        [
            (("--phi", "--bz", "3"), "--bz", "--phi"),
            (("--single", "1", "--phi"), "--phi", "--single"),
            (("--phi", "--gamma-descriptor"), "--gamma-descriptor", "--phi"),
            (("--gamma-descriptor", "--bz", "2"), "--bz", "--gamma-descriptor"),
            (("--single", "1", "--gamma-descriptor"), "--gamma-descriptor", "--single"),
            # --derived is checked after parsing, so it is always named first
            (("--phi", "--derived"), "--derived", "--phi"),
            (("--derived", "--bz", "2"), "--derived", "--bz"),
            (("--single", "1", "--derived"), "--derived", "--single"),
        ],
    )
    def test_modes_exclusive(self, capsys, flags, later, earlier):
        with pytest.raises(SystemExit) as exc:
            main(["derive", *flags, "--json", "[1,2]"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        message = f"argument {later}: not allowed with argument {earlier}"
        assert captured.err.startswith("usage: segrsk derive")
        assert captured.err.endswith(f"error: {message}\n")
        assert json.loads(captured.out) == {
            "status": "usage_error",
            "payload": {},
            "diagnostics": [message],
        }

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


# what `specht` computes once its size caps admit the request
SPECHT_WORK = (specht.is_restricted, specht.multiseg_of, specht.pad)


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

    def test_verify_rsk_requires_restricted(self, capsys, monkeypatch):
        assert_refused(
            capsys, monkeypatch, ["specht", "--charge", "0,0", "--parts", "2|1", "--verify-rsk"],
            "--verify-rsk requires a restricted multipartition",
            never=(specht.specht_rsk_verify,),
        )

    def test_pad_requires_restricted(self, capsys, monkeypatch):
        assert_refused(
            capsys, monkeypatch, ["specht", "--charge", "0,0", "--parts", "2|1", "--pad"],
            "padding requires a restricted multipartition",
        )

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
            (("--charge", "0", "--parts", "100000000"),
             "multipartition has 100000000 cells, above the cap 10000"),
            (("--charge", "0", "--parts", ",".join(["1"] * 301)),
             "multipartition has 301 rows, above the cap 300"),
            # the padding of an empty component at a far charge is huge
            (("--charge", "100000000,0", "--parts", "|", "--pad"),
             "padded multipartition has 100000000 cells, above the cap 10000"),
            (("--charge", "100000000,0", "--parts", "|", "--verify-rsk"),
             "padded multipartition has 100000000 cells, above the cap 10000"),
        ],
    )
    def test_size_caps_exit_2_before_any_work(self, capsys, monkeypatch, argv, message):
        assert_refused(capsys, monkeypatch, ["specht", *argv], message, never=SPECHT_WORK)

    def test_size_caps_are_inclusive(self, capsys, monkeypatch):
        # "2|2,1" padded under 1,0 is "3,1,1|3,2": 10 cells in 5 rows
        argv = ["specht", "--charge", "1,0", "--parts", "2|2,1", "--pad"]
        assert_cap_is_inclusive(
            capsys, monkeypatch, "cli.SPECHT_MAX_CELLS", argv, 10,
            "padded multipartition has 10 cells, above the cap 9", never=SPECHT_WORK,
        )
        assert_cap_is_inclusive(
            capsys, monkeypatch, "cli.SPECHT_MAX_ROWS", argv, 5,
            "padded multipartition has 5 rows, above the cap 4", never=SPECHT_WORK,
        )

    def test_padded_size_matches_the_padding(self):
        for kappa in iter_multicharges(-2, 2, 3):
            for mp in iter_multipartitions(len(kappa), 4):
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

    @pytest.mark.parametrize(
        "shape, cells", [("5,5,5,5", 33256080), ("6,6,6,6,6", 11894993124300)],
        ids=["5,5,5,5", "6,6,6,6,6"],
    )
    def test_count_above_cap_exit_2(self, capsys, monkeypatch, shape, cells):
        assert_refused(
            capsys, monkeypatch, ["tableaux", "--shape", shape],
            f"shape {shape} lists {cells} cells in its tableaux, above the cap 1000000",
            never=(tableaux.standard_tableaux,),
        )

    def test_cell_cap_is_inclusive(self, capsys, monkeypatch):
        assert_cap_is_inclusive(
            capsys, monkeypatch, "cli.TABLEAUX_MAX_CELLS", ["tableaux", "--shape", "2,1"], 3,
            "shape has 3 cells, above the cap 2",
            never=(oracle.hook_length_count, tableaux.standard_tableaux),
        )

    def test_output_cell_cap_is_inclusive(self, capsys, monkeypatch):
        # shape 2,1 lists two tableaux of three cells
        assert_cap_is_inclusive(
            capsys, monkeypatch, "cli.TABLEAUX_MAX_OUTPUT_CELLS", ["tableaux", "--shape", "2,1"],
            6, "shape 2,1 lists 6 cells in its tableaux, above the cap 5",
            never=(tableaux.standard_tableaux,),
        )

    def test_output_cells_above_cap_exit_2_before_enumerating(self, capsys, monkeypatch):
        # 1,999 tableaux of 2,000 cells: under the cell cap
        assert_refused(
            capsys, monkeypatch, ["tableaux", "--shape", "1999,1"],
            "shape 1999,1 lists 3998000 cells in its tableaux, above the cap 1000000",
            never=(tableaux.standard_tableaux,),
        )

    def test_long_shape_lists_its_one_tableau(self, capsys):
        code, out, _ = run_cli(capsys, "tableaux", "--shape", "1200", "--json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["count"] == 1
        assert payload["tableaux"][0]["rows"] == [list(range(1, 1201))]

    @pytest.mark.parametrize(
        "shape, cells", [("100000", 100000), ("2001", 2001), ("1000,1000,1", 2001)],
        ids=["100000", "2001", "1000,1000,1"],
    )
    def test_cells_above_cap_exit_2_before_counting(self, capsys, monkeypatch, shape, cells):
        assert_refused(
            capsys, monkeypatch, ["tableaux", "--shape", shape],
            f"shape has {cells} cells, above the cap 2000", never=(oracle.hook_length_count,),
        )


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
        def broken(m):
            raise kind("identity broken")

        monkeypatch.setattr(rsk, "rsk_transform", broken)
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
        def broken(m):
            raise InvariantViolation("identity broken")

        monkeypatch.setattr(rsk, "rsk_transform", broken)
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
    @pytest.mark.parametrize(
        "argv, suite",
        [
            (("--suite", "rsk", "--max-segments", "0"), "rsk"),
            (("--suite", "all", "--max-segments", "0"), "rsk"),
            (("--suite", "strings", "--min", "0", "--max", "0", "--max-segments", "0",
              "--sample", "0"), "strings"),
        ],
        ids=["rsk", "all", "strings"],
    )
    def test_trivial_domain_is_refused(self, capsys, monkeypatch, argv, suite):
        # a suite with no case to walk would pass without checking anything
        assert_refused(
            capsys, monkeypatch, ["check", *argv], f"{suite} would check no case at these bounds",
            never=CHECK_SUITES,
        )

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
        suite = json.loads(out)["payload"]["rsk"]
        assert (suite["cases"], suite["exhaustive_through"], suite["sampled"]) == (11, 1, 5)
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
            (("--suite", "rsk", "--max-segments", "1000000000"),
             "1000000000 segments per instance, above the cap 16"),
            (("--suite", "strings", "--min", "-100000", "--max", "100000", "--max-segments", "2"),
             "support reaches 100000, above the cap 100"),
            (("--suite", "combi", "--min", "-10", "--max", "10", "--max-segments", "4"),
             "combi would hold 123856041 multisegments, above the cap 100000"),
            (("--suite", "rsk", "--min", "-10", "--max", "10", "--max-segments", "6"),
             "kv would check 5845994231 cases, above the cap 2000000"),
            # the pool alone, without the support cap
            (("--suite", "rsk", "--min", "0", "--max", "1000", "--max-segments", "1"),
             "rsk would hold 511501 multisegments, above the cap 100000"),
        ],
        ids=[
            "bounds0-segments per instance",
            "bounds1-support reaches 100000",
            "bounds2-combi would hold 123856041 multisegments",
            "bounds3-kv would check 5845994231 cases",
            "bounds4-rsk would hold",
        ],
    )
    def test_size_rules_exit_2_before_any_suite(self, capsys, monkeypatch, bounds, message):
        assert_refused(capsys, monkeypatch, ["check", *bounds], message, never=CHECK_SUITES)

    @pytest.mark.parametrize(
        "argv",
        [
            ("--level", str(checks.CHECK_MAX_LEVEL + 1)),
            # 1,998,999 pairs, below the case cap; its level 200 alone took 4.7 s
            ("--min", "0", "--max", "0", "--max-segments", "1", "--level", "1998"),
        ],
    )
    def test_level_cap_exits_2_before_any_suite(self, capsys, monkeypatch, argv):
        assert_refused(
            capsys, monkeypatch, ["check", "--suite", "specht", *argv],
            f"multicharge level cap {argv[-1]} is above the cap {checks.CHECK_MAX_LEVEL}",
            never=CHECK_SUITES,
        )

    def test_text_output_carries_no_timing(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--suite", "rsk", "--max-segments", "1")
        assert code == 0
        assert "elapsed" not in out and "cases_per_s" not in out

    @pytest.mark.parametrize(
        "bounds, message",
        [
            (("--min", "3", "--max", "1"), "support minimum 3 exceeds maximum 1"),
            (("--max-segments", "-1"), "segment cap must be non-negative, got -1"),
            # a level cap below 1 or a negative sample would check nothing
            (("--level", "0"), "multicharge level cap must be at least 1, got 0"),
            (("--level", "-1"), "multicharge level cap must be at least 1, got -1"),
            (("--sample", "-1"), "sample size must be non-negative, got -1"),
        ],
        ids=[f"bounds{i}" for i in range(5)],
    )
    def test_bad_bounds_exit_2(self, capsys, monkeypatch, bounds, message):
        # under the default suite, all
        assert_refused(capsys, monkeypatch, ["check", *bounds], message, never=CHECK_SUITES)

    def test_failure_exit_3(self, capsys, monkeypatch):
        true_ell = strings.ell_form
        monkeypatch.setattr(strings, "ell_form", lambda b1, b2: -true_ell(b1, b2))
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


class TestReproductionLine:
    """A failing check prints a command line that reruns the same check."""

    @pytest.mark.parametrize(
        "argv, target, broken",
        [
            (("--suite", "combi", "--min", "0", "--max", "1", "--max-segments", "1",
              "--seed", "3", "--sample", "7"), "strings.phi_multiseg", lambda ms: None),
            (("--suite", "rsk", "--min", "-1", "--max", "1", "--max-segments", "2",
              "--seed", "4", "--sample", "13"), "oracle.dilworth_width", lambda m: -1),
            (("--suite", "rsk", "--min", "-1", "--max", "1", "--max-segments", "2",
              "--seed", "5", "--sample", "14000"), "oracle.kv_choice_independence",
             lambda m: False),
            (("--suite", "strings", "--min", "-1", "--max", "1", "--max-segments", "2",
              "--seed", "6", "--sample", "5"), "oracle.reference_bz_derivative",
             lambda m, t: None),
            (("--suite", "specht", "--min", "-1", "--max", "1", "--max-segments", "2",
              "--seed", "7", "--level", "2"), "specht.column_removal_check",
             lambda kappa, mp: False),
            (("--suite", "rsk", "--min", "-1", "--max", "1", "--max-segments", "2",
              "--seed", "8", "--sample", "11"), "oracle.hook_length_count", lambda mu: -1),
        ],
    )
    def test_parses_back_to_the_run(self, capsys, monkeypatch, argv, target, broken):
        module, name = target.split(".")
        monkeypatch.setattr(getattr(checks, module), name, broken)
        code, out, _ = run_cli(capsys, "check", *argv)
        assert code == 3
        lines = [line for line in out.splitlines() if "counterexample" in line]
        assert lines
        parser = cli.build_parser()
        run = parser.parse_args(["check", *argv])
        fields = ["suite", "min", "max", "max_segments", "seed"]
        # specht does not sample; its line carries the level cap instead
        fields.append("level" if run.suite == "specht" else "sample")
        for line in lines:
            words = shlex.split(line.rsplit(" | ", 1)[1])
            assert words[0] == "segrsk"
            printed = parser.parse_args(words[1:])
            for f in fields:
                assert getattr(printed, f) == getattr(run, f), (f, line)


def _child_env() -> dict[str, str]:
    """The environment of a child that imports segrsk from the same tree as this process."""
    src = str(Path(segrsk.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _run_module(
    *argv: str, timeout: float | None = None, address_space: int | None = None
) -> subprocess.CompletedProcess:
    """Run `python -m segrsk argv`, capping the child's address space if asked."""

    def cap_child():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", "segrsk", *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=timeout,
        preexec_fn=cap_child if address_space is not None else None,
    )


def test_module_entry_point():
    proc = _run_module("rsk", "[1,1]+[1,2]", "--width")
    assert proc.returncode == 0
    assert "width: 2" in proc.stdout


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_a_reader_that_closes_the_pipe_gets_no_traceback(flags):
    # about 190 KB of output, above the pipe buffer, so the child is still
    # writing when the reader leaves after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "segrsk", "tableaux", "--shape", "5,4,3", *flags],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


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


def test_two_equal_400_segment_chains_exit_2_at_once():
    # the multisegment of `specht --charge 0,0 --parts "<400 parts of 3>|<400
    # parts of 3>"`: peeling it ended in a RecursionError after seconds
    proc = _run_module("rsk", _doubled_chain(400), timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        f"precondition error: input has 800 segments, above the cap {cli.RSK_MAX_SEGMENTS}\n"
    )


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


# (argv, exit code, stdout, stderr), captured from the CLI; `check --json` on
# a passing run is left out, since it reports wall times
OUTPUT_BYTES = [
    (
        ["rsk", "[1,1]+[1,2]+[2,3]", "--width", "--bitableau"],
        0,
        "[1,2]+[2,3] ; [1,1]\n"
        "width: 2\n"
        "P: [[2, 1], [1]]\n"
        "Q: [[4, 3], [2]]\n",
        "",
    ),
    (
        ["rsk", "[1,1]+[1,2]", "--json"],
        0,
        "{\n"
        '  "diagnostics": [],\n'
        '  "payload": {\n'
        '    "P": [\n'
        "      [\n"
        "        1\n"
        "      ],\n"
        "      [\n"
        "        1\n"
        "      ]\n"
        "    ],\n"
        '    "Q": [\n'
        "      [\n"
        "        3\n"
        "      ],\n"
        "      [\n"
        "        2\n"
        "      ]\n"
        "    ],\n"
        '    "ladders": [\n'
        "      [\n"
        "        [\n"
        "          1,\n"
        "          2\n"
        "        ]\n"
        "      ],\n"
        "      [\n"
        "        [\n"
        "          1,\n"
        "          1\n"
        "        ]\n"
        "      ]\n"
        "    ],\n"
        '    "width": 2\n'
        "  },\n"
        '  "status": "ok"\n'
        "}\n",
        "",
    ),
    (
        ["rsk", "0"],
        0,
        "\n",
        "",
    ),
    (
        ["derive", "--phi", "[2,3]", "[1,2]+[3,3]"],
        0,
        "phi: -1\n",
        "",
    ),
    (
        ["derive", "--phi", "[2,3]", "[1,2]+[3,3]", "--json"],
        0,
        "{\n"
        '  "diagnostics": [],\n'
        '  "payload": {\n'
        '    "c": 0,\n'
        '    "c_prime": 1,\n'
        '    "phi": -1\n'
        "  },\n"
        '  "status": "ok"\n'
        "}\n",
        "",
    ),
    (
        ["derive", "--gamma-descriptor", "[1,3]+[2,2]+[2,3]"],
        0,
        "[2,3] ; [2,3] ; [1,2]\n"
        "shift: 6\n",
        "",
    ),
    (
        ["derive", "--gamma-descriptor", "[1,3]+[2,2]", "--json"],
        0,
        "{\n"
        '  "diagnostics": [],\n'
        '  "payload": {\n'
        '    "ladders": [\n'
        "      [\n"
        "        [\n"
        "          2,\n"
        "          3\n"
        "        ]\n"
        "      ],\n"
        "      [\n"
        "        [\n"
        "          1,\n"
        "          2\n"
        "        ]\n"
        "      ]\n"
        "    ],\n"
        '    "shift": 2\n'
        "  },\n"
        '  "status": "ok"\n'
        "}\n",
        "",
    ),
    (
        ["derive", "--derived", "[1,3]+[2,2]+[2,3]"],
        0,
        "[3,3] ; [3,3] ; [2,2]\n"
        "shift: 4\n",
        "",
    ),
    (
        ["derive", "--derived", "[1,3]+[2,2]", "--json"],
        0,
        "{\n"
        '  "diagnostics": [],\n'
        '  "payload": {\n'
        '    "ladders": [\n'
        "      [\n"
        "        [\n"
        "          3,\n"
        "          3\n"
        "        ]\n"
        "      ],\n"
        "      [\n"
        "        [\n"
        "          2,\n"
        "          2\n"
        "        ]\n"
        "      ]\n"
        "    ],\n"
        '    "shift": 1\n'
        "  },\n"
        '  "status": "ok"\n'
        "}\n",
        "",
    ),
    (
        ["derive", "--bz", "3", "[1,3]+[2,2]"],
        0,
        "[2,3]\n",
        "",
    ),
    (
        ["derive", "--bz", "3", "[1,3]+[2,2]", "--json"],
        0,
        "{\n"
        '  "diagnostics": [],\n'
        '  "payload": {\n'
        '    "result": [\n'
        "      [\n"
        "        2,\n"
        "        3\n"
        "      ]\n"
        "    ]\n"
        "  },\n"
        '  "status": "ok"\n'
        "}\n",
        "",
    ),
    (
        ["derive", "--single", "1", "[1,3]"],
        0,
        "[2,3]\n",
        "",
    ),
    (
        ["derive", "--single", "1", "[1,3]", "--json"],
        0,
        "{\n"
        '  "diagnostics": [],\n'
        '  "payload": {\n'
        '    "result": [\n'
        "      [\n"
        "        2,\n"
        "        3\n"
        "      ]\n"
        "    ]\n"
        "  },\n"
        '  "status": "ok"\n'
        "}\n",
        "",
    ),
    (
        ["derive", "[1,3]+[2,2]"],
        0,
        "[2,3]\n",
        "",
    ),
    (
        ["derive", "[1,3]+[2,2]", "--json"],
        0,
        "{\n"
        '  "diagnostics": [],\n'
        '  "payload": {\n'
        '    "result": [\n'
        "      [\n"
        "        2,\n"
        "        3\n"
        "      ]\n"
        "    ]\n"
        "  },\n"
        '  "status": "ok"\n'
        "}\n",
        "",
    ),
    (
        ["specht", "--charge", "1,0", "--parts", "2|1", "--pad", "--derive", "--verify-rsk"],
        0,
        "restricted: True\n"
        "proper: False\n"
        "multisegment: [-2,-1]+[0,0]\n"
        "padded: 3,1|2\n"
        "column removal: pass\n"
        "cut: 1|\n"
        "gamma: a(0)\n"
        "ladders: [-2,-1] ; [0,0]\n"
        "dictionary checks: pass\n",
        "",
    ),
    (
        ["specht", "--charge", "1,0", "--parts", "2|1", "--pad", "--derive", "--verify-rsk", "--json"],
        0,
        "{\n"
        '  "diagnostics": [],\n'
        '  "payload": {\n'
        '    "checks": [\n'
        "      {\n"
        '        "column_removal": true\n'
        "      },\n"
        "      {\n"
        '        "specht_rsk": true\n'
        "      }\n"
        "    ],\n"
        '    "cut": "1|",\n'
        '    "gamma": {\n'
        '      "0": 1\n'
        "    },\n"
        '    "ladders": [\n'
        "      [\n"
        "        [\n"
        "          -2,\n"
        "          -1\n"
        "        ]\n"
        "      ],\n"
        "      [\n"
        "        [\n"
        "          0,\n"
        "          0\n"
        "        ]\n"
        "      ]\n"
        "    ],\n"
        '    "multisegment": [\n'
        "      [\n"
        "        -2,\n"
        "        -1\n"
        "      ],\n"
        "      [\n"
        "        0,\n"
        "        0\n"
        "      ]\n"
        "    ],\n"
        '    "padded": "3,1|2",\n'
        '    "proper": false,\n'
        '    "restricted": true\n'
        "  },\n"
        '  "status": "ok"\n'
        "}\n",
        "",
    ),
    (
        ["tableaux", "--shape", "2,1"],
        0,
        "[[1, 2], [3]] residues: [0, 1, -1]\n"
        "[[1, 3], [2]] residues: [0, -1, 1]\n"
        "count: 2\n",
        "",
    ),
    (
        ["check", "--suite", "rsk", "--min", "0", "--max", "1", "--max-segments", "2"],
        0,
        "rsk: pass (9 cases)\n"
        "  note: exhaustive through size 2\n"
        "kv: pass (9 cases)\n"
        "tableaux: pass (30 cases)\n",
        "",
    ),
    (
        ["rsk", "[2,1]", "--json"],
        1,
        "{\n"
        '  "diagnostics": [\n'
        '    "parse error: segment begin exceeds end in \'[2,1]\'"\n'
        "  ],\n"
        '  "payload": {},\n'
        '  "status": "parse_error"\n'
        "}\n",
        "parse error: segment begin exceeds end in '[2,1]'\n",
    ),
    (
        ["rsk", "0", "--bitableau", "--json"],
        2,
        "{\n"
        '  "diagnostics": [\n'
        '    "precondition error: empty multisegment has no bitableau"\n'
        "  ],\n"
        '  "payload": {},\n'
        '  "status": "precondition_error"\n'
        "}\n",
        "precondition error: empty multisegment has no bitableau\n",
    ),
    (
        ["rsk", "--json"],
        2,
        "{\n"
        '  "diagnostics": [\n'
        '    "the following arguments are required: multisegment"\n'
        "  ],\n"
        '  "payload": {},\n'
        '  "status": "usage_error"\n'
        "}\n",
        "usage: segrsk rsk [-h] [--width] [--bitableau] [--json] multisegment\n"
        "segrsk rsk: error: the following arguments are required: multisegment\n",
    ),

]


@pytest.mark.parametrize(
    "argv, code, out, err", OUTPUT_BYTES, ids=[shlex.join(case[0]) for case in OUTPUT_BYTES]
)
def test_output_bytes(capsys, monkeypatch, argv, code, out, err):
    # argparse wraps its usage text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert (got, captured.out, captured.err) == (code, out, err)
