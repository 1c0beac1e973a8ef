"""The failure text of every property suite, pinned word for word.

Each case breaks one or more oracles (or checked library functions) so that
a small, fixed set of cases fails, then compares the suite's failure
messages, rerun line included, with literals.  A rerun line is what a user
pastes back into a shell, so a change to this text is a change to the
output of `segrsk check`.
"""

import dataclasses
import json

import pytest

from segrsk import checks, cli, oracle, rsk, specht, strings, tableaux
from segrsk.errors import InvariantViolation, PreconditionError
from segrsk.multisegment import Multisegment
from segrsk.oracle import EnumerationBounds

M = Multisegment.parse


def _break(monkeypatch, module, name, wrap):
    """Replace module.name by wrap(original)."""
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))


def _raise_on(text):
    """Wrap a function to raise InvariantViolation on the input printed as text."""

    def wrap(true):
        def broken(x, *args):
            if str(x) == text:
                raise InvariantViolation("broken on purpose")
            return true(x, *args)

        return broken

    return wrap


def _combi(monkeypatch):
    _break(monkeypatch, strings, "phi_multiseg",
           lambda true: lambda ms: true(ms) + (len(ms) == 2 and all(ms)))
    _break(monkeypatch, strings, "_phi_pairs",
           lambda true: lambda idx, a, b, bv: true(idx, a, b, bv)
           + (len(a) == 3 and not any(map(any, a))))
    return checks.suite_combi(EnumerationBounds(0, 0, 1), seed=3, sample=7)


def _rsk(monkeypatch):
    _break(monkeypatch, rsk, "_peel_trace", _raise_on("[0,0]+[1,1]"))
    _break(monkeypatch, oracle, "dilworth_width",
           lambda true: lambda m: true(m) + (m == M("[0,1]")))
    _break(monkeypatch, oracle, "brute_permissible",
           lambda true: lambda ladder, rest: rest != M("[1,1]") and true(ladder, rest))
    _break(monkeypatch, rsk.LadderSequence, "bitableau", _raise_on("[0,1] ; [0,1]"))
    _break(monkeypatch, tableaux, "c_count",
           lambda true: lambda pq: true(pq) + (pq.p.rows in (((1,), (0,)), ((2,), (2,)))))
    _break(monkeypatch, oracle, "insertion_inverse", _inverse_broken_on("[1,1]", "[0,0]+[0,1]"))
    return checks.suite_rsk(EnumerationBounds(0, 1, 2), seed=4, sample=13)


def _inverse_broken_on(refused, wrong):
    """Wrap insertion_inverse to refuse the ladders of one multisegment and
    to drop a segment from that of another."""

    def wrap(true):
        def broken(ladders):
            m = true(ladders)
            if str(m) == refused:
                raise PreconditionError("broken on purpose")
            return Multisegment(m.segments[1:]) if str(m) == wrong else m

        return broken

    return wrap


def _kv(monkeypatch):
    _break(monkeypatch, oracle, "kv_choice_independence",
           lambda true: lambda m: m != M("[0,0]+[0,1]") and true(m))
    return checks.suite_kv(EnumerationBounds(0, 1, 2), seed=5, sample=14000)


def _strings(monkeypatch):
    _break(monkeypatch, strings, "bz_derivative", _raise_on("[0,1]"))
    _break(monkeypatch, oracle, "reference_bz_derivative",
           lambda true: lambda m, t: Multisegment() if m == M("[0,0]+[0,1]") else true(m, t))
    _break(monkeypatch, rsk, "_peel_trace",
           lambda true: lambda m, steps, keep: true(
               M("[1,1]") if m == M("[0,0]") else m, steps, keep))
    _break(monkeypatch, strings, "bz_string",
           lambda true: lambda m, t: (*true(m, t), 0) if len(m) == 4 else true(m, t))
    return checks.suite_strings(EnumerationBounds(0, 1, 2), seed=6, sample=5)


def _tableaux(monkeypatch):
    _break(monkeypatch, oracle, "hook_length_count",
           lambda true: lambda mu: true(mu) + (str(mu) == "2,1"))
    _break(monkeypatch, specht, "ladder_of_partition",
           lambda true: lambda k, mu: true(k, mu).shifted_right()
           if (k, str(mu)) == (2, "2") else true(k, mu))
    _break(monkeypatch, tableaux, "residue_weight",
           lambda true: lambda k, filling: true(k, filling).dagger()
           if (k, filling) == (1, ((1, 2),)) else true(k, filling))
    return checks.suite_tableaux(max_partition_size=3)


def _specht(monkeypatch):
    def on(kappa, mp, case):
        return (str(kappa), str(mp)) == case

    def verify(true):
        def broken(kappa, mp):
            if on(kappa, mp, ("0,0", "1|1")):
                raise InvariantViolation("broken on purpose")
            report = true(kappa, mp)
            if on(kappa, mp, ("0,-1", "|1,1")):
                return dataclasses.replace(report, gamma=-report.gamma)
            return report

        return broken

    _break(monkeypatch, specht, "specht_rsk_verify", verify)
    _break(monkeypatch, specht, "proper_rsk_identity",
           lambda true: lambda kappa, mp: not on(kappa, mp, ("-1", "2")) and true(kappa, mp))
    _break(monkeypatch, specht, "column_removal_check",
           lambda true: lambda kappa, mp: str(mp) != "|2" and true(kappa, mp))
    return checks.suite_specht(-1, 0, 2, 2, seed=7)


SUITES = {
    "combi": _combi,
    "rsk": _rsk,
    "kv": _kv,
    "strings": _strings,
    "tableaux": _tableaux,
    "specht": _specht,
}

# each suite's rerun line, as `segrsk check` prints it after " | "
COMBI_RUN = "segrsk check --suite combi --min 0 --max 0 --max-segments 1 --seed 3 --sample 7"
RSK_RUN = "segrsk check --suite rsk --min 0 --max 1 --max-segments 2 --seed 4 --sample 13"
# suite_kv borrows the rsk line: `check --suite rsk` runs it
KV_RUN = "segrsk check --suite rsk --min 0 --max 1 --max-segments 2 --seed 5 --sample 14000"
STRINGS_RUN = "segrsk check --suite strings --min 0 --max 1 --max-segments 2 --seed 6 --sample 5"
# suite_tableaux called with no run line: the rsk suite at its default bounds
TABLEAUX_RUN = "segrsk check --suite rsk"
SPECHT_RUN = (
    "segrsk check --suite specht --min -1 --max 0 --max-segments 2 --level 2 --seed 7"
)

EXPECTED = {
    "combi": [
        f"C-C'=-1 but Phi=0 on ([0,0], [0,0]) | {COMBI_RUN}",
        f"string-form Phi mismatch on (0, 0, 0) | {COMBI_RUN}",
    ],
    "rsk": [
        f"width([0,1])=1 != Dilworth 2 | {RSK_RUN}",
        f"reverse bumping of RSK([1,1]) failed: broken on purpose | {RSK_RUN}",
        f"reverse bumping of RSK([0,0]+[0,1]) gives [0,1] | {RSK_RUN}",
        f"RSK([0,0]+[1,1]) failed: broken on purpose | {RSK_RUN}",
        f"width drop 2->2 peeling [0,1]+[0,1] | {RSK_RUN}",
        f"bitableau of [0,1]+[0,1] failed: broken on purpose | {RSK_RUN}",
        f"width drop 2->2 peeling [0,1]+[1,1] | {RSK_RUN}",
        f"C(ladders) != C(P,Q) for [0,1]+[1,1] | {RSK_RUN}",
        f"peel of [1,1]+[1,1] not permissible per oracle | {RSK_RUN}",
        f"C'(ladders) != C(P',Q) for [1,1]+[1,1] | {RSK_RUN}",
    ],
    "kv": [
        f"enumeration choice changes peel of [0,0]+[0,1] | {KV_RUN}",
    ],
    "strings": [
        f"RSK(extend([0,0])) truncated entrywise != RSK([0,0]) | {STRINGS_RUN}",
        f"BZ derivative of [0,1] failed: broken on purpose | {STRINGS_RUN}",
        f"BZ derivative of [0,0]+[0,1] is T-dependent | {STRINGS_RUN}",
        f"BZ string not additive on [0,1]+[1,1], [0,0]+[1,1] | {STRINGS_RUN}",
    ],
    "tableaux": [
        f"residue weight wrong for (1,2,((1, 2),)) | {TABLEAUX_RUN}",
        f"cut-ladder identity broken at (2,2) | {TABLEAUX_RUN}",
        f"cut-ladder identity broken at (2,3) | {TABLEAUX_RUN}",
        f"tableau count wrong for (2,1) | {TABLEAUX_RUN}",
    ],
    "specht": [
        f"proper RSK identity broken on kappa=(-1) mp=(2) | {SPECHT_RUN}",
        f"column removal broken on kappa=(0,0) mp=(|2) | {SPECHT_RUN}",
        f"dictionary failed on kappa=(0,0) mp=(1|1): broken on purpose | {SPECHT_RUN}",
        f"column removal broken on kappa=(0,-1) mp=(|2) | {SPECHT_RUN}",
        f"gamma not positive on kappa=(0,-1) mp=(|1,1) | {SPECHT_RUN}",
        f"column removal broken on kappa=(-1,-1) mp=(|2) | {SPECHT_RUN}",
    ],
}


@pytest.mark.parametrize("suite", list(SUITES))
def test_suite_failure_text(monkeypatch, suite):
    assert SUITES[suite](monkeypatch).failures == EXPECTED[suite]


CHECK_ARGV = ["check", "--suite", "rsk", "--min", "0", "--max", "1",
              "--max-segments", "2", "--seed", "8", "--sample", "11"]

CHECK_RUN = "segrsk check --suite rsk --min 0 --max 1 --max-segments 2 --seed 8 --sample 11"
# run_suite hands its rsk line to suite_tableaux, so the tableaux failure
# carries it too
CHECK_TEXT = (
    "rsk: pass (9 cases)\n"
    "  note: exhaustive through size 2\n"
    "kv: FAIL (9 cases)\n"
    f"  counterexample: enumeration choice changes peel of [0,1]+[1,1] | {CHECK_RUN}\n"
    "tableaux: FAIL (30 cases)\n"
    f"  counterexample: tableau count wrong for (3,1) | {CHECK_RUN}\n"
)


def _break_check_run(monkeypatch):
    _break(monkeypatch, oracle, "kv_choice_independence",
           lambda true: lambda m: m != M("[0,1]+[1,1]") and true(m))
    _break(monkeypatch, oracle, "hook_length_count",
           lambda true: lambda mu: true(mu) - (str(mu) == "3,1"))


def test_check_text_output(monkeypatch, capsys):
    _break_check_run(monkeypatch)
    assert cli.main(CHECK_ARGV) == 3
    assert capsys.readouterr().out == CHECK_TEXT


def test_check_json_failures(monkeypatch, capsys):
    # the envelope carries wall times, so only its failure lists are compared
    _break_check_run(monkeypatch)
    assert cli.main([*CHECK_ARGV, "--json"]) == 3
    payload = json.loads(capsys.readouterr().out)["payload"]
    failures = {name: suite["failures"] for name, suite in payload.items()}
    text = [line for line in CHECK_TEXT.splitlines() if "counterexample: " in line]
    assert [f for fs in failures.values() for f in fs] == [
        line.split("counterexample: ", 1)[1] for line in text
    ]
