"""Command-line front end.

Subcommands: rsk, derive, specht, tableaux, check.  Exit codes: 0 success,
1 malformed input text, 2 violated precondition or size guard, 3 failed check
suite, 4 internal identity violated (a library bug; stderr also carries a
line that reproduces the call).  EXIT_CODES maps each exception type to its
status and exit code.  Machine output via --json round-trips through the
documented schemas; under --json, exits 1, 2 and 4 (usage errors included)
also print the envelope, with the messages as its diagnostics.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys

from . import checks, oracle, rsk, specht, strings, tableaux
from .errors import (
    InvariantViolation,
    ParseError,
    PreconditionError,
    ShapeViolation,
    SizeGuardExceeded,
)
from .multisegment import Multisegment
from .oracle import EnumerationBounds
from .tableaux import Partition

# exception type -> (envelope status, exit code); the stderr message is
# prefixed with the status, spelt with a space
EXIT_CODES = {
    ParseError: ("parse_error", 1),
    PreconditionError: ("precondition_error", 2),
    SizeGuardExceeded: ("precondition_error", 2),
    InvariantViolation: ("internal_error", 4),
    ShapeViolation: ("internal_error", 4),
}

# most cells `tableaux --shape` accepts; checked before the count, whose
# factorial grows with the size (100,000 cells take over a second)
TABLEAUX_MAX_CELLS = 2_000
# most cells `tableaux --shape` lists over all its tableaux (count times
# cells), checked before enumerating; shape 1999,1 passes the cell cap and
# would print 132 MB.  It caps the count too: a shape with over 100,000
# tableaux has over 10 cells
TABLEAUX_MAX_OUTPUT_CELLS = 1_000_000
# most cells and rows `specht` accepts, counted after the padding that
# --pad and --verify-rsk build; checked before any work.  Weights are built
# one cell at a time (a 10,000-cell row takes 0.1 s and 22 MB; 1,000,000
# cells take 660 MB), and rows are segments the RSK transform peels (300
# rows take 0.3 s, and stay below RSK_MAX_SEGMENTS)
SPECHT_MAX_CELLS = 10_000
SPECHT_MAX_ROWS = 300
# most cells (segment lengths summed over the inputs) `derive --phi`
# accepts, checked before any weight is built: Phi pairs begin weights with
# dense weights (100,000 cells take 0.01 s and 10 MB; 1,000,000 cells take
# 0.09 s and 94 MB, and [0,100000000] twice ends in a MemoryError)
PHI_MAX_CELLS = 100_000
# most inputs `derive --phi` accepts, checked before any work: Phi walks
# every pair of inputs (2,000 one-segment inputs take 9.7 s; sixteen
# 400-segment inputs take about 0.7 s)
PHI_MAX_INPUTS = 16
# most segments in each multisegment `rsk` and `derive` accept, checked
# after parsing and before any work.  The permissibility search of a peel
# recurses once per step of an ll-chain of the rest, at most half the
# segments long, so 400 segments stay within the recursion limit (two equal
# 350-segment chains end in a RecursionError); the slowest admitted family
# measured, the nested segments [-i, i], takes 3.8 s at 400.  The other
# derive modes grow quadratically in the segments: --bz rebuilds the input
# at each distinct begin (4,000 distinct point segments take 3.1 s), and
# --phi counts adjacent pairs across each pair of inputs
RSK_MAX_SEGMENTS = 400


def _print_stdout(text: str) -> None:
    """Print text to stdout, the one place the CLI writes its output.

    A reader that closes the pipe early ends the output: stdout is then
    pointed at os.devnull, since Python flushes stdout at exit and into a
    closed pipe that flush would raise BrokenPipeError again (see "Note on
    SIGPIPE" in the signal docs).
    """
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _print_envelope(status: str, payload: dict, diagnostics: list[str]) -> None:
    """The --json output of every outcome, success, failure or usage error."""
    envelope = {"status": status, "payload": payload, "diagnostics": diagnostics}
    _print_stdout(json.dumps(envelope, indent=2, sort_keys=True))


# Each command returns its exit code, its --json payload and its text lines;
# main prints one or the other.


def _check_rsk_size(m: Multisegment) -> None:
    if len(m) > RSK_MAX_SEGMENTS:
        raise PreconditionError(
            f"input has {len(m)} segments, above the cap {RSK_MAX_SEGMENTS}"
        )


def _cmd_rsk(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    m = Multisegment.parse(args.multisegment)
    _check_rsk_size(m)
    transform = rsk.rsk_transform(m)
    payload = {"ladders": transform.to_json()}
    lines = [str(transform)]
    if args.width or args.json:
        payload["width"] = len(transform)
        if args.width:
            lines.append(f"width: {len(transform)}")
    if args.bitableau or (args.json and m):
        pair = transform.bitableau()
        payload["P"] = pair.p.to_json()
        payload["Q"] = pair.q.to_json()
        if args.bitableau:
            lines.append(f"P: {pair.p.to_json()}")
            lines.append(f"Q: {pair.q.to_json()}")
    return 0, payload, lines


def _cmd_derive(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    ms = [Multisegment.parse(text) for text in args.multisegment]
    for m in ms:
        _check_rsk_size(m)
    if args.phi:
        if len(ms) > PHI_MAX_INPUTS:
            raise PreconditionError(f"{len(ms)} inputs, above the cap {PHI_MAX_INPUTS}")
        cells = sum(s.length() for m in ms for s in m)
        if cells > PHI_MAX_CELLS:
            raise PreconditionError(
                f"inputs have {cells} cells, above the cap {PHI_MAX_CELLS}"
            )
        phi = strings.phi_multiseg(ms)
        payload = {
            "phi": phi,
            "c": strings.c_tuple(ms),
            "c_prime": strings.c_prime_tuple(ms),
        }
        return 0, payload, [f"phi: {phi}"]
    if len(ms) != 1:
        raise PreconditionError("exactly one multisegment expected")
    m = ms[0]
    if args.gamma_descriptor or args.derived:
        desc = tableaux.gamma_descriptor(m, derived=args.derived)
        payload = {"ladders": [lad.to_json() for lad in desc.ladders], "shift": desc.shift}
        lines = [" ; ".join(str(lad) for lad in desc.ladders), f"shift: {desc.shift}"]
        return 0, payload, lines
    if args.single is not None:
        out = strings.single_derivative(m, args.single)
    elif args.bz is not None:
        out = strings.bz_derivative(m, args.bz)
    else:
        out = m.derived()
    return 0, {"result": out.to_json()}, [str(out)]


def _specht_size(
    kappa: specht.Multicharge, mp: specht.Multipartition, padded: bool
) -> tuple[int, int]:
    """Cells and rows of the input, or of its padding, counted arithmetically."""
    rows = [mu.length() for mu in mp]
    cells = mp.size()
    if padded:
        # specht.pad gives component i max(len, r + k_i) rows, where r is the
        # final component's length minus its charge, and each row one more cell
        r = rows[-1] - kappa.charges[-1]
        rows = [max(n, r + k) for n, k in zip(rows, kappa.charges)]
        cells += sum(rows)
    return cells, sum(rows)


def _cmd_specht(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    kappa = specht.Multicharge.parse(args.charge)
    mp = specht.Multipartition.parse(args.parts)
    if len(kappa) != len(mp):
        raise PreconditionError(
            f"{len(kappa)} charges but {len(mp)} partition components"
        )
    padded = args.pad or args.verify_rsk
    what = "padded multipartition" if padded else "multipartition"
    for count, noun, cap in zip(
        _specht_size(kappa, mp, padded), ("cells", "rows"), (SPECHT_MAX_CELLS, SPECHT_MAX_ROWS)
    ):
        if count > cap:
            raise PreconditionError(f"{what} has {count} {noun}, above the cap {cap}")
    restricted = specht.is_restricted(kappa, mp)
    proper = specht.is_proper(kappa, mp)
    m = specht.multiseg_of(kappa, mp)
    payload = {
        "restricted": restricted,
        "proper": proper,
        "multisegment": m.to_json(),
        "checks": [],
    }
    lines = [f"restricted: {restricted}", f"proper: {proper}", f"multisegment: {m}"]
    if args.pad:
        padded = specht.pad(kappa, mp)
        payload["padded"] = str(padded)
        lines.append(f"padded: {padded}")
    if args.derive:
        cut = mp.cut()
        ok = specht.column_removal_check(kappa, mp) if restricted else None
        payload["cut"] = str(cut)
        if ok is not None:
            payload["checks"].append({"column_removal": ok})
            lines.append(f"column removal: {'pass' if ok else 'FAIL'}")
        lines.append(f"cut: {cut}")
    if args.verify_rsk:
        if not restricted:
            raise PreconditionError("--verify-rsk requires a restricted multipartition")
        outcome = specht.specht_rsk_verify(kappa, mp)
        payload["gamma"] = outcome.gamma.to_json()
        payload["ladders"] = [lad.to_json() for lad in outcome.ladders]
        payload["checks"].append({"specht_rsk": True})
        lines.append(f"gamma: {outcome.gamma}")
        lines.append(f"ladders: {' ; '.join(str(lad) for lad in outcome.ladders)}")
        lines.append("dictionary checks: pass")
    return 0, payload, lines


def _cmd_tableaux(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    shape = Partition.parse(args.shape)
    if shape.size() > TABLEAUX_MAX_CELLS:
        raise PreconditionError(
            f"shape has {shape.size()} cells, above the cap {TABLEAUX_MAX_CELLS}"
        )
    count = oracle.hook_length_count(shape)
    if count * shape.size() > TABLEAUX_MAX_OUTPUT_CELLS:
        raise PreconditionError(
            f"shape {shape} lists {count * shape.size()} cells in its tableaux, "
            f"above the cap {TABLEAUX_MAX_OUTPUT_CELLS}"
        )
    fillings = tableaux.standard_tableaux(shape)
    entries = []
    lines = []
    for filling in fillings:
        residues = tableaux.residue_sequence(args.charge, filling)
        entries.append({"rows": [list(r) for r in filling], "residues": list(residues)})
        lines.append(f"{[list(r) for r in filling]} residues: {list(residues)}")
    payload = {"shape": list(shape.parts), "count": len(fillings), "tableaux": entries}
    lines.append(f"count: {len(fillings)}")
    return 0, payload, lines


def _cmd_check(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    bounds = EnumerationBounds(args.min, args.max, args.max_segments)
    results = checks.run_suite(
        args.suite, bounds, seed=args.seed, sample=args.sample, max_level=args.level
    )
    payload = {}
    lines = []
    for res in results:
        lines.append(f"{res.name}: {'pass' if res.ok else 'FAIL'} ({res.cases} cases)")
        lines.extend(f"  note: {note}" for note in res.notes)
        lines.extend(f"  counterexample: {failure}" for failure in res.failures)
        payload[res.name] = {
            "cases": res.cases,
            "failures": res.failures,
            "notes": res.notes,
            "exhaustive_through": res.exhaustive_through,
            "sampled": res.sampled,
            "elapsed_s": res.elapsed_s,
            "cases_per_s": res.cases_per_s,
        }
    return (0 if all(res.ok for res in results) else 3), payload, lines


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage-error exit carries the message."""

    def error(self, message: str):
        try:
            super().error(message)
        except SystemExit as exc:
            exc.usage_error = message
            raise


def _wants_json(argv: list[str]) -> bool:
    # argparse accepts unambiguous prefixes, and --json is every
    # subcommand's only option starting with --j
    return any(len(arg) >= 3 and "--json".startswith(arg) for arg in argv)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="segrsk",
        description="Multisegment calculus: RSK transform, crystal derivatives "
        "and the Specht dictionary, with brute-force checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rsk = sub.add_parser("rsk", help="RSK-transform a multisegment")
    p_rsk.add_argument("multisegment", help='e.g. "[1,1]+[1,2]" or "0"')
    p_rsk.add_argument("--width", action="store_true", help="also print the width")
    p_rsk.add_argument("--bitableau", action="store_true", help="also print (P,Q)")
    p_rsk.add_argument("--json", action="store_true")
    p_rsk.set_defaults(func=_cmd_rsk)

    p_der = sub.add_parser("derive", help="derivatives and descriptors")
    p_der.add_argument("multisegment", nargs="+", help="one or more multisegments")
    # one mode per call; --derived selects the derived descriptor, alone or
    # with --gamma-descriptor, and is checked against the rest in main
    mode = p_der.add_mutually_exclusive_group()
    mode.add_argument("--phi", action="store_true", help="shift constant of the tuple")
    mode.add_argument(
        "--gamma-descriptor", action="store_true", help="ladders and shift of the descriptor"
    )
    mode.add_argument(
        "--bz", type=int, metavar="T", help="BZ derivative along (T..-T), T >= 0"
    )
    mode.add_argument("--single", type=int, metavar="J", help="single-index derivative")
    p_der.add_argument(
        "--derived", action="store_true", help="use the derived descriptor (P',Q)"
    )
    p_der.add_argument("--json", action="store_true")
    p_der.set_defaults(func=_cmd_derive, parser=p_der)

    p_sp = sub.add_parser("specht", help="multipartition dictionary")
    p_sp.add_argument("--charge", required=True, help='multicharge, e.g. "2,1,-1"')
    p_sp.add_argument(
        "--parts", required=True, help='partitions split by |, e.g. "4,2|3,3|2"'
    )
    p_sp.add_argument("--pad", action="store_true", help="print the proper padding")
    p_sp.add_argument("--derive", action="store_true", help="first-column removal")
    p_sp.add_argument(
        "--verify-rsk", action="store_true", help="run the dictionary verification"
    )
    p_sp.add_argument("--json", action="store_true")
    p_sp.set_defaults(func=_cmd_specht)

    p_tab = sub.add_parser("tableaux", help="standard tableaux and residues")
    p_tab.add_argument("--shape", required=True, help='partition, e.g. "2,1"')
    p_tab.add_argument("--charge", type=int, default=0, help="content offset")
    p_tab.add_argument("--json", action="store_true")
    p_tab.set_defaults(func=_cmd_tableaux)

    p_chk = sub.add_parser("check", help="run property suites")
    p_chk.add_argument("--suite", choices=checks.SUITES, default="all")
    p_chk.add_argument("--min", type=int, default=-2, help="support/charge minimum")
    p_chk.add_argument("--max", type=int, default=2, help="support/charge maximum")
    p_chk.add_argument(
        "--max-segments", type=int, default=3, help="segment cap (specht: size cap)"
    )
    p_chk.add_argument("--level", type=int, default=3, help="multicharge level cap")
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.add_argument("--sample", type=int, default=10_000)
    p_chk.add_argument("--json", action="store_true")
    p_chk.set_defaults(func=_cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "derived", False):
            for flag, given in (
                ("--phi", args.phi),
                ("--bz", args.bz is not None),
                ("--single", args.single is not None),
            ):
                if given:
                    args.parser.error(f"argument --derived: not allowed with argument {flag}")
    except SystemExit as exc:
        # argparse already printed usage and message on stderr
        message = getattr(exc, "usage_error", None)
        if message is not None and _wants_json(argv):
            _print_envelope("usage_error", {}, [message])
        raise
    try:
        code, payload, lines = args.func(args)
    except tuple(EXIT_CODES) as exc:
        status, code = next(
            row for kind, row in EXIT_CODES.items() if isinstance(exc, kind)
        )
        # report on stderr, and in the envelope under --json
        diagnostics = [f"{status.replace('_', ' ')}: {exc}"]
        if code == 4:
            diagnostics.append(f"reproduce: segrsk {shlex.join(argv)}")
        for line in diagnostics:
            print(line, file=sys.stderr)
        if args.json:
            _print_envelope(status, {}, diagnostics)
        return code
    if args.json:
        _print_envelope("ok" if code == 0 else "check_failure", payload, [])
    else:
        _print_stdout("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
