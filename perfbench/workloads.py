"""The three benchmark workloads: inputs from a seed, requests, output checks.

Importing this module imports the library, so the harness imports it inside
the timed set-up.  Each workload hands out rounds of requests; a round is a
fixed mix, so a run that measures whole rounds measures the same mix on
every seed.  A request returns its canonical output text, and `check`
verifies that text, independently of the code that produced it, outside the
timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass

from segrsk import checks, cli, oracle, rsk
from segrsk.multisegment import Multisegment, Segment
from segrsk.oracle import EnumerationBounds

# Rounds generated per run.  A run that needs more cycles through them again;
# a repeated request must then reproduce its first output exactly.
POOL_ROUNDS = 16


class RequestFailed(Exception):
    """A request exited non-zero or its output failed a check."""


@dataclass(frozen=True)
class Request:
    kind: str
    # everything the request needs, hashable, so equal requests share a check
    args: tuple


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


class Workload:
    """Rounds of requests made from a seed, and how to run and check them."""

    name: str
    # digest of the canary outputs; the canary does not depend on the seed
    CANARY_DIGEST: str

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        self.pool = [self.make_round(rng, r) for r in range(POOL_ROUNDS)]

    def round(self, i: int) -> list[Request]:
        return self.pool[i % len(self.pool)]

    def units(self, req: Request, output: str) -> int:
        """Operations one request performed, for ops_per_s."""
        return 1


def _van_der_corput(i: int) -> float:
    """The i-th point of the base-2 van der Corput sequence: 1/2, 1/4, 3/4, 1/8, ..."""
    x, scale = 0.0, 0.5
    i += 1
    while i:
        x += scale * (i & 1)
        i >>= 1
        scale /= 2
    return x


def _log_grid(lo: float, hi: float, count: int, phase: float) -> list[int]:
    """count sizes of a log-uniform law on [lo, hi], one per quantile cell.

    Round r takes the point at phase _van_der_corput(r) inside every cell, so
    the rounds of any run together cover each cell evenly and the sizes, and
    so the latency percentiles, do not jump between cells.
    """
    return [round(lo * (hi / lo) ** ((i + phase) / count)) for i in range(count)]


# ---------------------------------------------------------------- cli-large


def _random_multisegment(rng: random.Random, n: int) -> str:
    """n segments with begins in [-20, 20] and lengths 1..7, as CLI text."""
    segs = []
    for _ in range(n):
        b = rng.randint(-20, 20)
        segs.append(f"[{b},{b + rng.randint(0, 6)}]")
    return "+".join(segs)


def _random_restricted(rng: random.Random) -> tuple[str, str]:
    """A multicharge and a multipartition restricted for it, as CLI text.

    Built from the last component backwards: component i may exceed
    component i+1 only in its first gap = k_i - k_{i+1} parts.
    """
    level = rng.randint(2, 4)
    charges = sorted((rng.randint(-3, 3) for _ in range(level)), reverse=True)
    lower = sorted((rng.randint(1, 7) for _ in range(rng.randint(1, 6))), reverse=True)
    comps = [lower]
    for i in range(level - 2, -1, -1):
        gap = charges[i] - charges[i + 1]
        parts: list[int] = []
        for pos in range(1, rng.randint(0, gap + len(lower)) + 1):
            cap = parts[-1] if parts else 7
            if pos > gap:
                cap = min(cap, lower[pos - gap - 1] if pos - gap <= len(lower) else 0)
            if cap < 1:
                break
            parts.append(rng.randint(max(1, cap // 2), cap))
        comps.append(parts)
        lower = parts
    comps.reverse()
    return ",".join(map(str, charges)), "|".join(",".join(map(str, c)) for c in comps)


def _canonical(pairs) -> list[tuple[int, int]]:
    """Segments in the library's canonical order: by end, then begin."""
    return sorted((tuple(s) for s in pairs), key=lambda s: (s[1], s[0]))


def _parse_ms(text: str) -> list[tuple[int, int]]:
    return _canonical(tuple(map(int, tok.strip("[]").split(","))) for tok in text.split("+"))


def _parse_parts(text: str) -> list[list[int]]:
    return [[int(p) for p in comp.split(",")] if comp else [] for comp in text.split("|")]


def _check_ladders(ladders: list, source: list[tuple[int, int]]) -> None:
    """RSK output shape: ll-chains of weakly decreasing sizes, Dilworth many."""
    sizes = [len(lad) for lad in ladders]
    if 0 in sizes or sizes != sorted(sizes, reverse=True):
        raise RequestFailed(f"ladder sizes {sizes} not positive and weakly decreasing")
    for lad in ladders:
        for (b1, e1), (b2, e2) in zip(lad, lad[1:]):
            if not (b1 < b2 and e1 < e2):
                raise RequestFailed(f"ladder {lad} is not an ll-chain")
    # a peel hands end points along a cycle, so the ladders keep the input's
    # begins and ends as multisets, not its segments
    segs = [s for lad in ladders for s in lad]
    for side in (0, 1):
        if sorted(s[side] for s in segs) != sorted(s[side] for s in source):
            raise RequestFailed(f"ladders do not keep the input's {('begins', 'ends')[side]}")
    width = oracle.dilworth_width(Multisegment(Segment(b, e) for b, e in source))
    if len(ladders) != width:
        raise RequestFailed(f"{len(ladders)} ladders but Dilworth width {width}")


def _specht_argv(rng: random.Random) -> tuple[str, ...]:
    charge, parts = _random_restricted(rng)
    # --opt=value keeps argparse from reading a leading '-' as an option
    return ("specht", f"--charge={charge}", f"--parts={parts}",
            "--verify-rsk", "--pad", "--derive", "--json")


class CliLarge(Workload):
    """In-process `segrsk.cli.main(argv)` on large random inputs, stdout captured."""

    name = "cli-large"
    CANARY_DIGEST = "e213a89eb3970c2d"

    @staticmethod
    def make_round(rng: random.Random, index: int) -> list[Request]:
        """15 rsk --json (60 %), 4 gamma descriptors, 2 phi, 2 bz, 2 specht."""
        phase = _van_der_corput(index)
        reqs = [
            Request("rsk", ("rsk", "--json", _random_multisegment(rng, n)))
            for n in _log_grid(50, 400, 15, phase)
        ]
        reqs += [
            Request("derive", ("derive", "--gamma-descriptor", "--json", _random_multisegment(rng, n)))
            for n in _log_grid(50, 400, 4, phase)
        ]
        for sizes in zip(*(_log_grid(50, 400, 2, (phase + k / 3) % 1) for k in range(3))):
            texts = (_random_multisegment(rng, n) for n in sizes)
            reqs.append(Request("derive", ("derive", "--phi", "--json", *texts)))
        for t, n in zip(_log_grid(30, 3000, 2, phase), _log_grid(50, 150, 2, 1 - phase)):
            reqs.append(Request("derive", ("derive", "--bz", str(t), "--json", _random_multisegment(rng, n))))
        reqs += [Request("specht", _specht_argv(rng)) for _ in range(2)]
        rng.shuffle(reqs)
        return reqs

    @staticmethod
    def run(req: Request) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(req.args))
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
        if code != 0:
            raise RequestFailed(f"exit code {code}")
        return out.getvalue()

    @staticmethod
    def check(req: Request, output: str) -> None:
        report = json.loads(output)
        if report["status"] != "ok":
            raise RequestFailed(f"status {report['status']}")
        payload = report["payload"]
        args = req.args
        if args[0] == "rsk":
            ladders = payload["ladders"]
            _check_ladders(ladders, _parse_ms(args[-1]))
            if payload["width"] != len(ladders):
                raise RequestFailed("width differs from the ladder count")
            decoded = [
                [list(s) for s in _canonical((c, d - 1) for c, d in zip(prow, qrow) if c < d)]
                for prow, qrow in zip(payload["P"], payload["Q"])
            ]
            if decoded != ladders:
                raise RequestFailed("P/Q do not decode to the ladders")
        elif args[1] == "--gamma-descriptor":
            _check_ladders(payload["ladders"], _parse_ms(args[-1]))
        elif args[1] == "--phi":
            if payload["phi"] != payload["c"] - payload["c_prime"]:
                raise RequestFailed("C - C' != Phi")
        elif args[1] == "--bz":
            truncated = _canonical((b + 1, e) for b, e in _parse_ms(args[-1]) if b < e)
            if _canonical(payload["result"]) != truncated:
                raise RequestFailed("BZ derivative differs from left truncation")
        else:
            parts = _parse_parts(args[2].split("=", 1)[1])
            padded = _parse_parts(payload["padded"])
            if not payload["restricted"]:
                raise RequestFailed("generated multipartition is not restricted")
            if [[p - 1 for p in comp if p > 1] for comp in padded] != parts:
                raise RequestFailed("cut(pad(mp)) != mp")
            if not ({"specht_rsk": True} in payload["checks"] and {"column_removal": True} in payload["checks"]):
                raise RequestFailed(f"dictionary checks {payload['checks']}")

    def depth_inputs(self, reqs: list[Request]) -> list[Multisegment]:
        return [
            Multisegment.parse(a)
            for req in reqs
            if req.kind != "specht"
            for a in req.args
            if a.startswith("[")
        ]

    def warm_up(self) -> None:
        rng = random.Random(-1)
        for argv in (
            ("rsk", "--json", _random_multisegment(rng, 20)),
            ("derive", "--gamma-descriptor", "--json", _random_multisegment(rng, 20)),
            ("derive", "--phi", "--json", "[1,2]", "[0,3]", "[2,2]"),
            ("derive", "--bz", "40", "--json", _random_multisegment(rng, 20)),
            _specht_argv(rng),
        ):
            self.run(Request(argv[0], argv))

    def canary(self, outputs: dict[Request, str]) -> list[str]:
        rng = random.Random(0)
        argvs = [
            ("rsk", "--json", _random_multisegment(rng, 60)),
            ("derive", "--gamma-descriptor", "--json", _random_multisegment(rng, 40)),
            ("derive", "--phi", "--json", *(_random_multisegment(rng, 30) for _ in range(3))),
            ("derive", "--bz", "300", "--json", _random_multisegment(rng, 40)),
            _specht_argv(rng),
            _specht_argv(rng),
        ]
        return [self.run(Request(a[0], a)) for a in argvs]


# ---------------------------------------------------------- rsk-adversarial


def _doubled_chain(k: int, length: int, offset: int) -> tuple[tuple[int, int], ...]:
    chain = tuple((offset + i, offset + i + length - 1) for i in range(k))
    return chain + chain


class RskAdversarial(Workload):
    """Direct `rsk_transform` and `width` calls on doubled chains.

    Two copies of the chain [o,o+L-1] << [o+1,o+L] << ... of k segments have
    width 2 and depth k, so the permissibility search inside each of the two
    peels dominates.
    """

    name = "rsk-adversarial"
    # an odd count of sizes puts the median inside one size's repeats
    SIZES = (60, 75, 90, 105, 120, 135, 150)
    CANARY_DIGEST = "37dbf1723bda922c"

    @staticmethod
    def make_round(rng: random.Random, index: int) -> list[Request]:
        """Each size once per call; segment length 1..4 and offset seeded."""
        reqs = [
            Request(op, (k, rng.randint(1, 4), rng.randint(-50, 50)))
            for k in RskAdversarial.SIZES
            for op in ("rsk_transform", "width")
        ]
        rng.shuffle(reqs)
        return reqs

    @staticmethod
    def run(req: Request) -> str:
        m = Multisegment(Segment(b, e) for b, e in _doubled_chain(*req.args))
        if req.kind == "width":
            return str(rsk.width(m))
        return json.dumps(rsk.rsk_transform(m).to_json())

    @staticmethod
    def check(req: Request, output: str) -> None:
        k, length, offset = req.args
        chain = [list(s) for s in _doubled_chain(k, length, offset)[:k]]
        expected = "2" if req.kind == "width" else json.dumps([chain, chain])
        if output != expected:
            raise RequestFailed("output differs from two copies of the chain")

    def depth_inputs(self, reqs: list[Request]) -> list[Multisegment]:
        return [Multisegment(Segment(b, e) for b, e in _doubled_chain(*r.args)) for r in reqs]

    def warm_up(self) -> None:
        for op in ("rsk_transform", "width"):
            self.run(Request(op, (12, 2, 0)))

    def canary(self, outputs: dict[Request, str]) -> list[str]:
        return [
            self.run(Request(op, (k, length, -k)))
            for k in (10, 25, 40)
            for length in (1, 3)
            for op in ("rsk_transform", "width")
        ]


# ------------------------------------------------------------ check-bounded

B = EnumerationBounds

# One round: (suite, arguments, pinned case count).  Entries take about 5 ms
# to 0.5 s.  An odd number of them puts the median and the 90th percentile
# inside one entry's repeats rather than between two entries.
CATALOG: tuple[tuple[str, tuple, int], ...] = (
    ("suite_tableaux", (5,), 19),
    ("suite_tableaux", (6,), 30),
    ("suite_kv", (B(-1, 1, 4),), 209),
    ("suite_combi", (B(-1, 1, 1),), 399),
    ("suite_kv", (B(-2, 2, 3),), 815),
    ("suite_rsk", (B(-2, 2, 2),), 135),
    ("suite_specht", (-1, 1, 2, 4), 191),
    ("suite_kv", (B(-1, 1, 5),), 461),
    ("suite_rsk", (B(-1, 1, 3),), 83),
    ("suite_strings", (B(-1, 1, 3),), 2083),
    ("suite_rsk", (B(0, 2, 4),), 209),
    ("suite_rsk", (B(-1, 2, 3),), 285),
    ("suite_rsk", (B(-1, 1, 4),), 209),
    ("suite_specht", (0, 1, 3, 5), 410),
    ("suite_combi", (B(-2, 2, 1),), 4368),
    ("suite_specht", (-1, 1, 3, 4), 570),
    ("suite_kv", (B(-2, 2, 4),), 3875),
    ("suite_strings", (B(-1, 1, 5),), 2461),
    ("suite_strings", (B(-2, 2, 3),), 2815),
    ("suite_rsk", (B(-2, 2, 3),), 815),
    ("suite_rsk", (B(-1, 2, 4),), 1000),
)

# suites whose signature takes a seed after the bounds
_SEEDED = {"suite_rsk", "suite_kv", "suite_strings", "suite_combi"}


class CheckBounded(Workload):
    """The `checks.suite_*` property suites at small bounds; ops are cases."""

    name = "check-bounded"
    CANARY_DIGEST = "f35b3e1634f8e9b1"

    def make_round(self, rng: random.Random, index: int) -> list[Request]:
        """The whole catalog in seeded order; the suites get the seed too."""
        order = list(range(len(CATALOG)))
        rng.shuffle(order)
        return [Request(CATALOG[i][0], (i, self.seed)) for i in order]

    @staticmethod
    def run(req: Request) -> str:
        index, seed = req.args
        suite, args, _ = CATALOG[index]
        if suite in _SEEDED:
            args = args + (seed,)
        result = getattr(checks, suite)(*args)
        return json.dumps([result.name, result.cases, result.failures, result.notes])

    def units(self, req: Request, output: str) -> int:
        return json.loads(output)[1]

    @staticmethod
    def check(req: Request, output: str) -> None:
        name, cases, failures, _ = json.loads(output)
        pinned = CATALOG[req.args[0]][2]
        if failures:
            raise RequestFailed(f"{name}: {len(failures)} failures, first {failures[0]}")
        if cases != pinned:
            raise RequestFailed(f"{name}: {cases} cases, pinned {pinned}")

    def depth_inputs(self, reqs: list[Request]) -> list[Multisegment]:
        out = []
        for index in sorted({req.args[0] for req in reqs}):
            suite, args, _ = CATALOG[index]
            if suite in ("suite_rsk", "suite_strings"):
                out += checks.bounded_instances(args[0], self.seed, 10_000)[0]
        return out

    def warm_up(self) -> None:
        checks.suite_tableaux(6)
        checks.suite_rsk(B(-1, 1, 2), self.seed)
        checks.suite_specht(-1, 1, 2, 3, self.seed)

    def canary(self, outputs: dict[Request, str]) -> list[str]:
        # at these bounds no suite output depends on the seed, so the run's
        # own outputs in catalog order are the canary
        by_index = {req.args[0]: text for req, text in outputs.items()}
        return [by_index[i] for i in range(len(CATALOG))]


WORKLOADS = {w.name: w for w in (CliLarge, RskAdversarial, CheckBounded)}
