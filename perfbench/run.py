"""Benchmark of segrsk: one workload per run, closed loop, one process.

    python3 perfbench/run.py --workload cli-large --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25

One client sends each request after the previous one returns.  The
untraced run (--trace 0) measures the end-to-end metrics; the traced run
(--trace 1) replays the first round of requests under the tracer and
reports the per-layer metrics.  Every run checks its outputs outside the
timed region, prints each metric with its unit, writes a record to
perfbench/out/ and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.

It measures only this process; no system tracing, no cache dropping.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# fresh processes that repeat the set-up; with the run's own, setup_s is the median
SETUP_PROBES = 6
# p90 needs at least 10 samples beyond it, so a run measures at least this many requests
MIN_REQUESTS = 100
TRACE_ROUNDS = 1
DEPTH_REPEATS = 3
# a result line never carries more than this many failure messages
MAX_MESSAGES = 5
# traced functions reported by calls and self time
SPANNED_METRICS = (
    "rsk.is_permissible_pair", "rsk.knuth_viennot", "rsk.rsk_transform", "rsk.bitableau_of",
    "lattice.cartan_form", "lattice.ell_form", "multisegment.Multisegment.weight",
    "strings.bz_derivative", "strings.bz_string", "strings.phi_weights",
    "strings.phi_multiseg", "strings.c_tuple", "strings.c_prime_tuple",
    "specht.specht_rsk_verify", "specht.pad", "specht.ladder_of_partition",
    "tableaux.ladders_of", "tableaux.c_count", "tableaux.gamma_descriptor",
    "tableaux.standard_tableaux",
    "oracle.dilworth_width", "oracle.brute_permissible", "oracle.kv_choice_independence",
)


@dataclass
class Record:
    round: int
    req: object
    latency: float
    output: str | None
    error: str | None


@dataclass
class Pass:
    records: list[Record]
    wall: float
    round_walls: list[float]


def load_library() -> None:
    """Import the library from this checkout's src/, never from elsewhere."""
    if not (SRC / "segrsk" / "__init__.py").is_file():
        raise SystemExit(f"error: no library source at {SRC / 'segrsk'}")
    sys.path.insert(0, str(SRC))
    import segrsk

    if Path(segrsk.__file__).resolve().parent != (SRC / "segrsk").resolve():
        raise SystemExit(f"error: imported segrsk from {segrsk.__file__}")


def set_up(name: str, seed: int):
    """Import, input generation and warm-up; returns the workload and seconds taken."""
    t0 = time.perf_counter()
    load_library()
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[name](seed)
    wl.warm_up()
    return wl, time.perf_counter() - t0


def probe_setup(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def measure(wl, seconds: float | None, rounds: int | None = None, tracer=None) -> Pass:
    """Whole rounds until `seconds` have passed and MIN_REQUESTS ran, or `rounds` rounds."""
    records: list[Record] = []
    round_walls: list[float] = []
    perf = time.perf_counter
    t_start = perf()
    i = 0
    while (
        i < rounds if rounds is not None
        else perf() - t_start < seconds or len(records) < MIN_REQUESTS
    ):
        r_start = perf()
        for req in wl.round(i):
            span = tracer.begin_request(len(records)) if tracer else None
            t0 = perf()
            try:
                output, error = wl.run(req), None
            except Exception as exc:  # a failed request is counted, not fatal
                output, error = None, f"{type(exc).__name__}: {exc}"
            latency = perf() - t0
            if tracer:
                tracer.end_request(span)
            records.append(Record(i, req, latency, output, error))
        round_walls.append(perf() - r_start)
        i += 1
    return Pass(records, perf() - t_start, round_walls)


def check_outputs(wl, passes: list[Pass]) -> tuple[int, list[str], dict]:
    """Failed request count, failure messages and the first output per request.

    A request fails if it raised, if its output fails the workload's check,
    or if a repeat of it does not reproduce its first output.
    """
    first: dict = {}
    bad: dict = {}
    failed = 0
    messages: list[str] = []
    for p in passes:
        for rec in p.records:
            if rec.error is not None:
                failed += 1
                messages.append(f"{rec.req.kind} in round {rec.round}: {rec.error}"[:300])
                continue
            if rec.req not in first:
                first[rec.req] = rec.output
                try:
                    wl.check(rec.req, rec.output)
                except Exception as exc:  # any malformed output is a failed check
                    bad[rec.req] = f"{type(exc).__name__}: {exc}"
            elif rec.output != first[rec.req]:
                bad.setdefault(rec.req, "output differs between repeats")
            if rec.req in bad:
                failed += 1
                messages.append(f"{rec.req.kind} in round {rec.round}: {bad[rec.req]}"[:300])
    return failed, messages, first


def end_to_end(wl, p: Pass) -> dict:
    units = sum(wl.units(r.req, r.output) for r in p.records if r.output is not None)
    ms = [r.latency * 1e3 for r in p.records]
    # at least MIN_REQUESTS samples leave 10 or more beyond p90
    return {
        "ops_per_s": (units / p.wall, "1/s"),
        "latency_p50_ms": (stats.percentile(ms, 50), "ms"),
        "latency_p90_ms": (stats.percentile(ms, 90), "ms"),
    }


def time_depth(wl, reqs) -> float:
    """Milliseconds for the public depth_function over the inputs of `reqs`, median of repeats."""
    from segrsk import rsk

    inputs = wl.depth_inputs(reqs)
    times = []
    for _ in range(DEPTH_REPEATS):
        t0 = time.perf_counter()
        for m in inputs:
            rsk.depth_function(m)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def traced_metrics(wl, baseline: Pass, workload: str) -> tuple[dict, list[Pass], list[str]]:
    """Replay the first rounds twice under the tracer; per-layer metrics.

    Returns the metrics, every replay for the output checks, and problems
    that make the run incorrect.
    """
    import tracer as tracing

    problems: list[str] = []
    passes: list[Pass] = []
    untraced: list[Pass] = []
    for replay in range(2):
        # an untraced replay just before each traced one, so that drift in
        # the machine's speed between them barely enters the overhead
        untraced.append(measure(wl, None, rounds=TRACE_ROUNDS))
        tr = tracing.Tracer()
        tr.install()
        try:
            p = measure(wl, None, rounds=TRACE_ROUNDS, tracer=tr)
        finally:
            tr.uninstall()
        passes.append(p)
        if replay == 0:
            summary, counts = tr.summary(p.wall), tr.counts()
            OUT.mkdir(exist_ok=True)
            tr.write(OUT / f"{workload}.spans")
        elif tr.counts() != counts:
            problems.append("call counts differ between two traced passes")
    if abs(summary["closure_error"]) > 1e-6 * passes[0].wall:
        problems.append(f"layer self times miss the wall time by {summary['closure_error']:.3g} s")

    calls, own, total = counts["calls"], summary["self"], summary["total"]
    m: dict = {}
    for name in SPANNED_METRICS:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_ms"] = (own.get(name, 0.0) * 1e3, "ms")
    for cls in ("lattice.Weight", "lattice.LaurentPoly", "multisegment.Multisegment"):
        m[f"{cls}.calls"] = (counts["constructors"].get(cls, 0), "count")
    m["rsk.depth_function.ms"] = (time_depth(wl, [r.req for r in passes[0].records]), "ms")
    peels, delivered = calls.get("rsk.knuth_viennot", 0), counts["ladders_delivered"]
    m["rsk.knuth_viennot.calls_per_ladder"] = (peels / delivered if delivered else 0.0, "ratio")
    lop = calls.get("specht.ladder_of_partition", 0)
    m["specht.ladder_of_partition.distinct_ratio"] = (
        counts["distinct_partition_args"] / lop if lop else 0.0, "ratio")
    for suite in ("rsk", "kv", "strings", "combi", "tableaux", "specht"):
        m[f"checks.suite_{suite}.s"] = (total.get(f"checks.suite_{suite}", 0.0), "s")
        m[f"checks.suite_{suite}.cases"] = (counts["suite_cases"].get(suite, 0), "count")
    m["cli.main.self_ms"] = (own.get("cli.main", 0.0) * 1e3, "ms")
    for sub in ("rsk", "derive", "specht"):
        ms = [r.latency * 1e3 for r in baseline.records if r.req.kind == sub]
        m[f"cli.{sub}.latency_p50_ms"] = (stats.percentile(ms, 50) if ms else 0.0, "ms")
    for layer, seconds in summary["layer_self"].items():
        m[f"layer.{layer}.self_ms"] = (seconds * 1e3, "ms")
    m["layer.remainder_ms"] = (summary["remainder"] * 1e3, "ms")
    m["trace.wall_ms"] = (passes[0].wall * 1e3, "ms")
    traced_s, untraced_s = sum(p.wall for p in passes), sum(p.wall for p in untraced)
    m["trace_overhead_ratio"] = (traced_s / untraced_s - 1, "ratio")
    return m, passes + untraced, problems


def git_head() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(name: str, seed: int, seconds: int, trace: bool) -> int:
    wl, own_setup = set_up(name, seed)
    import workloads

    setup_samples = [own_setup]
    if not trace:
        setup_samples += [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
    baseline = measure(wl, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    base_metrics = end_to_end(wl, baseline)
    base_metrics["setup_s"] = (statistics.median(setup_samples), "s")
    base_metrics["peak_rss_mb"] = (rss_mb, "MB")

    problems: list[str] = []
    passes = [baseline]
    if trace:
        metrics, traced, problems = traced_metrics(wl, baseline, name)
        passes += traced
    else:
        metrics = base_metrics
    failed, messages, first = check_outputs(wl, passes)
    canary = workloads.digest(wl.canary(first))
    if canary != wl.CANARY_DIGEST:
        problems.append(f"canary digest {canary}, pinned {wl.CANARY_DIGEST}")
    attempted = sum(len(p.records) for p in passes)
    correct = failed == 0 and not problems

    for key, (value, unit) in metrics.items():
        print(f"{key:48s} {value:14.6g} {unit}")
    print(f"{'ops_failed_ratio':48s} {failed / attempted:14.6g} ratio")
    print(f"{'latency_samples':48s} {len(baseline.records):14d} count")
    for text in problems + messages[:MAX_MESSAGES]:
        print(f"FAILED: {text}")

    as_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "git_head": git_head(), "nproc": os.cpu_count(),
        "attempted": attempted, "failed": failed, "ops_failed_ratio": failed / attempted,
        "latency_samples": len(baseline.records), "setup_samples_s": setup_samples,
        "canary_digest": canary, "problems": problems, "failures": messages[:MAX_MESSAGES],
        "metrics": as_json,
        "untraced_baseline": {k: {"value": v, "unit": u} for k, (v, u) in base_metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-trace{int(trace)}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": as_json}))
    return 0


def run_all(seed: int, seconds: int) -> int:
    """Each workload, untraced then traced, each in a fresh process."""
    load_library()
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            print(f"== {name} --trace {trace}", flush=True)
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                timeout=600,
            )
            status = status or proc.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")
    if args.setup_probe:
        print(set_up(args.workload, args.seed)[1])
        return 0
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
