"""Property suites over bounded enumerations, driven by the check command.

Each suite exhausts the bounded domain where that is feasible and extends it
with seeded random draws otherwise, so every run is reproducible from its
parameters.  Failures carry the offending instance in parseable text.
"""

from __future__ import annotations

import itertools
import random
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

from . import oracle, rsk, specht, strings, tableaux
from .errors import InvariantViolation, PreconditionError, ShapeViolation
from .multisegment import Multisegment
from .oracle import EnumerationBounds, enumerate_multisegments
from .tableaux import Partition

# the suites run_suite (and so `segrsk check --suite`) runs; "all" runs each
SUITES = ("combi", "rsk", "specht", "strings", "all")

EXHAUSTIVE_TUPLES = 1_000_000
EXHAUSTIVE_INSTANCES = 50_000

# Size rules of run_suite, checked arithmetically before any suite runs (a
# violated rule is a PreconditionError, exit 2 in the CLI).  Most
# multisegments a suite holds at once: its segment pool plus its instance
# list or domain (suite_rsk holds about 0.24 KB per instance; 85,959
# instances took 14 s and 38 MB peak RSS, 17 MB of it the interpreter).
CHECK_MAX_HELD = 100_000
# Most cases a suite walks through: tuples, instances or multicharge and
# multipartition pairs (suite_combi at the acceptance bound walks 676,672
# tuples in about 8 s).
CHECK_MAX_CASES = 2_000_000
# Most segments per instance for combi, rsk and strings (a sampled
# 16-segment instance takes about 0.4 ms in suite_rsk).
CHECK_MAX_SEGMENTS = 16
# Highest multicharge level for specht: each of its cases builds and checks
# a tuple of level components (a walked pair at level 16 took 0.02 to
# 0.14 ms, about what one at criterion 4's level 3 takes).
CHECK_MAX_LEVEL = 16
# Widest support |min|, |max| for combi and strings: every case of theirs
# builds or reads a BZ vector of 2t + 1 entries.
CHECK_MAX_SUPPORT = 100


@dataclass
class SuiteResult:
    """Outcome of one property suite."""

    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    # size through which the domain is exhausted (segments per instance,
    # tuple length for combi, cells for specht and tableaux), and how many
    # of the cases were drawn at random
    exhaustive_through: int = 0
    sampled: int = 0
    # wall time of the suite, set by run_suite
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def cases_per_s(self) -> float:
        return self.cases / self.elapsed_s if self.elapsed_s > 0 else 0.0


def _instance_plan(pool_size: int, max_segments: int, sample: int) -> tuple[int, int, int]:
    """bounded_instances' exhaustive size, exhaustive count and sample count."""
    exhaustive_size = 0
    total = 0
    for k in range(1, max_segments + 1):
        count = comb(pool_size + k - 1, k)
        if total + count > EXHAUSTIVE_INSTANCES:
            break
        total += count
        exhaustive_size = k
    # multisegments of sizes 1..max_segments number C(pool + max, max) - 1
    beyond = comb(pool_size + max_segments, max_segments) - 1 - total
    return exhaustive_size, total, min(sample, beyond)


def bounded_instances(
    bounds: EnumerationBounds, seed: int, sample: int
) -> tuple[list[Multisegment], int]:
    """Nonempty instances: exhaustive sizes while affordable, sampled beyond,
    uniformly without replacement over the multisegments of the larger sizes.

    Returns the instance list and the size up to which it is exhaustive.
    """
    pool = bounds.segments()
    exhaustive_size, _, sample = _instance_plan(len(pool), bounds.max_segments, sample)
    instances: list[Multisegment] = []
    for k in range(1, exhaustive_size + 1):
        instances.extend(
            Multisegment(c) for c in itertools.combinations_with_replacement(pool, k)
        )
    sizes = range(exhaustive_size + 1, bounds.max_segments + 1)
    counts = [comb(len(pool) + k - 1, k) for k in sizes]
    # Floyd's algorithm: `sample` distinct ranks in `sample` draws, each set
    # equally likely; rng.sample would take len(range), capped at 2**63 - 1
    rng, ranks = random.Random(seed), set()
    for top in range(sum(counts) - sample, sum(counts)):
        rank = rng.randrange(top + 1)
        ranks.add(top if rank in ranks else rank)
    for rank in sorted(ranks):
        for k, count in zip(sizes, counts):  # the size k, and the rank within it
            if rank < count:
                break
            rank -= count
        # the rank-th k slots c_k > ... > c_1 among pool + k - 1 in colex order,
        # ranked sum comb(c_j, j); by stars and bars they pick k pool segments
        slots = [len(pool) + k - 1]
        for j in range(k, 0, -1):
            low, high = j - 1, slots[-1]  # bisect for the largest comb(c_j, j) <= rank
            while high - low > 1:
                mid = (low + high) // 2
                low, high = (mid, high) if comb(mid, j) <= rank else (low, mid)
            rank -= comb(low, j)
            slots.append(low)
        instances.append(Multisegment(pool[c - i] for i, c in enumerate(reversed(slots[1:]))))
    return instances, exhaustive_size


def _repro(suite: str, bounds: EnumerationBounds, seed: int, sample: int) -> str:
    return (
        f"segrsk check --suite {suite} --min {bounds.support_min} "
        f"--max {bounds.support_max} --max-segments {bounds.max_segments} "
        f"--seed {seed} --sample {sample}"
    )


def _with_rerun_line(result: SuiteResult, repro: str) -> SuiteResult:
    """Append the command line that reruns the suite to each of its failures."""
    result.failures = [f"{failure} | {repro}" for failure in result.failures]
    return result


def suite_combi(
    bounds: EnumerationBounds, seed: int = 0, sample: int = 10_000
) -> SuiteResult:
    """C - C' = Phi, and Phi agrees with the string-form shift on BZ data."""
    result = SuiteResult("combi")
    domain = list(enumerate_multisegments(bounds))
    t = max(abs(bounds.support_min), abs(bounds.support_max))
    seq = strings.AdmissibleSequence.bz(t)
    idx = seq.indices
    repro = _repro("combi", bounds, seed, sample)
    # BZ coordinates, weights and checked betas are per-element data: build
    # and validate them once, outside the tuple loops
    data = {}
    for m in domain:
        a = strings.bz_string(m, t)
        w = m.weight()
        data[m] = (a, w, strings._checked_betas(seq, (a,), (w,))[0])

    def check(ms: tuple[Multisegment, ...]) -> None:
        result.cases += 1
        c = strings.c_tuple(ms)
        cp = strings.c_prime_tuple(ms)
        phi = strings.phi_multiseg(ms)
        if c - cp != phi:
            result.failures.append(
                f"C-C'={c - cp} but Phi={phi} on ({', '.join(map(str, ms))})"
            )
            return
        avecs, betas, bvs = zip(*(data[m] for m in ms))
        if strings._phi_pairs(idx, avecs, betas, bvs) != phi:
            result.failures.append(
                f"string-form Phi mismatch on ({', '.join(map(str, ms))})"
            )

    for arity in (1, 2, 3):
        if arity == 1 or len(domain) ** arity <= EXHAUSTIVE_TUPLES:
            for ms in itertools.product(domain, repeat=arity):
                check(ms)
            result.exhaustive_through = arity
        else:
            rng = random.Random(seed + arity - 2)
            for _ in range(sample):
                check(tuple(rng.choice(domain) for _ in range(arity)))
            result.sampled += sample
    return _with_rerun_line(result, repro)


def suite_rsk(
    bounds: EnumerationBounds, seed: int = 0, sample: int = 10_000
) -> SuiteResult:
    """RSK well-formedness and row insertion, width, permissibility,
    injectivity, bitableaux."""
    result = SuiteResult("rsk")
    repro = _repro("rsk", bounds, seed, sample)
    instances, exhaustive_size = bounded_instances(bounds, seed, sample)
    result.notes.append(f"exhaustive through size {exhaustive_size}")
    result.exhaustive_through = exhaustive_size
    result.sampled = sum(1 for m in instances if len(m) > exhaustive_size)
    # a rest has fewer segments than the multisegment it comes from, so
    # within the exhaustive sizes every rest is an earlier instance: each
    # multisegment is peeled, measured and checked once.  Only multisegments
    # below the exhaustive size can be met again, so only those are kept.
    keep = exhaustive_size - 1
    steps: dict[Multisegment, tuple[Multisegment, Multisegment]] = {}
    # Dilworth width of every kept multisegment whose peel went through
    # every per-peel check, the brute-force permissibility check included.
    # Its rests went through them in the same pass, so a trace that reaches
    # it is checked from there on.
    verified: dict[Multisegment, int] = {}
    for m in instances:
        result.cases += 1
        try:
            # one peel trace serves the transform, the per-peel oracle
            # checks and the bitableau; it is read twice, so the stream is
            # held as a tuple
            trace = tuple(rsk._peel_trace(m, steps, keep))
            transform = rsk.LadderSequence.from_trace(trace)
        except (InvariantViolation, ShapeViolation) as exc:
            result.failures.append(f"RSK({m}) failed: {exc}")
            continue
        if oracle.insertion_ladders(m) != transform.ladders:
            result.failures.append(f"RSK({m}) differs from row insertion")
        # with the row insertion check, injectivity: RSK(m) determines m
        try:
            inverse = oracle.insertion_inverse(transform.ladders)
        except PreconditionError as exc:
            result.failures.append(f"reverse bumping of RSK({m}) failed: {exc}")
        else:
            if inverse != m:
                result.failures.append(f"reverse bumping of RSK({m}) gives {inverse}")
        prev_width = oracle.dilworth_width(m)
        if len(transform) != prev_width:
            result.failures.append(f"width({m})={len(transform)} != Dilworth {prev_width}")
        # the brute-force oracle runs on every peel of an instance within
        # its guard, and on none of a larger one's
        brute = len(m) <= oracle.PERMISSIBLE_GUARD
        rest = m
        for ladder, new_rest in trace:
            if rest in verified:
                break
            if brute and not oracle.brute_permissible(ladder, new_rest):
                result.failures.append(f"peel of {rest} not permissible per oracle")
            w = 0
            if new_rest:
                w = verified.get(new_rest)
                if w is None:
                    w = oracle.dilworth_width(new_rest)
                if w != prev_width - 1:
                    result.failures.append(f"width drop {prev_width}->{w} peeling {rest}")
            if brute and len(rest) <= keep:
                verified[rest] = prev_width
            rest, prev_width = new_rest, w
        # bitableau layer on the same instance; bitableau() itself asserts
        # that ladders_of(P, Q) gives back the transform
        try:
            pq = transform.bitableau()
        except (InvariantViolation, ShapeViolation) as exc:
            result.failures.append(f"bitableau of {m} failed: {exc}")
            continue
        lads = list(transform)
        if strings.c_tuple(lads) != tableaux.c_count(pq):
            result.failures.append(f"C(ladders) != C(P,Q) for {m}")
        derived_pair = tableaux.BitableauPair(pq.p.increment(), pq.q)
        if strings.c_prime_tuple(lads) != tableaux.c_count(derived_pair):
            result.failures.append(f"C'(ladders) != C(P',Q) for {m}")
    return _with_rerun_line(result, repro)


def suite_kv(bounds: EnumerationBounds, seed: int = 0, sample: int = 10_000) -> SuiteResult:
    """Peeling output is independent of the depth-class enumeration choice."""
    capped = EnumerationBounds(
        bounds.support_min,
        bounds.support_max,
        min(bounds.max_segments, oracle.KV_GUARD - 1),
    )
    result = SuiteResult("kv", exhaustive_through=capped.max_segments)
    # the domain is exhausted: seed and sample only complete the rsk rerun line
    repro = _repro("rsk", bounds, seed, sample)
    for m in enumerate_multisegments(capped):
        if not m:
            continue
        result.cases += 1
        if not oracle.kv_choice_independence(m):
            result.failures.append(f"enumeration choice changes peel of {m}")
    return _with_rerun_line(result, repro)


def suite_strings(
    bounds: EnumerationBounds, seed: int = 0, sample: int = 10_000
) -> SuiteResult:
    """Derivative coherence and BZ-string additivity on the bounded domain."""
    result = SuiteResult("strings")
    repro = _repro("strings", bounds, seed, sample)
    t = max(abs(bounds.support_min), abs(bounds.support_max))
    instances, exhaustive_size = bounded_instances(bounds, seed, sample)
    result.notes.append(f"exhaustive through size {exhaustive_size}")
    result.exhaustive_through = exhaustive_size
    result.sampled = sum(1 for m in instances if len(m) > exhaustive_size)
    # first peels shared by the RSKs of the instances and of their extensions,
    # kept below the exhaustive size as in suite_rsk
    keep = exhaustive_size - 1
    steps: dict[Multisegment, tuple[Multisegment, Multisegment]] = {}
    empties_logged = 0
    for m in instances:
        result.cases += 1
        try:
            # asserts that the derivative is the left truncation m.derived()
            derived = strings.bz_derivative(m, t)
        except InvariantViolation as exc:
            result.failures.append(f"BZ derivative of {m} failed: {exc}")
            continue
        if oracle.reference_bz_derivative(m, t + 2) != derived:
            result.failures.append(f"BZ derivative of {m} is T-dependent")
        ext = m.extended()
        if ext.derived() != m:
            result.failures.append(f"derive(extend({m})) != input")
        ext_rsk = rsk.LadderSequence.from_trace(rsk._peel_trace(ext, steps, keep))
        derived_entries = [lad.derived() for lad in ext_rsk]
        empties_logged += sum(1 for lad in derived_entries if not lad)
        nonempty = [lad for lad in derived_entries if lad]
        m_rsk = rsk.LadderSequence.from_trace(rsk._peel_trace(m, steps, keep))
        if nonempty != list(m_rsk):
            result.failures.append(f"RSK(extend({m})) truncated entrywise != RSK({m})")
    rng = random.Random(seed)
    # each instance's BZ vector, computed once: recomputing them made a round
    # of this suite 14 % slower (0.074 -> 0.084 s)
    bz_vector = lru_cache(maxsize=None)(lambda x: strings.bz_string(x, t))
    # no more draws than there are ordered pairs of instances
    pairs = min(sample, 2000, len(instances) ** 2)
    result.sampled += pairs
    for _ in range(pairs):
        m1 = rng.choice(instances)
        m2 = rng.choice(instances)
        result.cases += 1
        a1 = bz_vector(m1)
        a2 = bz_vector(m2)
        a12 = strings.bz_string(m1 + m2, t)
        if tuple(x + y for x, y in zip(a1, a2)) != a12:
            result.failures.append(f"BZ string not additive on {m1}, {m2}")
    result.notes.append(f"empty derived ladders logged: {empties_logged}")
    return _with_rerun_line(result, repro)


def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, reverse-lexicographic."""
    out: list[Partition] = []
    # (parts so far, what they leave of n); the largest next part is pushed
    # last, so it is taken first
    stack: list[tuple[tuple[int, ...], int]] = [((), n)]
    while stack:
        acc, remaining = stack.pop()
        if remaining == 0:
            out.append(Partition(acc))
            continue
        cap = min(acc[-1] if acc else n, remaining)
        stack.extend((acc + (part,), remaining - part) for part in range(1, cap + 1))
    return tuple(out)


def iter_multicharges(cmin: int, cmax: int, max_level: int) -> Iterator[specht.Multicharge]:
    for level in range(1, max_level + 1):
        for combo in itertools.combinations_with_replacement(
            range(cmax, cmin - 1, -1), level
        ):
            yield specht.Multicharge(combo)


def iter_multipartitions(level: int, max_total: int) -> Iterator[specht.Multipartition]:
    """All multipartitions with the given level and total size at most max_total.

    Ordered by the first component's size, then its partition in partitions_of
    order, then likewise by each later component.  The walk keeps one iterator
    of choices per component on a stack, so a deep level needs no recursion.
    """
    if level == 0:
        yield specht.Multipartition(())
        return
    by_size = [partitions_of(n) for n in range(max_total + 1)]

    def choices(budget: int) -> Iterator[tuple[Partition, int]]:
        # each partition of size at most budget, with the budget it leaves
        return ((mu, budget - n) for n in range(budget + 1) for mu in by_size[n])

    acc: list[Partition] = []
    stack = [choices(max_total)]
    while stack:
        for mu, rest in stack[-1]:
            if len(stack) < level and rest:
                acc.append(mu)
                stack.append(choices(rest))
                break
            # with no budget left, every later component is empty
            yield specht.Multipartition((*acc, mu) + by_size[0] * (level - len(stack)))
        else:
            stack.pop()
            if acc:
                acc.pop()


def suite_specht(
    charge_min: int = -2,
    charge_max: int = 2,
    max_level: int = 3,
    max_size: int = 8,
    seed: int = 0,
) -> SuiteResult:
    """Padding, the RSK dictionary and column removal over all restricted inputs."""
    result = SuiteResult("specht", exhaustive_through=max_size)
    repro = (
        f"segrsk check --suite specht --min {charge_min} --max {charge_max} "
        f"--max-segments {max_size} --level {max_level} --seed {seed}"
    )
    for kappa in iter_multicharges(charge_min, charge_max, max_level):
        for mp in iter_multipartitions(len(kappa), max_size):
            if not specht.is_restricted(kappa, mp):
                continue
            result.cases += 1
            case = f"kappa=({kappa}) mp=({mp})"
            # specht_rsk_verify pads, and pad asserts properness and the cut
            try:
                report = specht.specht_rsk_verify(kappa, mp)
            except InvariantViolation as exc:
                result.failures.append(f"dictionary failed on {case}: {exc}")
                continue
            if not report.gamma.is_positive():
                result.failures.append(f"gamma not positive on {case}")
            if report.proper_case and not specht.proper_rsk_identity(kappa, mp):
                result.failures.append(f"proper RSK identity broken on {case}")
            if not specht.column_removal_check(kappa, mp):
                result.failures.append(f"column removal broken on {case}")
    return _with_rerun_line(result, repro)


def suite_tableaux(
    max_partition_size: int = 6, repro: str = "segrsk check --suite rsk"
) -> SuiteResult:
    """Hook-length counts, residue weights and the cut-ladder identity.

    Residue weights and ladders are checked at the charges -2..2.  Every rsk
    run reruns it at the default bounds; run_suite passes its own run line.
    """
    result = SuiteResult("tableaux", exhaustive_through=max_partition_size)
    for n in range(max_partition_size + 1):
        for mu in partitions_of(n):
            result.cases += 1
            fillings = tableaux.standard_tableaux(mu)
            if len(fillings) != oracle.hook_length_count(mu):
                result.failures.append(f"tableau count wrong for ({mu})")
            if len(set(fillings)) != len(fillings):
                result.failures.append(f"duplicate tableaux for ({mu})")
            for k in range(-2, 3):
                # ladder_of_partition asserts wt = content of the conjugate
                lad = specht.ladder_of_partition(k, mu)
                if lad.derived() != specht.ladder_of_partition(k, mu.cut()):
                    result.failures.append(f"cut-ladder identity broken at ({k},{mu})")
                for filling in fillings:
                    if tableaux.residue_weight(k, filling) != specht.content(k, mu):
                        result.failures.append(
                            f"residue weight wrong for ({k},{mu},{filling})"
                        )
    return _with_rerun_line(result, repro)


def _specht_pairs(span: int, max_level: int, max_size: int) -> int:
    """(multicharge, multipartition) pairs suite_specht walks through.

    Exact up to CHECK_MAX_CASES; past it, a lower bound that exceeds it.
    Level 1 alone has span times the number of partitions of size at most
    max_size, and there are over 1.9e8 partitions of 100, so larger sizes
    count as 100.
    """
    size = min(max_size, 100)
    # p[n]: partitions of n
    p = [1] + [0] * size
    for part in range(1, size + 1):
        for n in range(part, size + 1):
            p[n] += p[n - part]
    # multipartitions of the current level, by total size; level 0 first
    by_size = [1] + [0] * size
    total = 0
    for level in range(1, max_level + 1):
        by_size = [sum(by_size[j] * p[n - j] for j in range(n + 1)) for n in range(size + 1)]
        pairs = comb(span + level - 1, level) * sum(by_size)
        total += pairs
        # each later level has at least as many charges and multipartitions
        if total + pairs * (max_level - level) > CHECK_MAX_CASES:
            return total + pairs * (max_level - level)
    return total


def size_plan(
    name: str, bounds: EnumerationBounds, sample: int = 10_000, max_level: int = 3
) -> dict[str, tuple[int, int]]:
    """Multisegments held and cases walked by each suite run_suite runs.

    Computed arithmetically: the segment pool is counted, never built.  The
    segment and support caps are checked first, since every other count
    grows with them; a violated cap raises PreconditionError.  suite_tableaux
    runs at fixed bounds and is left out.
    """
    k = bounds.max_segments
    t = max(abs(bounds.support_min), abs(bounds.support_max))
    if name != "specht" and k > CHECK_MAX_SEGMENTS:
        raise PreconditionError(
            f"{k} segments per instance, above the cap {CHECK_MAX_SEGMENTS}"
        )
    if name in ("combi", "strings", "all") and t > CHECK_MAX_SUPPORT:
        raise PreconditionError(f"support reaches {t}, above the cap {CHECK_MAX_SUPPORT}")
    width = bounds.support_max - bounds.support_min + 1
    pool = width * (width + 1) // 2
    plan: dict[str, tuple[int, int]] = {}
    if name in ("combi", "all"):
        domain = bounds.count()
        pairs = domain**2 if domain**2 <= EXHAUSTIVE_TUPLES else sample
        triples = domain**3 if domain**3 <= EXHAUSTIVE_TUPLES else sample
        plan["combi"] = (pool + domain, domain + pairs + triples)
    if name in ("rsk", "strings", "all"):
        _, exhaustive, drawn = _instance_plan(pool, k, sample)
        instances = exhaustive + drawn
    if name in ("rsk", "all"):
        plan["rsk"] = (pool + instances, instances)
        kv = min(k, oracle.KV_GUARD - 1)
        plan["kv"] = (pool, comb(pool + kv, kv) - 1)
    if name in ("strings", "all"):
        plan["strings"] = (pool + instances, instances + min(sample, 2000, instances**2))
    if name in ("specht", "all"):
        # the support bounds are the charges
        plan["specht"] = (0, _specht_pairs(width, max_level, k))
    return plan


def run_suite(
    name: str,
    bounds: EnumerationBounds,
    seed: int = 0,
    sample: int = 10_000,
    max_level: int = 3,
) -> list[SuiteResult]:
    """Dispatch for the check command; 'all' runs every suite.

    An unknown suite name, a level cap below 1, a negative sample size or a
    suite with no case to walk would check nothing and still pass, so all are
    preconditions, checked before any suite runs; so are the level cap
    CHECK_MAX_LEVEL and the size rules of size_plan.
    """
    if name not in SUITES:
        raise PreconditionError(f"unknown suite {name!r}, expected one of {', '.join(SUITES)}")
    if max_level < 1:
        raise PreconditionError(f"multicharge level cap must be at least 1, got {max_level}")
    if max_level > CHECK_MAX_LEVEL:
        raise PreconditionError(
            f"multicharge level cap {max_level} is above the cap {CHECK_MAX_LEVEL}"
        )
    if sample < 0:
        raise PreconditionError(f"sample size must be non-negative, got {sample}")
    for suite, (held, walked) in size_plan(name, bounds, sample, max_level).items():
        if walked == 0:
            raise PreconditionError(f"{suite} would check no case at these bounds")
        if held > CHECK_MAX_HELD:
            raise PreconditionError(
                f"{suite} would hold {held} multisegments, above the cap {CHECK_MAX_HELD}"
            )
        if walked > CHECK_MAX_CASES:
            raise PreconditionError(
                f"{suite} would check {walked} cases, above the cap {CHECK_MAX_CASES}"
            )
    results: list[SuiteResult] = []

    def timed(suite: Callable[[], SuiteResult]) -> None:
        start = time.perf_counter()
        result = suite()
        result.elapsed_s = time.perf_counter() - start
        results.append(result)

    if name in ("combi", "all"):
        timed(lambda: suite_combi(bounds, seed, sample))
    if name in ("rsk", "all"):
        timed(lambda: suite_rsk(bounds, seed, sample))
        timed(lambda: suite_kv(bounds, seed, sample))
        timed(lambda: suite_tableaux(repro=_repro("rsk", bounds, seed, sample)))
    if name in ("strings", "all"):
        timed(lambda: suite_strings(bounds, seed, sample))
    if name in ("specht", "all"):
        timed(
            lambda: suite_specht(
                bounds.support_min,
                bounds.support_max,
                max_level,
                bounds.max_segments,
                seed,
            )
        )
    return results
