"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every equality is exact (tolerance zero); the stated runtime bounds are
asserted alongside the checks themselves, on the measured time of the work
each criterion reports.  A criterion that reads a suite's result shares one
module-scoped run of it with the other criteria that read it.
"""

import random
import time

import pytest

from segrsk.checks import (
    suite_combi,
    suite_kv,
    suite_rsk,
    suite_specht,
    suite_strings,
    suite_tableaux,
)
from segrsk.errors import InvariantViolation
from segrsk.lattice import LaurentPoly
from segrsk.multisegment import Multisegment
from segrsk.oracle import EnumerationBounds, enumerate_multisegments
from segrsk.specht import Multicharge, Multipartition, is_proper, is_restricted
from segrsk.strings import (
    MultiplicityTable,
    c_prime_tuple,
    c_tuple,
    transfer_multiplicities,
)

SEED = 20260809


def _report(number: int, name: str, cases: int, failures: list[str], elapsed: float, limit: float):
    status = "PASS" if not failures and elapsed < limit else "FAIL"
    print(
        f"criterion {number} ({name}): {status} "
        f"[{cases} cases, {elapsed:.1f}s / limit {limit:.0f}s]"
    )
    for failure in failures[:10]:
        print(f"  counterexample: {failure}")
    assert not failures, f"criterion {number}: {len(failures)} failures"
    assert elapsed < limit, f"criterion {number}: {elapsed:.1f}s exceeds {limit:.0f}s"


def _timed(suite, *args, **kwargs):
    """The suite's result and its wall time in seconds."""
    start = time.perf_counter()
    result = suite(*args, **kwargs)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def rsk_run():
    """suite_rsk on criterion 2's domain; criteria 2 and 6 read it."""
    return _timed(suite_rsk, EnumerationBounds(-3, 3, 6), seed=SEED, sample=10_000)


@pytest.fixture(scope="module")
def tableaux_run():
    """suite_tableaux on partitions of size <= 6 and charges -2..2; criteria 5 and 6 read it."""
    return _timed(suite_tableaux, max_partition_size=6)


def test_criterion_1_combi_identity():
    result, elapsed = _timed(suite_combi, EnumerationBounds(-2, 2, 3), seed=SEED, sample=10_000)
    assert result.cases >= 100_000
    _report(1, "C - C' = Phi", result.cases, result.failures, elapsed, 60)


def test_criterion_2_rsk_wellformed(rsk_run):
    result, elapsed = rsk_run
    assert result.cases >= 10_000
    _report(2, "RSK well-formedness", result.cases, result.failures, elapsed, 120)


def test_criterion_3_derivative_coherence():
    # the suite checks the BZ derivative at T = 3 against the full sweep at T + 2
    result, elapsed = _timed(suite_strings, EnumerationBounds(-3, 3, 6), seed=SEED, sample=10_000)
    print(f"  {'; '.join(result.notes)}")
    _report(3, "derivative coherence", result.cases, result.failures, elapsed, 60)


def test_criterion_4_specht_dictionary():
    result, elapsed = _timed(suite_specht, -2, 2, max_level=3, max_size=8, seed=SEED)
    _report(4, "Specht dictionary", result.cases, result.failures, elapsed, 120)


def test_criterion_5_goldens(tableaux_run):
    """The two worked examples, plus suite_tableaux's cut-ladder identity.

    ladder_of_partition asserts the ladder weight (the content of the
    conjugate shape) on every key the suite asks for.
    """
    suite, suite_elapsed = tableaux_run
    start = time.perf_counter()
    failures = list(suite.failures)
    kappa = Multicharge.of(2, 1, -1)
    proper_mp = Multipartition.parse("4,2,2,2,1|3,3,2,2|3,2")
    improper_mp = Multipartition.parse("4,3,2|3,3,2|3,1")
    if not (is_restricted(kappa, proper_mp) and is_proper(kappa, proper_mp)):
        failures.append("worked proper example misclassified")
    if not (is_restricted(kappa, improper_mp) and not is_proper(kappa, improper_mp)):
        failures.append("worked improper example misclassified")
    elapsed = suite_elapsed + time.perf_counter() - start
    _report(5, "worked-example goldens", 2 + suite.cases, failures, elapsed, 60)


def test_criterion_6_tableaux_layer(rsk_run, tableaux_run):
    """suite_rsk's bitableau layer and suite_tableaux's counts and residues.

    Per RSK instance: the bitableau round trip (asserted by
    LadderSequence.bitableau) and C, C' against c_count.  Per partition of
    size <= 6: the hook-length count and, at charges -2..2, the residue
    weight of every standard tableau.
    """
    (rsk, rsk_elapsed), (tab, tab_elapsed) = rsk_run, tableaux_run
    _report(
        6,
        "tableaux layer",
        rsk.cases + tab.cases,
        rsk.failures + tab.failures,
        rsk_elapsed + tab_elapsed,
        60,
    )


def _reference_transfer(table, ms):
    """Independent filter-shift-rekey; the shift comes from C - C'."""
    combined = Multisegment()
    for piece in ms:
        combined = combined + piece
    target = combined.begin_weight()
    phi = c_tuple(ms) - c_prime_tuple(ms)
    out = {}
    collided = False
    for key, poly in table.items():
        if key.begin_weight() != target:
            continue
        new_key = key.derived()
        if new_key in out:
            collided = True
        out[new_key] = poly * LaurentPoly.q_power(-phi)
    return out, collided


def test_criterion_7_transfer():
    start = time.perf_counter()
    failures = []
    rng = random.Random(SEED)
    pool = [m for m in enumerate_multisegments(EnumerationBounds(-2, 2, 3))]
    by_weight = {}
    for m in pool:
        by_weight.setdefault(m.weight(), []).append(m)
    cases = 0
    while cases < 10_000:
        ms = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        total = Multisegment()
        for piece in ms:
            total = total + piece
        keys = by_weight.get(total.weight(), [])
        if not keys:
            continue
        cases += 1
        chosen = rng.sample(keys, k=min(len(keys), rng.randint(1, 4)))
        table = MultiplicityTable(
            {
                key: LaurentPoly({rng.randint(-2, 2): rng.randint(1, 3)})
                for key in chosen
            }
        )
        expected, collided = _reference_transfer(table, ms)
        if collided:
            failures.append(f"reference collision on {ms}")
            continue
        try:
            got = transfer_multiplicities(table, ms)
        except InvariantViolation as exc:
            failures.append(f"collision alarm on {ms}: {exc}")
            continue
        if got != MultiplicityTable(expected):
            failures.append(f"transfer mismatch on table {table.to_json()} via {ms}")
    elapsed = time.perf_counter() - start
    _report(7, "multiplicity transfer", cases, failures, elapsed, 60)


def test_criterion_8_kv_choice_independence():
    result, elapsed = _timed(suite_kv, EnumerationBounds(-2, 2, 5), seed=SEED)
    _report(8, "peeling choice independence", result.cases, result.failures, elapsed, 60)
