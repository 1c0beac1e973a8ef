"""The suite-local peel memo, and the suites' checks still firing through it."""

import random

import pytest

from segrsk import checks, oracle, rsk
from segrsk.checks import (
    PARTITIONS_CACHE_SIZE,
    bounded_instances,
    partitions_of,
    suite_rsk,
    suite_strings,
)
from segrsk.multisegment import Multisegment
from segrsk.oracle import EnumerationBounds, enumerate_multisegments
from segrsk.rsk import _peel_trace


def _random_multisegment(rng, n):
    return Multisegment.of(
        *((b, b + rng.randint(0, 6)) for b in (rng.randint(-20, 20) for _ in range(n)))
    )


@pytest.fixture
def count_peels(monkeypatch):
    """Route rsk.knuth_viennot through a counter of its inputs."""
    peeled = []
    true_peel = rsk.knuth_viennot

    def counted(m):
        peeled.append(m)
        return true_peel(m)

    monkeypatch.setattr(rsk, "knuth_viennot", counted)
    return peeled


class TestPeelTrace:
    def test_matches_peel_trace_on_shuffled_domain(self):
        domain = list(enumerate_multisegments(EnumerationBounds(-2, 2, 4)))
        random.Random(7001).shuffle(domain)
        steps = {}
        for m in domain:
            assert _peel_trace(m, steps, 4) == rsk.peel_trace(m), str(m)
        # every rest lies in the domain, so the memo holds each nonempty input
        assert len(steps) == len(domain) - 1
        assert all(steps[x] == rsk.knuth_viennot(x) for x in steps)

    def test_peels_each_distinct_rest_once(self, count_peels):
        domain = [m for m in enumerate_multisegments(EnumerationBounds(-1, 1, 4)) if m]
        random.Random(7002).shuffle(domain)
        steps = {}
        for m in domain:
            _peel_trace(m, steps, 4)
        assert len(count_peels) == len(set(count_peels)) == len(steps)

    @pytest.mark.parametrize("n", [25, 100, 400])
    def test_matches_peel_trace_on_random_inputs(self, n):
        rng = random.Random(7100 + n)
        steps = {}
        for _ in range(3 if n < 400 else 1):
            m = _random_multisegment(rng, n)
            # a second pass reads every step back from the memo
            assert _peel_trace(m, steps, n) == rsk.peel_trace(m)
            assert _peel_trace(m, steps, n) == rsk.peel_trace(m)

    def test_stores_only_small_multisegments(self):
        rng = random.Random(7003)
        steps = {}
        for n in (3, 6, 12):
            m = _random_multisegment(rng, n)
            assert _peel_trace(m, steps, 4) == rsk.peel_trace(m)
        assert steps
        assert all(len(x) <= 4 for x in steps)
        assert _peel_trace(Multisegment.empty(), steps, 4) == ()


@pytest.mark.parametrize("suite", [suite_rsk, suite_strings])
@pytest.mark.parametrize(
    "bounds", [EnumerationBounds(-1, 1, 3), EnumerationBounds(-2, 2, 6)]
)
def test_suites_keep_only_multisegments_below_the_exhaustive_size(
    suite, bounds, monkeypatch
):
    # the second bounds are exhaustive through size 5 and sample size 6
    memos = []
    true_peel_trace = rsk._peel_trace

    def recording(m, steps, keep):
        memos.append(steps)
        return true_peel_trace(m, steps, keep)

    monkeypatch.setattr(rsk, "_peel_trace", recording)
    result = suite(bounds, 3, 200)
    assert result.ok
    _, exhaustive = bounded_instances(bounds, 3, 200)
    assert len({id(steps) for steps in memos}) == 1
    assert memos[0]
    assert max(len(x) for x in memos[0]) == exhaustive - 1


def _tail_peel(ladder, rest):
    """True on the peel of a multisegment of two segments."""
    return len(ladder) + len(rest) == 2


def _only_size(k, bounds, seed, sample):
    """bounded_instances restricted to k segments, so smaller rests are never instances."""
    instances, exhaustive = bounded_instances(bounds, seed, sample)
    return [m for m in instances if len(m) == k], exhaustive


def _large_first(bounds, seed, sample):
    """bounded_instances with the largest instances first."""
    instances, exhaustive = bounded_instances(bounds, seed, sample)
    return sorted(instances, key=len, reverse=True), exhaustive


class TestSuiteMutations:
    """Defects that only show on tail peels still fail the suites."""

    BOUNDS = EnumerationBounds(-1, 1, 3)

    @pytest.fixture(params=["every size", "size 3 only"])
    def instances(self, request, monkeypatch):
        if request.param == "size 3 only":
            monkeypatch.setattr(
                checks, "bounded_instances", lambda *a: _only_size(3, *a)
            )
        return request.param

    def test_unchanged_suites_pass(self, instances):
        assert suite_rsk(self.BOUNDS).ok
        assert suite_strings(self.BOUNDS).ok

    def test_brute_permissible_mutation(self, instances, monkeypatch):
        true_brute = oracle.brute_permissible
        monkeypatch.setattr(
            oracle,
            "brute_permissible",
            lambda ladder, rest: not _tail_peel(ladder, rest) and true_brute(ladder, rest),
        )
        result = suite_rsk(self.BOUNDS)
        assert not result.ok
        assert all("not permissible per oracle" in f for f in result.failures)

    def test_dilworth_width_mutation(self, instances, monkeypatch):
        true_width = oracle.dilworth_width
        monkeypatch.setattr(
            oracle, "dilworth_width", lambda m: true_width(m) + (len(m) == 2)
        )
        result = suite_rsk(self.BOUNDS)
        assert not result.ok
        assert any("width drop" in f for f in result.failures)

    def test_peel_skipped_by_the_guard_is_not_verified(self, monkeypatch):
        # with the guard at 2, the 3-segment instances come first and skip
        # the brute-force check on their 2-segment rests; the 2-segment
        # instances must still run it on those same peels
        monkeypatch.setattr(oracle, "PERMISSIBLE_GUARD", 2)
        monkeypatch.setattr(checks, "bounded_instances", _large_first)
        true_brute = oracle.brute_permissible
        monkeypatch.setattr(
            oracle,
            "brute_permissible",
            lambda ladder, rest: not _tail_peel(ladder, rest) and true_brute(ladder, rest),
        )
        result = suite_rsk(self.BOUNDS)
        two_segment = [
            m for m in enumerate_multisegments(self.BOUNDS) if len(m) == 2
        ]
        assert len(result.failures) == len(two_segment)

    def test_corrupted_extended_peel(self, instances, monkeypatch):
        true_peel = rsk.knuth_viennot
        support_min = self.BOUNDS.support_min

        def corrupted(m):
            ladder, rest = true_peel(m)
            # only extensions reach below the support, and only 2-segment
            # ones are corrupted: their ladder moves one step right
            if len(m) == 2 and min(s.b for s in m) < support_min:
                ladder = ladder.shifted_right()
            return ladder, rest

        monkeypatch.setattr(rsk, "knuth_viennot", corrupted)
        result = suite_strings(self.BOUNDS)
        assert not result.ok
        assert all("RSK(extend(" in f for f in result.failures)


def test_partitions_cache_stays_bounded():
    partitions_of.cache_clear()
    for n in range(PARTITIONS_CACHE_SIZE + 8):
        assert partitions_of(n) == partitions_of.__wrapped__(n)
    info = partitions_of.cache_info()
    assert info.maxsize == PARTITIONS_CACHE_SIZE
    assert info.currsize == PARTITIONS_CACHE_SIZE
