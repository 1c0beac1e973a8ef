"""The suite-local peel memo, the suites' checks still firing through it,
and the size rules run_suite checks before any suite runs."""

import ast
import itertools
import random
import signal
from pathlib import Path

import pytest

from _inputs import random_multisegment
from _size_rules import CHECK_SUITES, assert_cap_is_inclusive
from segrsk import checks, oracle, rsk
from segrsk.checks import (
    CHECK_MAX_CASES,
    CHECK_MAX_HELD,
    CHECK_MAX_LEVEL,
    bounded_instances,
    iter_multicharges,
    iter_multipartitions,
    partitions_of,
    run_suite,
    size_plan,
    suite_rsk,
    suite_strings,
)
from segrsk.errors import PreconditionError
from segrsk.multisegment import Multisegment
from segrsk.oracle import EnumerationBounds, enumerate_multisegments
from segrsk.rsk import _peel_trace
from segrsk.specht import Multipartition


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
            assert tuple(_peel_trace(m, steps, 4)) == rsk.peel_trace(m), str(m)
        # every rest lies in the domain, so the memo holds each nonempty input
        assert len(steps) == len(domain) - 1
        assert all(steps[x] == rsk.knuth_viennot(x) for x in steps)

    def test_peels_each_distinct_rest_once(self, count_peels):
        domain = [m for m in enumerate_multisegments(EnumerationBounds(-1, 1, 4)) if m]
        random.Random(7002).shuffle(domain)
        steps = {}
        for m in domain:
            tuple(_peel_trace(m, steps, 4))
        assert len(count_peels) == len(set(count_peels)) == len(steps)

    @pytest.mark.parametrize("n", [25, 100, 400])
    def test_matches_peel_trace_on_random_inputs(self, n):
        rng = random.Random(7100 + n)
        steps = {}
        for _ in range(3 if n < 400 else 1):
            m = random_multisegment(rng, n)
            # a second pass reads every step back from the memo
            assert tuple(_peel_trace(m, steps, n)) == rsk.peel_trace(m)
            assert tuple(_peel_trace(m, steps, n)) == rsk.peel_trace(m)

    def test_stores_only_small_multisegments(self):
        rng = random.Random(7003)
        steps = {}
        for n in (3, 6, 12):
            m = random_multisegment(rng, n)
            assert tuple(_peel_trace(m, steps, 4)) == rsk.peel_trace(m)
        assert steps
        assert all(len(x) <= 4 for x in steps)
        assert tuple(_peel_trace(Multisegment(), steps, 4)) == ()


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

    def test_brute_permissible_runs_within_eight_segments(self, monkeypatch):
        # 285 instances of at most 10 segments in [0, 1], all exhaustive;
        # every rest is an earlier instance, so each instance of at most 8
        # segments is peeled and checked once: 164 calls.  A lower guard
        # shows here (55 calls at 5, 119 at 7) and nowhere else.
        calls = []
        true_brute = oracle.brute_permissible
        monkeypatch.setattr(
            oracle,
            "brute_permissible",
            lambda ladder, rest: calls.append(rest) or true_brute(ladder, rest),
        )
        bounds = EnumerationBounds(0, 1, 10)
        result = suite_rsk(bounds, seed=0)
        assert result.ok and result.cases == 285
        within = [m for m in enumerate_multisegments(bounds) if 0 < len(m) <= 8]
        assert len(calls) == len(within) == 164

    def test_insertion_ladders_mutation(self, instances, monkeypatch):
        # row insertion that drops the last ladder of one 3-segment instance
        target = Multisegment.of((0, 0), (0, 0), (0, 0))
        true_insertion = oracle.insertion_ladders
        monkeypatch.setattr(
            oracle, "insertion_ladders", lambda m: true_insertion(m)[: -1 if m == target else None]
        )
        result = suite_rsk(self.BOUNDS)
        assert [f.partition(" | ")[0] for f in result.failures] == [
            f"RSK({target}) differs from row insertion"
        ]

    def test_insertion_inverse_mutation(self, instances, monkeypatch):
        # reverse bumping that loses a segment of one 3-segment instance
        target = Multisegment.of((-1, 0), (0, 1), (1, 1))
        true_inverse = oracle.insertion_inverse

        def broken(ladders):
            m = true_inverse(ladders)
            return Multisegment(m.segments[1:]) if m == target else m

        monkeypatch.setattr(oracle, "insertion_inverse", broken)
        result = suite_rsk(self.BOUNDS)
        assert [f.partition(" | ")[0] for f in result.failures] == [
            f"reverse bumping of RSK({target}) gives [0,1]+[1,1]"
        ]

    def test_class_without_an_enumeration_fails_suite_kv(self, monkeypatch):
        # with no admissible order of a class there is no peel to compare,
        # which must fail rather than pass with nothing compared
        monkeypatch.setattr(oracle, "_nested_enumerations", lambda pairs, idxs: [])
        result = checks.suite_kv(EnumerationBounds(0, 1, 2), 5, 14000)
        assert result.cases == 9
        assert len(result.failures) == 9
        assert all(f.startswith("enumeration choice changes peel of") for f in result.failures)

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


@pytest.mark.parametrize("exhaustive_tuples", [10**6, 20, 3])
def test_combi_tuple_order(monkeypatch, exhaustive_tuples):
    """suite_combi checks singles, then pairs, then triples: each arity
    exhausted while its tuples fit EXHAUSTIVE_TUPLES, else drawn from
    Random(seed) for pairs and Random(seed + 1) for triples."""
    monkeypatch.setattr(checks, "EXHAUSTIVE_TUPLES", exhaustive_tuples)
    bounds, seed, sample = EnumerationBounds(0, 1, 1), 5, 7
    seen = []
    true_c_tuple = checks.strings.c_tuple

    def recording(ms):
        seen.append(tuple(ms))
        return true_c_tuple(ms)

    monkeypatch.setattr(checks.strings, "c_tuple", recording)
    result = checks.suite_combi(bounds, seed, sample)
    assert result.ok
    domain = list(enumerate_multisegments(bounds))
    expected = [(m,) for m in domain]
    rngs = {2: random.Random(seed), 3: random.Random(seed + 1)}
    for arity, rng in rngs.items():
        if len(domain) ** arity <= exhaustive_tuples:
            expected += itertools.product(domain, repeat=arity)
        else:
            expected += [
                tuple(rng.choice(domain) for _ in range(arity)) for _ in range(sample)
            ]
    assert seen == expected
    assert result.cases == len(expected)


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _benchmark_catalog():
    """(suite, args) of every check-bounded catalog entry, read as text.

    The entries are literals apart from the B(...) bounds, which are built
    here as EnumerationBounds.
    """

    def value(node):
        if isinstance(node, ast.Call):
            return EnumerationBounds(*(value(arg) for arg in node.args))
        if isinstance(node, ast.Tuple):
            return tuple(value(elt) for elt in node.elts)
        return ast.literal_eval(node)

    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.AnnAssign) and node.target.id == "CATALOG":
            return [value(entry)[:2] for entry in node.value.elts]
    raise AssertionError(f"CATALOG not found in {WORKLOADS}")


def _walked_specht_pairs(cmin, cmax, level, size):
    return sum(
        1
        for kappa in iter_multicharges(cmin, cmax, level)
        for _ in iter_multipartitions(len(kappa), size)
    )


class TestSizePlan:
    @pytest.mark.parametrize(
        "bounds, sample, level",
        [
            (EnumerationBounds(-1, 1, 2), 10_000, 2),
            (EnumerationBounds(-1, 1, 4), 50, 2),
            (EnumerationBounds(0, 1, 4), 7, 1),
            (EnumerationBounds(-2, 2, 1), 100, 2),
            (EnumerationBounds(-1, 0, 0), 3, 1),
        ],
    )
    def test_counts_match_the_suites(self, bounds, sample, level):
        plan = size_plan("all", bounds, sample, level)
        if any(walked == 0 for _, walked in plan.values()):
            # run_suite refuses a suite with no case to walk (rsk and kv at
            # zero segments), so the plan is compared with each suite
            with pytest.raises(PreconditionError, match="would check no case"):
                run_suite("all", bounds, 1, sample, level)
            results = {
                r.name: r
                for r in (
                    checks.suite_combi(bounds, 1, sample),
                    suite_rsk(bounds, 1, sample),
                    checks.suite_kv(bounds, 1, sample),
                    suite_strings(bounds, 1, sample),
                    checks.suite_specht(
                        bounds.support_min, bounds.support_max, level, bounds.max_segments, 1
                    ),
                )
            }
        else:
            results = {r.name: r for r in run_suite("all", bounds, 1, sample, level)}
        assert set(plan) == set(results) - {"tableaux"}
        for name, (_, walked) in plan.items():
            if name == "specht":
                # the suite counts only the restricted pairs it walks through
                assert walked == _walked_specht_pairs(
                    bounds.support_min, bounds.support_max, level, bounds.max_segments
                )
            else:
                assert walked == results[name].cases, name

    def test_counts_match_with_sampled_sizes(self, monkeypatch):
        monkeypatch.setattr(checks, "EXHAUSTIVE_INSTANCES", 10)
        bounds = EnumerationBounds(-1, 1, 3)
        plan = size_plan("rsk", bounds, 12)
        result = suite_rsk(bounds, 1, 12)
        assert (result.exhaustive_through, result.sampled) == (1, 12)
        assert plan["rsk"] == (6 + result.cases, result.cases)

    def test_sampling_reaches_every_multisegment(self, monkeypatch):
        # [0, 1] holds three segments, so sizes 1 and 2 are exhaustive and the
        # sample asks for all 959 larger multisegments, including sixteen
        # copies of one segment, which one in 3**16 sequence draws would give
        monkeypatch.setattr(checks, "EXHAUSTIVE_INSTANCES", 10)
        bounds = EnumerationBounds(0, 1, 16)

        def stalled(signum, frame):
            raise TimeoutError("bounded_instances did not finish near its cap")

        previous = signal.signal(signal.SIGALRM, stalled)
        signal.alarm(10)
        try:
            instances, exhaustive = bounded_instances(bounds, 0, 10**6)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert exhaustive == 2
        assert len(instances) == 968
        assert set(instances) == set(enumerate_multisegments(bounds)) - {Multisegment()}

    def test_sampler_draws_once_per_sampled_multisegment(self, monkeypatch):
        # every multisegment of [0, 1] beyond the exhaustive sizes 1 and 2 is
        # sampled, each by one draw of one rank
        monkeypatch.setattr(checks, "EXHAUSTIVE_INSTANCES", 10)
        # every draw of an int below n, or of a float in [0, 1)
        draws = []
        for name in ("_randbelow", "random"):
            true_draw = getattr(random.Random, name)
            monkeypatch.setattr(
                random.Random,
                name,
                lambda rng, *n, true_draw=true_draw: draws.append(n) or true_draw(rng, *n),
            )
        instances, exhaustive = bounded_instances(EnumerationBounds(0, 1, 16), 0, 959)
        assert len(draws) == 959
        assert len(set(instances)) == len(instances) == 9 + 959

    def test_sampler_ranks_past_the_word_size(self):
        # 20,301 segments in [-100, 100]: the multisegments of 2 to 16 of them
        # number about 4e55, more than len(range(...)) can take
        instances, exhaustive = bounded_instances(EnumerationBounds(-100, 100, 16), 0, 5)
        assert exhaustive == 1
        sampled = instances[20_301:]
        assert len(set(sampled)) == len(sampled) == 5
        assert all(len(m) > 1 for m in sampled)

    @pytest.mark.parametrize("max_segments, cases", [(0, 0), (1, 2)])
    def test_strings_draws_no_more_pairs_than_instances_make(self, max_segments, cases):
        # support {0}: no instance below one segment, one ordered pair at one
        bounds = EnumerationBounds(0, 0, max_segments)
        assert suite_strings(bounds).cases == size_plan("strings", bounds)["strings"][1] == cases

    def test_admits_every_bound_in_use(self):
        # Tier-1 and the acceptance criteria, then the benchmark catalog
        in_use = [
            ("combi", EnumerationBounds(-2, 2, 3), 10_000, 3),
            ("rsk", EnumerationBounds(-3, 3, 6), 10_000, 3),
            ("strings", EnumerationBounds(-3, 3, 6), 10_000, 3),
            ("rsk", EnumerationBounds(-2, 2, 5), 10_000, 3),
            ("specht", EnumerationBounds(-2, 2, 8), 10_000, 3),
            ("all", EnumerationBounds(-2, 2, 3), 10_000, 3),
        ]
        suites = {
            "suite_combi": "combi",
            "suite_rsk": "rsk",
            "suite_kv": "rsk",
            "suite_strings": "strings",
        }
        for suite, args in _benchmark_catalog():
            if suite == "suite_specht":
                cmin, cmax, level, size = args
                in_use.append(("specht", EnumerationBounds(cmin, cmax, size), 10_000, level))
            elif suite in suites:
                in_use.append((suites[suite], args[0], 10_000, 3))
        assert len(in_use) > 20
        for name, bounds, sample, level in in_use:
            for held, walked in size_plan(name, bounds, sample, level).values():
                assert held <= CHECK_MAX_HELD and walked <= CHECK_MAX_CASES, (name, bounds)

    def test_specht_sizes_past_100_are_over_the_cap(self):
        assert checks._specht_pairs(1, 1, 100) > CHECK_MAX_CASES

    @pytest.mark.parametrize(
        "bounds, level",
        [
            (EnumerationBounds(-1, 1, 2), 3),
            (EnumerationBounds(0, 1, 5), 3),
            (EnumerationBounds(-1, 1, 3), 4),
            (EnumerationBounds(0, 0, 0), 9),
        ],
    )
    def test_specht_pairs_match_the_walk(self, bounds, level):
        span = bounds.support_max - bounds.support_min + 1
        assert checks._specht_pairs(span, level, bounds.max_segments) == _walked_specht_pairs(
            bounds.support_min, bounds.support_max, level, bounds.max_segments
        )

    @pytest.mark.parametrize(
        "name, bounds, sample, level, words",
        [
            ("rsk", EnumerationBounds(-2, 2, 17), 10, 3, "segments per instance"),
            ("combi", EnumerationBounds(0, 101, 1), 10, 3, "support reaches 101"),
            ("strings", EnumerationBounds(-101, 0, 1), 10, 3, "support reaches 101"),
            ("combi", EnumerationBounds(-2, 2, 7), 10, 3, "combi would hold"),
            ("strings", EnumerationBounds(-3, 3, 8), 100_000, 3, "strings would hold"),
            ("rsk", EnumerationBounds(-4, 4, 6), 10, 3, "kv would check"),
            ("specht", EnumerationBounds(-2, 2, 16), 10, 3, "specht would check"),
            ("specht", EnumerationBounds(0, 0, 0), 10, CHECK_MAX_CASES + 1, "level cap 2000001"),
            # a suite with nothing to walk would pass without checking
            ("rsk", EnumerationBounds(-2, 2, 0), 10_000, 3, "rsk would check no case"),
            ("strings", EnumerationBounds(0, 0, 0), 0, 3, "strings would check no case"),
            ("strings", EnumerationBounds(0, 0, 0), 10_000, 3, "strings would check no case"),
        ],
    )
    def test_rules_fire_before_any_suite_runs(
        self, monkeypatch, name, bounds, sample, level, words
    ):
        for suite in ("suite_combi", "suite_rsk", "suite_kv", "suite_strings", "suite_specht"):
            monkeypatch.setattr(checks, suite, None)
        with pytest.raises(PreconditionError, match=words):
            run_suite(name, bounds, 0, sample, level)

    def test_level_cap_is_inclusive(self, capsys, monkeypatch):
        argv = ["check", "--suite", "specht", "--min", "0", "--max", "0", "--max-segments", "0",
                "--level", str(CHECK_MAX_LEVEL)]
        assert_cap_is_inclusive(
            capsys, monkeypatch, "checks.CHECK_MAX_LEVEL", argv, CHECK_MAX_LEVEL,
            f"multicharge level cap {CHECK_MAX_LEVEL} is above the cap {CHECK_MAX_LEVEL - 1}",
            never=CHECK_SUITES,
        )

    def test_caps_are_inclusive(self, capsys, monkeypatch):
        # combi at (-1, 1, 2) holds 34 multisegments and walks 22,764 tuples
        argv = ["check", "--suite", "combi", "--min", "-1", "--max", "1", "--max-segments", "2",
                "--sample", "10"]
        assert_cap_is_inclusive(
            capsys, monkeypatch, "checks.CHECK_MAX_HELD", argv, 34,
            "combi would hold 34 multisegments, above the cap 33", never=CHECK_SUITES,
        )
        assert_cap_is_inclusive(
            capsys, monkeypatch, "checks.CHECK_MAX_CASES", argv, 22_764,
            "combi would check 22764 cases, above the cap 22763", never=CHECK_SUITES,
        )

    def test_segment_and_support_caps_are_inclusive(self, capsys, monkeypatch):
        assert_cap_is_inclusive(
            capsys, monkeypatch, "checks.CHECK_MAX_SEGMENTS",
            ["check", "--suite", "rsk", "--min", "0", "--max", "0", "--max-segments", "2"], 2,
            "2 segments per instance, above the cap 1", never=CHECK_SUITES,
        )
        assert_cap_is_inclusive(
            capsys, monkeypatch, "checks.CHECK_MAX_SUPPORT",
            ["check", "--suite", "combi", "--min", "-1", "--max", "1", "--max-segments", "0"], 1,
            "support reaches 1, above the cap 0", never=CHECK_SUITES,
        )


class TestSuiteNames:
    @pytest.mark.parametrize("name", ["kv", "tableaux", "RSK", ""])
    def test_unknown_name_is_a_precondition(self, name):
        # kv and tableaux run under rsk; alone they are no suite of run_suite
        with pytest.raises(PreconditionError, match=f"unknown suite {name!r}"):
            run_suite(name, EnumerationBounds(-1, 1, 2), 0, 10)

    def test_the_cli_offers_the_same_names(self, capsys):
        from segrsk.cli import build_parser

        parser = build_parser()
        for name in checks.SUITES:
            assert parser.parse_args(["check", "--suite", name]).suite == name
        with pytest.raises(SystemExit):
            parser.parse_args(["check", "--suite", "kv"])
        assert f"(choose from {', '.join(map(repr, checks.SUITES))})" in capsys.readouterr().err


class TestIterMultipartitions:
    def test_deep_levels_need_no_recursion(self):
        # one empty multipartition, and the single cell in each component
        assert sum(1 for _ in iter_multipartitions(2000, 1)) == 2001

    def test_lazy(self):
        # the domain has more members than can be listed
        first = next(iter_multipartitions(30, 20))
        assert first == Multipartition(partitions_of(0) * 30)

    def test_order_small(self):
        assert [str(mp) for mp in iter_multipartitions(3, 2)] == [
            "||", "||1", "||2", "||1,1", "|1|", "|1|1", "|2|", "|1,1|",
            "1||", "1||1", "1|1|", "2||", "1,1||",
        ]

    @pytest.mark.parametrize("level, max_total", [(0, 3), (1, 4), (2, 0), (3, 4)])
    def test_order_is_lexicographic_in_the_components(self, level, max_total):
        # each component by size, then in partitions_of order; the walk is
        # the budget-respecting part of the product, in the product's order
        choices = [mu for n in range(max_total + 1) for mu in partitions_of(n)]
        expected = [
            Multipartition(c)
            for c in itertools.product(choices, repeat=level)
            if sum(mu.size() for mu in c) <= max_total
        ]
        assert list(iter_multipartitions(level, max_total)) == expected
