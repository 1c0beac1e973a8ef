import gc
import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from segrsk.errors import PreconditionError, SizeGuardExceeded
from segrsk.multisegment import Multisegment
from segrsk.oracle import (
    EnumerationBounds,
    brute_permissible,
    dilworth_width,
    enumerate_multisegments,
    hook_length_count,
    _nested_enumerations,
    kv_choice_independence,
)
from segrsk.rsk import _depth_classes, _pairs
from segrsk.tableaux import Partition

M = Multisegment.of


class TestEnumeration:
    def test_counts(self):
        assert len(list(enumerate_multisegments(EnumerationBounds(-1, 1, 1)))) == 7
        assert len(list(enumerate_multisegments(EnumerationBounds(0, 0, 2)))) == 3
        assert list(enumerate_multisegments(EnumerationBounds(0, 3, 0))) == [
            Multisegment()
        ]

    def test_count_formula_matches(self):
        for bounds in (
            EnumerationBounds(-1, 1, 3),
            EnumerationBounds(0, 0, 4),
            EnumerationBounds(-2, 1, 0),
            EnumerationBounds(0, 3, 2),
        ):
            assert bounds.count() == len(list(enumerate_multisegments(bounds)))

    def test_count_builds_no_pool(self, monkeypatch):
        # the pool of 2,000,001 points holds about 2e12 segments
        monkeypatch.setattr(EnumerationBounds, "segments", None)
        width = 2 * 10**6 + 1
        pool = width * (width + 1) // 2
        assert EnumerationBounds(-(10**6), 10**6, 3).count() == math.comb(pool + 3, 3)

    def test_no_duplicates(self):
        seen = list(enumerate_multisegments(EnumerationBounds(-1, 1, 2)))
        assert len(seen) == len(set(seen))

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            EnumerationBounds(2, 1, 3)
        with pytest.raises(ValueError):
            EnumerationBounds(0, 1, -1)


class TestDilworth:
    def test_examples(self):
        assert dilworth_width(M((1, 1), (1, 1))) == 2
        assert dilworth_width(M((1, 2), (2, 3))) == 1
        assert dilworth_width(M((1, 1), (1, 2))) == 2
        assert dilworth_width(Multisegment()) == 0
        # equal ends, equal begins, a chain, and a repeated segment
        assert dilworth_width(M((0, 2), (1, 2))) == 2
        assert dilworth_width(M((1, 1), (1, 3))) == 2
        assert dilworth_width(M((0, 0), (1, 1), (2, 2))) == 1
        assert dilworth_width(M((0, 0), (0, 0), (1, 1))) == 2

    def test_antichain_of_nested_segments(self):
        # pairwise incomparable under the strict double inequality
        assert dilworth_width(M((0, 3), (1, 2), (2, 2))) == 3

    def test_frees_its_matching_at_return(self):
        # the width must not leave a reference cycle for the cyclic
        # collector; with gc off, such a cycle would remain
        m = M((0, 1), (1, 2), (1, 1), (2, 3), (0, 0))
        gc.collect()
        gc.disable()
        try:
            assert dilworth_width(m) == 2
            assert gc.collect() == 0
        finally:
            gc.enable()


def _recursive_dilworth_width(m: Multisegment) -> int:
    """Minimum chain cover by a recursive augmenting-path matching on ll-pairs."""
    segs = m.segments
    n = len(segs)
    adj = [[j for j in range(n) if segs[i].ll(segs[j])] for i in range(n)]
    match_right = [None] * n

    def augment(i, seen):
        for j in adj[i]:
            if not seen[j]:
                seen[j] = True
                if match_right[j] is None or augment(match_right[j], seen):
                    match_right[j] = i
                    return True
        return False

    return n - sum(1 for i in range(n) if augment(i, [False] * n))


class TestDilworthAgainstRecursion:
    def test_bounded_domain(self):
        for m in enumerate_multisegments(EnumerationBounds(-2, 2, 4)):
            assert dilworth_width(m) == _recursive_dilworth_width(m), str(m)

    @pytest.mark.parametrize("n", [25, 100, 400])
    def test_seeded_large_inputs(self, n):
        rng = random.Random(n)
        for _ in range(3):
            begins = [rng.randint(-20, 20) for _ in range(n)]
            m = Multisegment.of(*((b, b + rng.randint(0, 6)) for b in begins))
            assert dilworth_width(m) == _recursive_dilworth_width(m)


def _largest_antichain(m: Multisegment) -> int:
    """The most occurrences that are pairwise ll-incomparable, over all subsets."""
    segs = m.segments
    for size in range(len(segs), 0, -1):
        for subset in itertools.combinations(segs, size):
            if not any(x.ll(y) or y.ll(x) for x, y in itertools.combinations(subset, 2)):
                return size
    return 0


class TestDilworthIsTheLargestAntichain:
    def test_bounded_domain(self):
        for m in enumerate_multisegments(EnumerationBounds(-1, 1, 5)):
            assert dilworth_width(m) == _largest_antichain(m), str(m)

    @pytest.mark.parametrize("n", range(6, 11))
    def test_seeded_inputs(self, n):
        rng = random.Random(n)
        for _ in range(5):
            m = Multisegment.of(
                *((b, b + rng.randint(0, 3)) for b in (rng.randint(-3, 3) for _ in range(n)))
            )
            assert dilworth_width(m) == _largest_antichain(m), str(m)


class TestBrutePermissible:
    def test_examples(self):
        assert brute_permissible(M((1, 2)), M((1, 1)))
        assert not brute_permissible(M((5, 5)), M((1, 1)))
        assert brute_permissible(M((1, 2)), Multisegment())

    def test_guards(self):
        with pytest.raises(PreconditionError):
            brute_permissible(M((1, 1), (1, 1)), Multisegment())
        big = Multisegment([*M((0, 0)).segments] * 9)
        with pytest.raises(SizeGuardExceeded):
            brute_permissible(M((1, 2)), big)


class TestHookLengths:
    def test_examples(self):
        assert hook_length_count(Partition.of(2, 1)) == 2
        assert hook_length_count(Partition.of(6)) == 1
        assert hook_length_count(Partition.of(2, 2)) == 2
        assert hook_length_count(Partition()) == 1

    def test_staircase(self):
        assert hook_length_count(Partition.of(3, 2, 1)) == 16


class TestKvChoiceIndependence:
    def test_examples(self):
        assert kv_choice_independence(M((1, 1), (1, 1)))
        assert kv_choice_independence(M((0, 3), (1, 2)))
        assert kv_choice_independence(M((0, 0), (0, 0), (0, 0)))

    def test_guard(self):
        big = Multisegment([*M((0, 0)).segments] * 7)
        with pytest.raises(SizeGuardExceeded):
            kv_choice_independence(big)

    def test_exhaustive_small(self):
        for m in enumerate_multisegments(EnumerationBounds(-1, 1, 4)):
            if m:
                assert kv_choice_independence(m), str(m)


def _all_nested_enumerations(pairs, idxs):
    """The class filter as an index-arithmetic all() over every permutation."""
    return [
        perm
        for perm in itertools.permutations(idxs)
        if all(
            pairs[perm[r]][0] <= pairs[perm[r + 1]][0]
            and pairs[perm[r]][1] >= pairs[perm[r + 1]][1]
            for r in range(len(perm) - 1)
        )
    ]


class TestNestedEnumerations:
    def _assert_matches(self, m):
        pairs = _pairs(m)
        for idxs in _depth_classes(pairs).values():
            assert _nested_enumerations(pairs, idxs) == _all_nested_enumerations(
                pairs, idxs
            ), str(m)

    def test_matches_all_predicate_on_bounded_domain(self):
        for m in enumerate_multisegments(EnumerationBounds(-2, 2, 4)):
            if m:
                self._assert_matches(m)

    @given(
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(0, 4)), min_size=1, max_size=6
        )
    )
    def test_matches_all_predicate_on_random_inputs(self, spans):
        self._assert_matches(M(*((b, b + n) for b, n in spans)))

    @given(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=5
        )
    )
    def test_matches_all_predicate_on_any_index_set(self, pairs):
        # not only depth classes: any pairs, any order of their indices
        idxs = list(range(len(pairs)))[::-1]
        assert _nested_enumerations(pairs, idxs) == _all_nested_enumerations(pairs, idxs)
