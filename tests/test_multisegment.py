import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from segrsk.errors import ParseError, PreconditionError
from segrsk.lattice import Weight
from segrsk.multisegment import Multisegment, Segment, point_multisegment
from segrsk.oracle import EnumerationBounds, enumerate_multisegments

alpha = Weight.alpha

segments = st.builds(
    lambda b, length: Segment(b, b + length),
    st.integers(-4, 4),
    st.integers(0, 4),
)
multisegments = st.builds(Multisegment, st.lists(segments, max_size=6))


class TestSegment:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Segment(2, 1)

    def test_orders(self):
        assert Segment(1, 2).ll(Segment(2, 3))
        assert not Segment(1, 2).ll(Segment(1, 3))
        # right-lexicographic: ends decide first
        assert Segment(2, 2).rlex_key() < Segment(1, 3).rlex_key()
        assert Segment(1, 3).lex_key() < Segment(2, 2).lex_key()

    @given(segments, segments)
    def test_ll_strict(self, d1, d2):
        assert not (d1.ll(d2) and d2.ll(d1))
        assert not d1.ll(d1)


class TestCanonicalOrder:
    def test_sorted_rlex(self):
        m = Multisegment.of((2, 2), (1, 3), (1, 2))
        assert [s.rlex_key() for s in m] == sorted(s.rlex_key() for s in m)

    @given(multisegments, multisegments)
    def test_sum_is_commutative(self, m1, m2):
        assert m1 + m2 == m2 + m1


class TestWeightMaps:
    def test_wt(self):
        assert Multisegment.of((1, 3)).weight() == alpha(1) + alpha(2) + alpha(3)
        assert Multisegment.empty().weight() == Weight.zero()
        assert Multisegment.of((1, 1), (1, 2)).weight() == 2 * alpha(1) + alpha(2)

    def test_begin_weight(self):
        assert Multisegment.of((1, 3), (2, 2)).begin_weight() == alpha(1) + alpha(2)
        assert Multisegment.of((1, 1), (1, 1)).begin_weight() == 2 * alpha(1)
        assert Multisegment.empty().begin_weight() == Weight.zero()

    @given(multisegments)
    def test_begin_weight_height_counts_segments(self, m):
        assert m.begin_weight().height() == len(m)

    @given(multisegments, multisegments)
    def test_additive(self, m1, m2):
        total = m1 + m2
        assert total.weight() == m1.weight() + m2.weight()
        assert total.begin_weight() == m1.begin_weight() + m2.begin_weight()


class TestDeriveExtend:
    def test_derive(self):
        assert Multisegment.of((1, 3), (2, 2)).derived() == Multisegment.of((2, 3))
        assert Multisegment.of((1, 1)).derived() == Multisegment.empty()

    def test_extend(self):
        assert Multisegment.of((1, 1)).extended() == Multisegment.of((0, 1))
        assert Multisegment.empty().extended() == Multisegment.empty()
        assert Multisegment.of((1, 3), (2, 2)).extended() == Multisegment.of(
            (0, 3), (1, 2)
        )

    @given(multisegments)
    def test_extend_then_derive(self, m):
        assert m.extended().derived() == m

    @given(multisegments)
    def test_derive_then_extend(self, m):
        has_points = any(s.b == s.e for s in m)
        assert (m.derived().extended() == m) == (not has_points)

    @given(multisegments)
    def test_derivative_weight_identity(self, m):
        assert m.derived().weight() + m.begin_weight() == m.weight()


def _domain_and_random_inputs():
    """All of EnumerationBounds(-2, 2, 4), then seeded random inputs up to n = 400."""
    yield from enumerate_multisegments(EnumerationBounds(-2, 2, 4))
    rng = random.Random(5147)
    for n in (25, 100, 400):
        for _ in range(3):
            yield Multisegment(
                Segment(b, b + rng.randint(0, 6))
                for b in (rng.randint(-20, 20) for _ in range(n))
            )


class TestOrderPreservingMaps:
    """derived, extended and shifted_right skip the re-sort; the constructor does it."""

    def test_match_resorted(self):
        for m in _domain_and_random_inputs():
            derived = [s.derived() for s in m]
            assert m.derived() == Multisegment(d for d in derived if d is not None)
            assert m.extended() == Multisegment(s.extended() for s in m)
            assert m.shifted_right() == Multisegment(s.shifted_right() for s in m)

    def test_weight_maps_match_per_index_sums(self):
        for m in _domain_and_random_inputs():
            assert m.weight() == Weight((i, 1) for s in m for i in range(s.b, s.e + 1))
            assert m.begin_weight() == Weight((s.b, 1) for s in m)


class TestDagger:
    def test_examples(self):
        assert Multisegment.of((1, 3)).dagger() == Multisegment.of((-3, -1))
        assert Multisegment.of((0, 0)).dagger() == Multisegment.of((0, 0))

    @given(multisegments)
    def test_involution(self, m):
        assert m.dagger().dagger() == m
        assert m.dagger().weight() == m.weight().dagger()
        assert m.dagger().is_ladder() == m.is_ladder()


class TestShiftRight:
    def test_examples(self):
        assert Multisegment.of((1, 1)).shifted_right() == Multisegment.of((2, 2))
        assert Multisegment.of((0, 2), (1, 1)).shifted_right() == Multisegment.of(
            (1, 3), (2, 2)
        )
        assert Multisegment.of((0, 0)).shifted_right().weight() == alpha(1)


class TestLadder:
    def test_examples(self):
        assert Multisegment.of((1, 2), (2, 3)).is_ladder()
        assert not Multisegment.of((1, 1), (1, 1)).is_ladder()
        assert Multisegment.of((1, 1)).is_ladder()
        assert not Multisegment.empty().is_ladder()


def _fresh_ladder(m):
    segs = m.segments
    return bool(segs) and all(a.ll(b) for a, b in zip(segs, segs[1:]))


class TestCachedHashAndLadder:
    """hash and is_ladder are kept on first use; they equal a fresh computation."""

    def test_match_fresh_computation(self):
        for m in _domain_and_random_inputs():
            for x in (m, m.derived(), m.extended(), m.shifted_right()):
                for _ in range(2):
                    assert hash(x) == hash(x.segments)
                    assert x.is_ladder() == _fresh_ladder(x)

    @given(multisegments, multisegments)
    def test_equal_multisegments_hash_equal(self, m1, m2):
        s = m1 + m2
        t = Multisegment(reversed(s.segments))
        hash(s)
        assert s == t and hash(s) == hash(t)


class TestPointMultisegment:
    def test_examples(self):
        gamma = 2 * alpha(1) + alpha(3)
        assert point_multisegment(gamma) == Multisegment.of((1, 1), (1, 1), (3, 3))
        assert point_multisegment(Weight.zero()) == Multisegment.empty()

    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(0, 3)), max_size=5))
    def test_wt_inverse(self, coeffs):
        gamma = Weight(coeffs)
        assert point_multisegment(gamma).weight() == gamma

    def test_rejects_negative(self):
        with pytest.raises(PreconditionError):
            point_multisegment(-1 * alpha(2))


class TestTextFormat:
    def test_parse(self):
        assert Multisegment.parse("[1,2]+[2,3]") == Multisegment.of((1, 2), (2, 3))
        assert Multisegment.parse("0") == Multisegment.empty()

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            Multisegment.parse("[2,1]")
        with pytest.raises(ParseError):
            Multisegment.parse("[1;2]")
        with pytest.raises(ParseError):
            Multisegment.parse("")

    @given(multisegments)
    def test_round_trip(self, m):
        assert Multisegment.parse(str(m)) == m
        assert Multisegment.from_json(m.to_json()) == m

    @pytest.mark.parametrize(
        "data",
        [[[2, 1]], [[1]], [[1, 2, 3]], [1], [[1.0, 2]], [["1", 2]], [[1, 2], [3, 0]], 5],
    )
    def test_from_json_errors(self, data):
        with pytest.raises(ParseError):
            Multisegment.from_json(data)

    def test_from_json(self):
        assert Multisegment.from_json([]) == Multisegment.empty()
        assert Multisegment.from_json([[2, 3], [1, 1]]) == Multisegment.of((1, 1), (2, 3))


class TestDifference:
    def test_difference(self):
        m = Multisegment.of((1, 1), (1, 1), (2, 3))
        assert m.difference(Multisegment.of((1, 1))) == Multisegment.of((1, 1), (2, 3))
        with pytest.raises(ValueError):
            m.difference(Multisegment.of((5, 5)))
