import copy
import json
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _inputs import domain_and_seeded
from test_references import assert_row
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
        with pytest.raises(ValueError, match=r"^empty segment \[2,1\]$"):
            Segment(2, 1)

    def test_orders(self):
        assert Segment(1, 2).ll(Segment(2, 3))
        assert not Segment(1, 2).ll(Segment(1, 3))
        # right-lexicographic: ends decide first
        assert Multisegment.of((1, 3), (2, 2)).segments == (Segment(2, 2), Segment(1, 3))
        assert Segment(1, 3) < Segment(2, 2)

    @given(segments, segments)
    def test_ll_strict(self, d1, d2):
        assert not (d1.ll(d2) and d2.ll(d1))
        assert not d1.ll(d1)

    def test_pickle_and_copy_round_trip(self):
        s = Segment(-3, 4)
        for t in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
            assert t == s and type(t) is Segment and (t.b, t.e) == (-3, 4)

    def test_is_its_pair(self):
        s = Segment(1, 3)
        assert s == (1, 3) and hash(s) == hash((1, 3))
        b, e = s
        assert (b, e) == (s.b, s.e) == (1, 3)
        assert repr(s) == "Segment(b=1, e=3)"
        assert str(s) == "[1,3]"

    @given(segments, segments)
    def test_equal_segments_hash_equal(self, d1, d2):
        twin = Segment(d1.b, d1.e)
        assert twin == d1 and hash(twin) == hash(d1)
        assert (d1 == d2) == ((d1.b, d1.e) == (d2.b, d2.e))

    @given(st.lists(segments, max_size=8))
    def test_sorted_is_lex_order(self, segs):
        assert sorted(segs) == sorted(segs, key=lambda s: (s.b, s.e))

    def test_hash_eq_and_order_are_tuple_slots(self):
        # a Python-level dunder here would put every memo key, Counter and
        # Multisegment hash back on the interpreter
        for name in ("__hash__", "__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"):
            assert getattr(Segment, name) is getattr(tuple, name), name


class TestCanonicalOrder:
    def test_sorted_rlex(self):
        m = Multisegment.of((2, 2), (1, 3), (1, 2))
        assert [(s.e, s.b) for s in m] == sorted((s.e, s.b) for s in m)

    def test_matches_explicit_end_begin_sort(self):
        for m in enumerate_multisegments(EnumerationBounds(-2, 2, 4)):
            shuffled = list(reversed(m.segments))
            expected = sorted(shuffled, key=lambda s: (s.e, s.b))
            assert list(Multisegment(shuffled).segments) == expected

    @given(multisegments, multisegments)
    def test_sum_is_commutative(self, m1, m2):
        assert m1 + m2 == m2 + m1


class TestWeightMaps:
    def test_wt(self):
        assert Multisegment.of((1, 3)).weight() == alpha(1) + alpha(2) + alpha(3)
        assert Multisegment().weight() == Weight()
        assert Multisegment.of((1, 1), (1, 2)).weight() == 2 * alpha(1) + alpha(2)

    def test_begin_weight(self):
        assert Multisegment.of((1, 3), (2, 2)).begin_weight() == alpha(1) + alpha(2)
        assert Multisegment.of((1, 1), (1, 1)).begin_weight() == 2 * alpha(1)
        assert Multisegment().begin_weight() == Weight()

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
        assert Multisegment.of((1, 1)).derived() == Multisegment()

    def test_extend(self):
        assert Multisegment.of((1, 1)).extended() == Multisegment.of((0, 1))
        assert Multisegment().extended() == Multisegment()
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


class TestOrderPreservingMaps:
    """derived, extended and shifted_right equal the constructor on the mapped segments."""

    def test_match_resorted(self):
        assert_row("order_maps")

    def test_weight_maps_match_per_index_sums(self):
        assert_row("weight_maps")


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
        assert not Multisegment().is_ladder()


def _fresh_ladder(m):
    segs = m.segments
    return bool(segs) and all(a.ll(b) for a, b in zip(segs, segs[1:]))


class TestCachedHashAndLadder:
    """hash and is_ladder are kept on first use; they equal a fresh computation."""

    def test_match_fresh_computation(self):
        inputs = domain_and_seeded(5147, counts=((25, 3), (100, 3), (400, 3)))
        for m in [Multisegment(), *inputs]:
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
        assert point_multisegment(Weight()) == Multisegment()

    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(0, 3)), max_size=5))
    def test_wt_inverse(self, coeffs):
        gamma = Weight(coeffs)
        assert point_multisegment(gamma).weight() == gamma

    def test_rejects_negative(self):
        with pytest.raises(PreconditionError):
            point_multisegment(-1 * alpha(2))


# endpoints far beyond the small strategies above, for the text and JSON forms
wide_segments = st.builds(
    lambda b, length: Segment(b, b + length),
    st.integers(-(10**12), 10**12),
    st.integers(0, 10**6),
)
wide_multisegments = st.builds(Multisegment, st.lists(wide_segments, max_size=8))

_not_an_int = (
    st.booleans()
    | st.floats()
    | st.text(max_size=3)
    | st.none()
    | st.lists(st.integers(), max_size=2)
)
_not_a_list = (
    st.integers()
    | st.booleans()
    | st.floats()
    | st.text(max_size=4)
    | st.none()
    | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
)
_bad_entries = st.one_of(
    st.tuples(_not_an_int, st.integers()).map(list),
    st.tuples(st.integers(), _not_an_int).map(list),
    st.lists(st.integers(), min_size=1, max_size=1),
    st.lists(st.integers(), min_size=3, max_size=4),
    # b > e
    st.tuples(st.integers(1, 10**9), st.integers(-(10**9), 0)).map(list),
    _not_a_list,
)


class TestTextFormat:
    def test_parse(self):
        assert Multisegment.parse("[1,2]+[2,3]") == Multisegment.of((1, 2), (2, 3))
        assert Multisegment.parse("0") == Multisegment()

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            Multisegment.parse("[2,1]")
        with pytest.raises(ParseError):
            Multisegment.parse("[1;2]")
        with pytest.raises(ParseError):
            Multisegment.parse("")

    @given(multisegments | wide_multisegments)
    def test_round_trip(self, m):
        assert Multisegment.parse(str(m)) == m
        assert Multisegment.from_json(json.loads(json.dumps(m.to_json()))) == m

    @given(
        st.lists(wide_segments.map(list), max_size=3),
        _bad_entries,
        st.lists(wide_segments.map(list), max_size=3),
    )
    def test_malformed_entry_raises_parse_error(self, before, bad, after):
        with pytest.raises(ParseError):
            Multisegment.from_json(before + [bad] + after)

    @given(_not_a_list)
    def test_non_list_raises_parse_error(self, data):
        with pytest.raises(ParseError):
            Multisegment.from_json(data)

    @pytest.mark.parametrize(
        "data",
        [[[2, 1]], [[1]], [[1, 2, 3]], [1], [[1.0, 2]], [["1", 2]], [[1, 2], [3, 0]], 5],
    )
    def test_from_json_errors(self, data):
        with pytest.raises(ParseError):
            Multisegment.from_json(data)

    @pytest.mark.parametrize(
        "m, rep",
        [
            (Multisegment(), "Multisegment.parse('0')"),
            (Multisegment.of((2, 3), (1, 1)), "Multisegment.parse('[1,1]+[2,3]')"),
        ],
    )
    def test_repr(self, m, rep):
        assert repr(m) == rep
        assert eval(rep) == m

    def test_from_json(self):
        assert Multisegment.from_json([]) == Multisegment()
        assert Multisegment.from_json([[2, 3], [1, 1]]) == Multisegment.of((1, 1), (2, 3))


class TestDifference:
    def test_difference(self):
        m = Multisegment.of((1, 1), (1, 1), (2, 3))
        assert m.difference(Multisegment.of((1, 1))) == Multisegment.of((1, 1), (2, 3))
        with pytest.raises(ValueError):
            m.difference(Multisegment.of((5, 5)))
