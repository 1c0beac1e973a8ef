import ast
import gc
from pathlib import Path

import pytest

from _inputs import domain_and_seeded
from test_references import assert_row
from segrsk import rsk
from segrsk.errors import InvariantViolation, PreconditionError, ShapeViolation
from segrsk.multisegment import Multisegment
from segrsk.oracle import EnumerationBounds, enumerate_multisegments
from segrsk.rsk import (
    LadderSequence,
    _keeps_endpoints,
    _pairs,
    bitableau_of,
    depth_function,
    is_permissible_pair,
    knuth_viennot,
    peel_trace,
    rsk_transform,
    width,
)

M = Multisegment.of


class TestDepth:
    def test_chain(self):
        m = M((1, 2), (2, 3))
        # canonical order is [1,2], [2,3]; the lower segment starts the chain
        assert depth_function(m) == (1, 0)

    def test_singleton(self):
        assert depth_function(M((5, 5))) == (0,)

    def test_equal_segments_incomparable(self):
        assert depth_function(M((1, 1), (1, 1))) == (0, 0)

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            depth_function(Multisegment())


class TestKnuthViennot:
    def test_ladder_peels_whole(self):
        m = M((1, 2), (2, 3))
        assert knuth_viennot(m) == (m, Multisegment())

    def test_recombination(self):
        assert knuth_viennot(M((1, 1), (1, 2))) == (M((1, 2)), M((1, 1)))

    def test_equal_segments(self):
        assert knuth_viennot(M((1, 1), (1, 1))) == (M((1, 1)), M((1, 1)))

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            knuth_viennot(Multisegment())


class TestRskTransform:
    def test_examples(self):
        assert list(rsk_transform(M((1, 2), (2, 3)))) == [M((1, 2), (2, 3))]
        assert list(rsk_transform(M((1, 1), (1, 2)))) == [M((1, 2)), M((1, 1))]
        assert list(rsk_transform(M((1, 1), (1, 1)))) == [M((1, 1)), M((1, 1))]

    def test_empty_convention(self):
        assert len(rsk_transform(Multisegment())) == 0

    def test_width(self):
        assert width(M((1, 1), (1, 1))) == 2
        assert width(M((0, 1), (1, 2), (2, 3))) == 1
        assert width(M((1, 1), (1, 2))) == 2
        assert width(Multisegment()) == 0


class TestPeelTrace:
    def test_examples(self):
        assert peel_trace(Multisegment()) == ()
        assert peel_trace(M((1, 1), (1, 2))) == (
            (M((1, 2)), M((1, 1))),
            (M((1, 1)), Multisegment()),
        )

    def test_matches_iterated_peels_on_bounded_domain(self):
        assert_row("peel_trace", "domain")

    @pytest.mark.parametrize("n", [25, 100, 400])
    def test_matches_iterated_peels_on_random_inputs(self, n):
        assert_row("peel_trace", n)

    def test_matches_iterated_peels_on_the_worst_families(self):
        assert_row("peel_trace", "families")

def _weights_add_up(m, ladder, rest):
    """The weight identity the begins/ends postcondition replaced."""
    return ladder.weight() + rest.weight() == m.weight()


class TestPeelInternals:
    def test_endpoint_postcondition_implies_weight_identity(self):
        for m in domain_and_seeded(4031):
            ladder, rest = knuth_viennot(m)
            assert _keeps_endpoints(_pairs(m), ladder, rest), str(m)
            assert _weights_add_up(m, ladder, rest), str(m)
            # a corrupted rest breaks the weight identity, and then the
            # endpoint check must reject it too
            for bad in (rest.derived(), rest.shifted_right(), rest.extended()):
                if bad != rest:
                    assert not _weights_add_up(m, ladder, bad), str(m)
                    assert not _keeps_endpoints(_pairs(m), ladder, bad), str(m)

    def test_endpoint_postcondition_is_stronger(self):
        # same weight a(1) + a(2), different begins and ends
        m = M((1, 1), (2, 2))
        assert _weights_add_up(m, M((1, 2)), Multisegment())
        assert not _keeps_endpoints(_pairs(m), M((1, 2)), Multisegment())


class TestLadderSequence:
    def test_rejects_non_ladder_entry(self):
        with pytest.raises(ShapeViolation):
            LadderSequence((M((1, 1), (1, 1)),))

    def test_from_trace_rejects_growing_sizes(self):
        # hand-built traces: only the ladders of each step are read
        rest = Multisegment()
        with pytest.raises(ShapeViolation):
            LadderSequence.from_trace(((M((1, 1)), rest), (M((0, 1), (1, 2)), rest)))
        with pytest.raises(ShapeViolation):
            LadderSequence.from_trace(((Multisegment(), rest),))

    def test_indexing(self):
        transform = rsk_transform(M((1, 1), (1, 2), (2, 3)))
        assert len(transform) == 2
        assert transform[0] == M((1, 2), (2, 3))
        assert transform[-1] == M((1, 1))

    def test_gaps_allowed_in_plain_sequence(self):
        seq = LadderSequence((Multisegment(), M((1, 1))))
        assert len(seq) == 2


class TestPermissiblePair:
    def test_examples(self):
        assert is_permissible_pair(M((1, 2)), M((1, 1)))
        assert not is_permissible_pair(M((5, 5)), M((1, 1)))
        assert is_permissible_pair(M((1, 2)), Multisegment())

    def test_non_ladder_rejected(self):
        with pytest.raises(PreconditionError):
            is_permissible_pair(M((1, 1), (1, 1)), M((1, 1)))

    def test_frees_its_memo_at_return(self):
        # the memoized search must not leave a reference cycle for the
        # cyclic collector; with gc off, such a cycle would still be there
        ladder, rest = knuth_viennot(M((0, 1), (1, 2), (1, 1), (2, 3)))
        gc.collect()
        gc.disable()
        try:
            assert is_permissible_pair(ladder, rest)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestBitableau:
    def test_examples(self):
        pair = bitableau_of(M((1, 1), (1, 2)))
        assert pair.p.rows == ((1,), (1,))
        assert pair.q.rows == ((3,), (2,))

        pair = bitableau_of(M((1, 1), (1, 1)))
        assert pair.p.rows == ((1,), (1,))
        assert pair.q.rows == ((2,), (2,))

        pair = bitableau_of(M((1, 2), (2, 3)))
        assert pair.p.rows == ((2, 1),)
        assert pair.q.rows == ((4, 3),)

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            bitableau_of(Multisegment())
        with pytest.raises(PreconditionError):
            LadderSequence().bitableau()

    def test_round_trip_assertion_fires(self, monkeypatch):
        import segrsk.rsk as rsk_mod

        true_ladders_of = rsk_mod.ladders_of
        # drop the last row's ladder
        monkeypatch.setattr(rsk_mod, "ladders_of", lambda pq: true_ladders_of(pq)[:-1])
        with pytest.raises(InvariantViolation, match="does not reproduce"):
            rsk_transform(M((1, 1), (1, 2))).bitableau()

    def test_method_matches_function(self):
        for m in enumerate_multisegments(EnumerationBounds(-1, 1, 3)):
            if m:
                assert rsk_transform(m).bitableau() == bitableau_of(m), str(m)

    def test_injective_on_small_domain(self):
        # operationalizes the uniqueness claim for the permissible pair
        seen = {}
        for m in enumerate_multisegments(EnumerationBounds(-1, 1, 3)):
            if not m:
                continue
            key = (bitableau_of(m).p.rows, bitableau_of(m).q.rows)
            assert key not in seen, f"{seen[key]} and {m} share a bitableau"
            seen[key] = m


class TestMetamorphic:
    """Relations between the RSKs of two related inputs, checked on the bounded
    domain and on seeded inputs far above the brute-force guards.

    Shifting every segment one step right shifts every ladder, since the ll
    order and hence the whole peel only see differences of endpoints.
    Dagger maps the point (-b, -e) of row insertion to (e, b): a transpose,
    which swaps the two tableaux, followed by a half turn, which evacuates
    both.  Neither changes the shape, so the ladder sizes agree; the
    ladders themselves need not map to each other, so no entrywise
    identity is asserted for dagger.
    """

    def test_shift_commutes_with_rsk(self):
        for m in domain_and_seeded(4031):
            shifted = [lad.shifted_right() for lad in rsk_transform(m)]
            assert list(rsk_transform(m.shifted_right())) == shifted, str(m)

    def test_dagger_keeps_shape(self):
        for m in domain_and_seeded(4031):
            shape = [len(lad) for lad in rsk_transform(m)]
            assert [len(lad) for lad in rsk_transform(m.dagger())] == shape, str(m)


def _endpoint_reads(source: str) -> list[str]:
    """Each use of a .b or .e attribute in source, as an attribute or through
    getattr with a literal name, as the text of the expression."""
    reads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("b", "e"):
            reads.append(ast.unparse(node))
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "getattr"
            and any(isinstance(a, ast.Constant) and a.value in ("b", "e") for a in node.args)
        ):
            reads.append(ast.unparse(node))
    return reads


class TestPeelReadsIntPairs:
    """The peel's loops read the exact int pairs rsk._pairs builds, never the
    Segment.b and Segment.e properties, which cost about 3x an index."""

    def test_rsk_reads_no_endpoint_attribute(self):
        assert _endpoint_reads(Path(rsk.__file__).read_text()) == []

    @pytest.mark.parametrize(
        "source",
        [
            "x.e",
            "s.b",
            "(s.b, s.e)",
            "f(x).e",
            "[y for y in ys if y.b < b]",
            "def f(x):\n    return x.e",
            "getattr(x, 'e')",
        ],
    )
    def test_every_read_form_is_seen(self, source):
        assert _endpoint_reads(source)

    @pytest.mark.parametrize("source", ["x.end", "x.begin_weight()", "b, e = x", "x[1]", "e.b_"])
    def test_other_names_pass(self, source):
        assert _endpoint_reads(source) == []
