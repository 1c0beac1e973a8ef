import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from segrsk import oracle
from segrsk.checks import partitions_of
from segrsk.errors import InvariantViolation, ParseError, PreconditionError, ShapeViolation
from segrsk.lattice import Weight
from segrsk.multisegment import Multisegment
from segrsk.specht import content
from segrsk.tableaux import (
    BitableauPair,
    InvertedSSYT,
    Partition,
    a_invariant,
    c_count,
    gamma_descriptor,
    ladders_of,
    residue_sequence,
    residue_weight,
    standard_tableaux,
)

M = Multisegment.of

partitions = st.integers(0, 7).flatmap(
    lambda n: st.sampled_from(partitions_of(n))
)


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))
        with pytest.raises(ParseError):
            Partition.parse("2,x")

    def test_conjugate(self):
        assert Partition.of(2, 1).conjugate() == Partition.of(2, 1)
        assert Partition.of(3).conjugate() == Partition.of(1, 1, 1)
        assert Partition.of(4, 2).conjugate() == Partition.of(2, 2, 1, 1)

    @given(partitions)
    def test_conjugate_involution(self, mu):
        assert mu.conjugate().conjugate() == mu
        assert mu.conjugate().size() == mu.size()

    def test_cut(self):
        assert Partition.of(2, 1).cut() == Partition.of(1)
        assert Partition.of(1, 1).cut() == Partition()


class TestAInvariant:
    def test_examples(self):
        assert a_invariant(Partition.of(1, 1, 1)) == 6
        assert a_invariant(Partition.of(7)) == 0
        assert a_invariant(Partition.of(2, 1)) == 2

    @given(partitions)
    def test_matches_cell_count(self, mu):
        # independent oracle: twice the number of same-column cell pairs
        by_cells = sum(
            2 * (mu.conjugate().part(j) - i) for i, j in mu.cells()
        )
        assert a_invariant(mu) == by_cells
        assert a_invariant(mu) % 2 == 0


class TestInvertedSSYT:
    def test_row_must_descend(self):
        with pytest.raises(ShapeViolation):
            InvertedSSYT.of((1, 2))
        with pytest.raises(ShapeViolation):
            InvertedSSYT.of((2, 2))

    def test_column_must_weakly_descend(self):
        with pytest.raises(ShapeViolation):
            InvertedSSYT.of((1,), (2,))
        InvertedSSYT.of((2,), (2,))

    def test_shape_must_be_partition(self):
        with pytest.raises(ShapeViolation):
            InvertedSSYT.of((2,), (3, 1))

    def test_increment(self):
        assert InvertedSSYT.of((2, 1)).increment().rows == ((3, 2),)
        assert InvertedSSYT().increment().rows == ()
        assert InvertedSSYT.of((1,), (1,)).increment().rows == ((2,), (2,))


class TestPairChecks:
    def test_examples(self):
        pair = BitableauPair(InvertedSSYT.of((1,)), InvertedSSYT.of((3,)))
        assert (pair.is_admissible(), pair.is_permissible()) == (True, True)
        pair = BitableauPair(InvertedSSYT.of((1,)), InvertedSSYT.of((1,)))
        assert (pair.is_admissible(), pair.is_permissible()) == (True, False)
        pair = BitableauPair(InvertedSSYT.of((2,)), InvertedSSYT.of((1,)))
        assert (pair.is_admissible(), pair.is_permissible()) == (False, False)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeViolation):
            BitableauPair(InvertedSSYT.of((1,)), InvertedSSYT.of((3, 1)))

    def test_shape_check_on_all_small_shape_pairs(self):
        # entry 10 - column fills any shape as an inverted SSYT; the pair
        # must be refused exactly when the two shapes differ
        shapes = [mu for n in range(5) for mu in partitions_of(n)]
        for lam, mu in itertools.product(shapes, repeat=2):
            p, q = (
                InvertedSSYT(tuple(tuple(10 - j for j in range(part)) for part in nu.parts))
                for nu in (lam, mu)
            )
            if p.shape() == q.shape():
                assert BitableauPair(p, q).p.shape() == lam
            else:
                with pytest.raises(ShapeViolation, match="shape mismatch"):
                    BitableauPair(p, q)


class TestLaddersOf:
    def test_examples(self):
        pair = BitableauPair(InvertedSSYT.of((2, 1)), InvertedSSYT.of((4, 3)))
        assert ladders_of(pair) == (M((1, 2), (2, 3)),)

        pair = BitableauPair(InvertedSSYT.of((1,)), InvertedSSYT.of((1,)))
        assert ladders_of(pair) == (Multisegment(),)

        pair = BitableauPair(
            InvertedSSYT.of((1,), (1,)), InvertedSSYT.of((3,), (2,))
        )
        assert ladders_of(pair) == (M((1, 2)), M((1, 1)))

    def test_requires_admissible(self):
        pair = BitableauPair(InvertedSSYT.of((2,)), InvertedSSYT.of((1,)))
        with pytest.raises(PreconditionError):
            ladders_of(pair)


class TestCCount:
    def test_examples(self):
        pair = BitableauPair(
            InvertedSSYT.of((1,), (1,)), InvertedSSYT.of((3,), (2,))
        )
        assert c_count(pair) == 0
        # the decode-consistent orientation: P entries against lower Q rows
        pair = BitableauPair(
            InvertedSSYT.of((2,), (1,)), InvertedSSYT.of((3,), (2,))
        )
        assert c_count(pair) == 1
        single = BitableauPair(InvertedSSYT.of((2, 1)), InvertedSSYT.of((4, 3)))
        assert c_count(single) == 0

    def test_multiplicity_counts_pairs(self):
        pair = BitableauPair(
            InvertedSSYT.of((3,), (2,), (2,)),
            InvertedSSYT.of((4,), (3,), (3,)),
        )
        # P entry 3 in row 1 matches Q entries 3 in rows 2 and 3
        assert c_count(pair) == 2


class TestGammaDescriptor:
    def test_plain(self):
        desc = gamma_descriptor(M((1, 1), (1, 1)))
        assert desc.ladders == (M((1, 1)), M((1, 1)))
        assert desc.shift == 2

    def test_derived_records_gaps(self):
        desc = gamma_descriptor(M((1, 1), (1, 1)), derived=True)
        assert desc.ladders == (Multisegment(), Multisegment())
        assert desc.shift == 1

    def test_singleton(self):
        desc = gamma_descriptor(M((1, 1)))
        assert desc.ladders == (M((1, 1)),)
        assert desc.shift == 0

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            gamma_descriptor(Multisegment())

    def test_derived_pair_admissible_by_asserted_permissibility(self, monkeypatch):
        # the derived pair is admissible because bitableau_of asserts the
        # source pair permissible; that assertion is what fires
        monkeypatch.setattr(BitableauPair, "is_permissible", lambda self: False)
        with pytest.raises(InvariantViolation, match="not permissible"):
            gamma_descriptor(M((1, 1), (1, 2)), derived=True)


class TestStandardTableaux:
    def test_counts(self):
        assert len(standard_tableaux(Partition.of(2, 1))) == 2
        assert len(standard_tableaux(Partition.of(5))) == 1
        assert len(standard_tableaux(Partition.of(2, 2))) == 2

    def test_deterministic_order(self):
        fillings = standard_tableaux(Partition.of(2, 1))
        assert fillings == (((1, 2), (3,)), ((1, 3), (2,)))

    @pytest.mark.parametrize("shape", [(1200,), (1,) * 1200, (600, 1)])
    def test_deep_shapes_need_no_recursion(self, shape):
        fillings = standard_tableaux(Partition(shape))
        assert len(fillings) == oracle.hook_length_count(Partition(shape))
        assert sorted(v for row in fillings[0] for v in row) == list(range(1, sum(shape) + 1))

    @given(partitions)
    def test_fillings_are_standard(self, mu):
        for filling in standard_tableaux(mu):
            for row in filling:
                assert list(row) == sorted(row)
            for i in range(1, len(filling)):
                for j in range(len(filling[i])):
                    assert filling[i - 1][j] < filling[i][j]


class TestResidues:
    def test_examples(self):
        assert residue_sequence(0, ((1,),)) == (0,)
        column_first = ((1, 3), (2,))
        assert residue_sequence(0, column_first) == (0, -1, 1)

    @given(partitions, st.integers(-2, 2))
    def test_residue_weight_is_content(self, mu, k):
        for filling in standard_tableaux(mu):
            assert residue_weight(k, filling) == content(k, mu)

    def test_residue_weight_empty(self):
        assert residue_weight(0, ()) == Weight()
