import pytest
from hypothesis import given
from hypothesis import strategies as st

from _inputs import summed_ladders
from segrsk.checks import iter_multicharges, iter_multipartitions, partitions_of
from segrsk.errors import InvariantViolation, ParseError, PreconditionError
from segrsk.lattice import Weight
from segrsk.multisegment import Multisegment
from segrsk.rsk import rsk_transform
from segrsk.specht import (
    Multicharge,
    Multipartition,
    column_removal_check,
    content,
    content_multi,
    is_proper,
    is_restricted,
    ladder_of_partition,
    multiseg_of,
    pad,
    proper_rsk_identity,
    specht_rsk_verify,
)
from segrsk.tableaux import Partition

M = Multisegment.of
alpha = Weight.alpha

# the worked multicharge examples: proper restricted vs merely restricted
KAPPA = Multicharge.of(2, 1, -1)
MU_PROPER = Multipartition.parse("4,2,2,2,1|3,3,2,2|3,2")
NU_IMPROPER = Multipartition.parse("4,3,2|3,3,2|3,1")


class TestMulticharge:
    def test_validation(self):
        with pytest.raises(ValueError):
            Multicharge.of(1, 2)
        with pytest.raises(ParseError):
            Multicharge.parse("1,2")
        with pytest.raises(ValueError):
            Multicharge(())

    def test_dagger(self):
        assert KAPPA.dagger() == Multicharge.of(1, -1, -2)
        assert KAPPA.dagger().dagger() == KAPPA


class TestContent:
    def test_examples(self):
        assert content(0, Partition.of(2, 1)) == alpha(-1) + alpha(0) + alpha(1)
        assert content(5, Partition.of(1)) == alpha(5)
        assert content(0, Partition()) == Weight()

    def test_multi(self):
        mp = Multipartition.parse("1|1")
        assert content_multi(Multicharge.of(1, 0), mp) == alpha(1) + alpha(0)
        with pytest.raises(PreconditionError):
            content_multi(Multicharge.of(1), mp)

    def test_height_is_size(self):
        assert content_multi(KAPPA, MU_PROPER).height() == MU_PROPER.size()

    def test_dagger_negates_content(self):
        # a cell (i, j) at charge k has content k + j - i; conjugating swaps
        # i and j, so the daggered pair carries the negated contents
        pairs = 0
        for kappa in iter_multicharges(-2, 2, 3):
            for mp in iter_multipartitions(len(kappa), 5):
                pairs += 1
                assert (
                    content_multi(kappa.dagger(), mp.dagger())
                    == content_multi(kappa, mp).dagger()
                ), (kappa, mp)
        assert pairs == 7_995


class TestRestrictedProper:
    def test_worked_examples(self):
        assert is_restricted(KAPPA, MU_PROPER)
        assert is_proper(KAPPA, MU_PROPER)
        assert is_restricted(KAPPA, NU_IMPROPER)
        assert not is_proper(KAPPA, NU_IMPROPER)

    def test_single_component_vacuous(self):
        mp = Multipartition.parse("3,1")
        assert is_restricted(Multicharge.of(0), mp)
        assert is_proper(Multicharge.of(0), mp)

    def test_level_mismatch(self):
        with pytest.raises(PreconditionError):
            is_restricted(Multicharge.of(0), Multipartition.parse("1|1"))

    def test_restricted_monotonicity(self):
        for kappa in iter_multicharges(-1, 1, 2):
            for mp in iter_multipartitions(len(kappa), 5):
                if not is_restricted(kappa, mp):
                    continue
                gaps = [
                    mu.length() - k for k, mu in zip(kappa, mp)
                ]
                assert gaps == sorted(gaps), f"{kappa} {mp}"

    def test_cut_preserves_restricted(self):
        for kappa in iter_multicharges(-1, 1, 2):
            for mp in iter_multipartitions(len(kappa), 5):
                if is_restricted(kappa, mp):
                    assert is_restricted(kappa, mp.cut())


class TestPad:
    def test_example(self):
        padded = pad(Multicharge.of(1, 0), Multipartition.parse("2|2,1"))
        assert padded == Multipartition.parse("3,1,1|3,2")

    def test_single(self):
        assert pad(Multicharge.of(0), Multipartition.parse("1")) == (
            Multipartition.parse("2")
        )

    def test_full_length_components_get_no_ones(self):
        kappa = Multicharge.of(1, 1)
        mp = Multipartition.parse("2,1|3,2")  # proper: lengths equal, charges equal
        assert is_proper(kappa, mp)
        padded = pad(kappa, mp)
        assert padded == Multipartition.parse("3,2|4,3")

    def test_requires_restricted(self):
        with pytest.raises(PreconditionError):
            pad(Multicharge.of(0, 0), Multipartition.parse("2|1"))

    def test_postconditions_exhaustively(self):
        for kappa in iter_multicharges(-1, 1, 2):
            for mp in iter_multipartitions(len(kappa), 5):
                if not is_restricted(kappa, mp):
                    continue
                padded = pad(kappa, mp)
                assert is_proper(kappa, padded)
                assert padded.cut() == mp


class TestLadderOfPartition:
    def test_examples(self):
        assert ladder_of_partition(0, Partition.of(2, 1)) == M((-1, 0), (1, 1))
        assert ladder_of_partition(5, Partition.of(1)) == M((5, 5))
        assert ladder_of_partition(3, Partition()) == Multisegment()

    def test_cut_ladder_identity(self):
        mu = Partition.of(2, 1)
        assert ladder_of_partition(0, mu).derived() == ladder_of_partition(0, mu.cut())
        assert ladder_of_partition(0, mu.cut()) == M((0, 0))

    def test_cache_matches_uncached(self):
        from segrsk.checks import partitions_of
        from segrsk.specht import LADDER_CACHE_SIZE

        uncached = ladder_of_partition.__wrapped__
        for n in range(9):
            for mu in partitions_of(n):
                for k in range(-3, 4):
                    assert ladder_of_partition(k, mu) == uncached(k, mu), (k, mu)
                    # a cache hit returns the value computed on the miss
                    assert ladder_of_partition(k, mu) is ladder_of_partition(k, mu)
        info = ladder_of_partition.cache_info()
        assert info.maxsize == LADDER_CACHE_SIZE
        assert info.currsize <= LADDER_CACHE_SIZE

    def test_weight_is_conjugate_content(self):
        for n in range(7):
            from segrsk.checks import partitions_of

            for mu in partitions_of(n):
                for k in (-2, 0, 2):
                    lad = ladder_of_partition(k, mu)
                    assert lad.weight() == content(k, mu.conjugate())

    def test_weight_assertion_fires(self, monkeypatch):
        import segrsk.specht as specht_mod

        true_content = specht_mod.content
        monkeypatch.setattr(specht_mod, "content", lambda k, mu: true_content(k + 1, mu))
        with pytest.raises(InvariantViolation, match="ladder weight mismatch"):
            ladder_of_partition.__wrapped__(0, Partition.of(2, 1))


class TestMultisegOf:
    def test_examples(self):
        kappa = Multicharge.of(1, 0)
        mp = Multipartition.parse("2|2,1")
        assert multiseg_of(kappa, mp) == M((-2, -1), (-1, 0), (1, 1))
        assert multiseg_of(Multicharge.of(0), Multipartition.parse("1")) == M((0, 0))
        assert multiseg_of(Multicharge.of(4), Multipartition.parse("")) == (
            Multisegment()
        )


class TestMultisegOfAgainstRepeatedSum:
    @given(
        st.lists(
            st.tuples(
                st.integers(-4, 4),
                st.integers(0, 6).flatmap(lambda n: st.sampled_from(partitions_of(n))),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_random_inputs(self, components):
        components.sort(key=lambda kc: -kc[0])
        kappa = Multicharge(tuple(k for k, _ in components))
        mp = Multipartition(tuple(mu for _, mu in components))
        assert multiseg_of(kappa, mp) == summed_ladders(kappa, mp)


class TestSpechtRskVerify:
    def test_minimal_example(self):
        report = specht_rsk_verify(Multicharge.of(0), Multipartition.parse("1"))
        assert report.gamma == Weight()
        assert report.antiderivative == M((-1, 0))
        assert report.ladders == (M((0, 0)),)
        assert report.proper_case

    def test_padding_example(self):
        report = specht_rsk_verify(Multicharge.of(1, 0), Multipartition.parse("2|2,1"))
        assert report.gamma == alpha(0) + alpha(1)
        assert report.ladders == (M((-2, -1)), M((-1, 0), (1, 1)))
        assert not report.proper_case

    def test_worked_proper_example(self):
        report = specht_rsk_verify(KAPPA, MU_PROPER)
        assert report.proper_case
        assert report.gamma == Weight()
        expected = tuple(
            ladder_of_partition(-k, mu) for k, mu in zip(KAPPA, MU_PROPER)
        )
        assert report.ladders == expected
        assert list(rsk_transform(report.multisegment)) == list(expected)

    def test_worked_improper_example(self):
        report = specht_rsk_verify(KAPPA, NU_IMPROPER)
        assert not report.proper_case
        assert report.gamma.is_positive()
        assert report.antiderivative.derived() == report.multisegment

    def test_requires_restricted(self):
        with pytest.raises(PreconditionError):
            specht_rsk_verify(Multicharge.of(0, 0), Multipartition.parse("2|1"))

    def test_empty_components(self):
        report = specht_rsk_verify(
            Multicharge.of(0, -1), Multipartition.parse("1|")
        )
        assert report.multisegment == M((0, 0))
        assert report.gamma.is_positive()


class TestProperIdentity:
    def test_on_worked_example(self):
        assert proper_rsk_identity(KAPPA, MU_PROPER)

    def test_requires_proper(self):
        with pytest.raises(PreconditionError):
            proper_rsk_identity(KAPPA, NU_IMPROPER)


class TestColumnRemoval:
    def test_examples(self):
        assert column_removal_check(Multicharge.of(0), Multipartition.parse("2,1"))
        assert multiseg_of(Multicharge.of(0), Multipartition.parse("2,1")).derived() == (
            M((0, 0))
        )

    def test_all_ones_cut_to_empty(self):
        kappa = Multicharge.of(0)
        mp = Multipartition.parse("1,1")
        assert column_removal_check(kappa, mp)
        assert multiseg_of(kappa, mp.cut()) == Multisegment()

    def test_worked_example(self):
        assert column_removal_check(KAPPA, MU_PROPER)
        assert column_removal_check(KAPPA, NU_IMPROPER)
