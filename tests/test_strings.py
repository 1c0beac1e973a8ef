import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _inputs import (
    begin_weight_string,
    checked_phi,
    phi_data,
    reference_phi,
    subcone_error,
    support_error,
)
from segrsk import oracle, strings
from segrsk.errors import InvariantViolation, ParseError, PreconditionError
from segrsk.lattice import LaurentPoly, Weight, cartan_form
from segrsk.multisegment import Multisegment, point_multisegment
from segrsk.oracle import EnumerationBounds, enumerate_multisegments
from segrsk.strings import (
    AdmissibleSequence,
    MultiplicityTable,
    beta_of,
    bz_derivative,
    bz_string,
    c_prime_tuple,
    c_tuple,
    phi_multiseg,
    phi_weights,
    single_derivative,
    string_form,
    transfer_multiplicities,
)

M = Multisegment.of
alpha = Weight.alpha

vectors = st.integers(1, 5).flatmap(
    lambda t: st.tuples(
        st.just(AdmissibleSequence(tuple((-1) ** r * ((r + 1) // 2) for r in range(t)))),
        st.lists(st.integers(0, 3), min_size=t, max_size=t).map(tuple),
        st.lists(st.integers(0, 3), min_size=t, max_size=t).map(tuple),
    )
)


class TestAdmissibleSequence:
    def test_rejects_equal_neighbours(self):
        with pytest.raises(ValueError):
            AdmissibleSequence((1, 1, 2))

    def test_bz(self):
        assert AdmissibleSequence.bz(2).indices == (2, 1, 0, -1, -2)
        assert list(AdmissibleSequence.bz(2)) == [2, 1, 0, -1, -2]


class TestBetaOf:
    def test_examples(self):
        i = AdmissibleSequence((2, 1))
        assert beta_of(i, (1, 1)) == alpha(2) + alpha(1)
        assert beta_of(i, (0, 0)) == Weight()
        i = AdmissibleSequence((1, 2, 1))
        assert beta_of(i, (1, 0, 2)) == 3 * alpha(1)

    def test_length_mismatch(self):
        with pytest.raises(PreconditionError):
            beta_of(AdmissibleSequence((2, 1)), (1,))


class TestStringForm:
    def test_basis_values(self):
        i = AdmissibleSequence((2, 1))
        assert string_form(i, (1, 0), (1, 0)) == 1
        assert string_form(i, (0, 1), (1, 0)) == -1  # r > u picks the Cartan value
        assert string_form(i, (1, 0), (0, 1)) == 0

    @given(vectors)
    def test_polarization(self, data):
        i, a1, a2 = data
        assert string_form(i, a1, a2) + string_form(i, a2, a1) == cartan_form(
            beta_of(i, a1), beta_of(i, a2)
        )


# admissible sequences that revisit indices: each step moves by 1 or 2
revisiting = st.integers(1, 9).flatmap(
    lambda t: st.tuples(
        st.integers(-2, 2),
        st.lists(st.sampled_from((-2, -1, 1, 2)), min_size=t - 1, max_size=t - 1),
        st.lists(st.integers(0, 3), min_size=t, max_size=t).map(tuple),
        st.lists(st.integers(0, 3), min_size=t, max_size=t).map(tuple),
    )
)


class TestStringFormAgainstReference:
    @given(revisiting)
    def test_matches_double_loop(self, data):
        start, steps, a1, a2 = data
        idx = [start]
        for step in steps:
            idx.append(idx[-1] + step)
        i = AdmissibleSequence(tuple(idx))
        assert string_form(i, a1, a2) == oracle.reference_string_form(i.indices, a1, a2)

    def test_checks_stay_at_the_public_entry(self):
        i = AdmissibleSequence((1, 0, 1))
        with pytest.raises(PreconditionError):
            string_form(i, (1, 0), (1, 0, 0))
        with pytest.raises(PreconditionError):
            string_form(i, (1, 0, 0), (0, -1, 0))


class TestPhiWeights:
    def test_single_is_zero(self):
        i = AdmissibleSequence.bz(2)
        assert phi_weights(i, [(0, 1, 0, 0, 0)], [alpha(1)]) == 0

    def test_ordered_pair(self):
        i = AdmissibleSequence.bz(2)
        a_for_1 = (0, 1, 0, 0, 0)
        a_for_2 = (1, 0, 0, 0, 0)
        assert phi_weights(i, [a_for_1, a_for_2], [alpha(1), alpha(2)]) == 0
        assert phi_weights(i, [a_for_2, a_for_1], [alpha(2), alpha(1)]) == 1

    def test_precondition(self):
        i = AdmissibleSequence.bz(1)
        with pytest.raises(PreconditionError):
            phi_weights(i, [(2, 0, 0)], [alpha(1)])  # beta(i,a) exceeds beta


multisegments = st.lists(
    st.tuples(st.integers(-5, 5), st.integers(0, 4)), max_size=6
).map(lambda spans: M(*((b, b + n) for b, n in spans)))


class TestPhiCoreAgainstPublic:
    @given(st.lists(multisegments, min_size=1, max_size=3), st.integers(0, 2))
    def test_random_tuples(self, ms, slack):
        t = max((max(-s.b, s.e) for m in ms for s in m), default=0) + slack
        seq = AdmissibleSequence.bz(t)
        core = checked_phi(seq, ms)
        assert core == phi_weights(seq, *phi_data(seq, ms))
        assert core == reference_phi(seq, ms, oracle.reference_string_form)

    def test_checked_betas_keeps_the_preconditions(self):
        i = AdmissibleSequence.bz(1)
        with pytest.raises(PreconditionError, match="exceeds its weight"):
            strings._checked_betas(i, [(2, 0, 0)], [alpha(1)])
        with pytest.raises(PreconditionError, match="one weight per"):
            strings._checked_betas(i, [(0, 0, 0)], [])
        with pytest.raises(PreconditionError, match="vector length"):
            strings._checked_betas(i, [(0, 0)], [alpha(1)])


class TestCCounts:
    def test_examples(self):
        assert c_tuple([M((2, 3)), M((1, 1))]) == 1
        assert c_tuple([M((1, 1)), M((2, 2))]) == 0
        assert c_prime_tuple([M((1, 1)), M((2, 2))]) == 0
        assert c_tuple([M((1, 1)), Multisegment()]) == 0

    def test_prime_matches_shift(self):
        for m1, m2 in itertools.product(
            enumerate_multisegments(EnumerationBounds(-1, 1, 2)), repeat=2
        ):
            assert c_prime_tuple([m1, m2]) == c_tuple([m1.shifted_right(), m2])

    def test_multiplicities(self):
        assert c_tuple([M((2, 3), (2, 2)), M((1, 1), (1, 1))]) == 4


class TestPhiMultiseg:
    def test_examples(self):
        assert phi_multiseg([M((1, 1)), M((2, 2))]) == 0
        assert phi_multiseg([M((2, 2)), M((1, 1))]) == 1
        assert phi_multiseg([M((1, 3), (2, 2))]) == 0

    def test_combi_identity_small(self):
        domain = list(enumerate_multisegments(EnumerationBounds(-1, 1, 2)))
        seq = AdmissibleSequence.bz(1)
        for ms in itertools.product(domain, repeat=2):
            phi = phi_multiseg(ms)
            assert c_tuple(ms) - c_prime_tuple(ms) == phi, str(ms)
            avecs = [bz_string(m, 1) for m in ms]
            betas = [m.weight() for m in ms]
            assert phi_weights(seq, avecs, betas) == phi, str(ms)


class TestBzString:
    def test_examples(self):
        # positions follow AdmissibleSequence.bz(3) = (3, 2, 1, 0, -1, -2, -3)
        assert bz_string(M((1, 3), (2, 2)), 3) == (0, 1, 1, 0, 0, 0, 0)
        assert bz_string(Multisegment(), 2) == (0, 0, 0, 0, 0)
        assert bz_string(M((1, 1), (1, 1)), 1) == (2, 0, 0)

    def test_support_checked(self):
        with pytest.raises(PreconditionError):
            bz_string(M((1, 3)), 2)

    def test_additive(self):
        for m1, m2 in itertools.product(
            enumerate_multisegments(EnumerationBounds(-1, 1, 2)), repeat=2
        ):
            a1 = bz_string(m1, 2)
            a2 = bz_string(m2, 2)
            a12 = bz_string(m1 + m2, 2)
            assert tuple(x + y for x, y in zip(a1, a2)) == a12


class TestSupportCheck:
    """The endpoint check against the dense weight's in_subcone."""

    @given(multisegments, st.integers(0, 9))
    def test_random_inputs(self, m, t):
        assert support_error(m, t) == subcone_error(m, t), (str(m), t)


class TestBzStringAgainstBeginWeight:
    @given(multisegments, st.integers(0, 3))
    def test_random_inputs(self, m, slack):
        t = max((max(-s.b, s.e) for s in m), default=0) + slack
        assert bz_string(m, t) == begin_weight_string(m, t)


class TestSingleDerivative:
    def test_examples(self):
        assert single_derivative(M((1, 3)), 1) == M((2, 3))
        assert single_derivative(M((1, 1), (1, 1)), 1) == Multisegment()
        assert single_derivative(M((1, 3)), 5) == M((1, 3))

    def test_precondition_names_segment(self):
        with pytest.raises(PreconditionError, match=r"\[2,3\]"):
            single_derivative(M((1, 3), (2, 3)), 1)

    def test_matches_truncation_and_keeps_untouched_inputs(self):
        for m in enumerate_multisegments(EnumerationBounds(-2, 2, 3)):
            for j in range(-3, 3):
                if any(s.b == j + 1 for s in m):
                    continue
                truncated = [s.derived() if s.b == j else s for s in m]
                out = single_derivative(m, j)
                assert out == Multisegment(s for s in truncated if s is not None)
                if all(s.b != j for s in m):
                    assert out is m


class TestBzDerivative:
    def test_examples(self):
        assert bz_derivative(M((1, 3), (2, 2)), 3) == M((2, 3))
        gamma = alpha(0) + 2 * alpha(1)
        assert bz_derivative(point_multisegment(gamma), 2) == Multisegment()
        assert bz_derivative(M((0, 1), (1, 2)), 2) == M((1, 1), (2, 2))

    def test_t_independence(self):
        for m in enumerate_multisegments(EnumerationBounds(-1, 1, 3)):
            assert bz_derivative(m, 1) == m.derived()
            assert bz_derivative(m, 4) == m.derived()

    def test_support_checked(self):
        with pytest.raises(PreconditionError):
            bz_derivative(M((-3, 0)), 2)

    @given(
        st.lists(st.tuples(st.integers(-6, 6), st.integers(0, 4)), max_size=8),
        st.integers(0, 3),
    )
    def test_matches_full_sweep(self, spans, slack):
        m = M(*((b, b + n) for b, n in spans))
        t = max((max(-s.b, s.e) for s in m), default=0) + slack
        assert bz_derivative(m, t) == oracle.reference_bz_derivative(m, t)

    def test_truncation_assertion_fires(self, monkeypatch):
        import segrsk.strings as strings_mod

        # a derivative that truncates nothing
        monkeypatch.setattr(strings_mod, "single_derivative", lambda m, j: m)
        with pytest.raises(InvariantViolation, match="differs from its truncation"):
            bz_derivative(M((1, 3), (2, 2)), 3)


class TestMultiplicityTable:
    def test_rejects_mixed_weights(self):
        with pytest.raises(ValueError):
            MultiplicityTable(
                {M((1, 1)): LaurentPoly.one(), M((2, 2)): LaurentPoly.one()}
            )

    def test_rejects_negative_coeffs(self):
        with pytest.raises(ValueError):
            MultiplicityTable({M((1, 1)): LaurentPoly.q_power(0, -1)})

    def test_json_round_trip(self):
        table = MultiplicityTable(
            {
                M((1, 1), (2, 2)): LaurentPoly.one(),
                M((1, 2)): LaurentPoly.q_power(1),
            }
        )
        assert MultiplicityTable.from_json(table.to_json()) == table

    def test_repr(self):
        table = MultiplicityTable(
            {
                M((1, 2)): LaurentPoly.q_power(1),
                M((1, 1), (2, 2)): LaurentPoly({0: 1, -2: 3}),
            }
        )
        rep = (
            "MultiplicityTable([(Multisegment.parse('[1,1]+[2,2]'), LaurentPoly({0: 1, -2: 3})), "
            "(Multisegment.parse('[1,2]'), LaurentPoly({1: 1}))])"
        )
        assert repr(table) == rep
        assert eval(rep) == table

    @pytest.mark.parametrize(
        "data",
        [
            5,
            [5],
            [{"key": "[1,1]"}],
            [{"poly": {"0": 1}}],
            [{"key": 3, "poly": {"0": 1}}],
            [{"key": "[2,1]", "poly": {"0": 1}}],
            [{"key": "[1,1]", "poly": {"0": "a"}}],
            [{"key": "[1,1]", "poly": {"0": -1}}],
            [{"key": "[1,1]", "poly": {"0": 1}}, {"key": "[1,1]", "poly": {"0": 1}}],
            [{"key": "[1,1]", "poly": {"0": 1}}, {"key": "[2,2]", "poly": {"0": 1}}],
            # rows that to_json never writes
            [{"key": "[1,1]", "poly": {"0": 1}, "extra": 1}],
            [{"key": " [1,1] ", "poly": {"0": 1}}],
            [{"key": "[2,2]+[1,1]", "poly": {"0": 1}}],
            [{"key": "[1,1]", "poly": {"00": 1}}],
            [{"key": "[1,2]", "poly": {"0": 1}}, {"key": "[1,1]+[2,2]", "poly": {"0": 1}}],
        ],
    )
    def test_from_json_errors(self, data):
        with pytest.raises(ParseError):
            MultiplicityTable.from_json(data)


# keys of one weight each, from every multisegment in [0, 2] of at most 3
# segments
_KEYS_BY_WEIGHT: dict[Weight, list[Multisegment]] = {}
for _m in enumerate_multisegments(EnumerationBounds(0, 2, 3)):
    _KEYS_BY_WEIGHT.setdefault(_m.weight(), []).append(_m)
_table_polys = st.dictionaries(st.integers(-3, 3), st.integers(1, 3), max_size=3).map(LaurentPoly)


def tables(min_size: int = 0):
    return st.sampled_from(list(_KEYS_BY_WEIGHT.values())).flatmap(
        lambda keys: st.dictionaries(
            st.sampled_from(keys), _table_polys, min_size=min_size, max_size=4
        )
    ).map(MultiplicityTable)


# each turns to_json() rows into rows that to_json never writes, or leaves
# them as they are
_MISWRITES = [
    lambda rows: [{**rows[0], "extra": 1}, *rows[1:]],
    lambda rows: [{**rows[0], "key": f" {rows[0]['key']} "}, *rows[1:]],
    lambda rows: [{**rows[0], "key": rows[0]["key"].replace(",", ", ")}, *rows[1:]],
    lambda rows: [{**rows[0], "key": "+".join(rows[0]["key"].split("+")[::-1])}, *rows[1:]],
    lambda rows: [{**rows[0], "poly": {**rows[0]["poly"], "4": 0}}, *rows[1:]],
    lambda rows: rows[::-1],
]


class TestMultiplicityTableJson:
    @given(tables())
    def test_round_trip(self, table):
        rows = json.loads(json.dumps(table.to_json()))
        assert MultiplicityTable.from_json(rows) == table

    @given(tables(min_size=1), st.sampled_from(_MISWRITES))
    def test_accepts_only_what_to_json_writes(self, table, miswrite):
        rows = miswrite(table.to_json())
        if rows == table.to_json():
            # a one-segment key, or a one-row table, has nothing to reorder
            assert MultiplicityTable.from_json(rows).to_json() == rows
        else:
            with pytest.raises(ParseError):
                MultiplicityTable.from_json(rows)


class TestTransfer:
    def test_spec_example(self):
        table = MultiplicityTable(
            {
                M((1, 1), (2, 2)): LaurentPoly.one(),
                M((1, 2)): LaurentPoly.q_power(1),
            }
        )
        out = transfer_multiplicities(table, [M((1, 1)), M((2, 2))])
        assert out == MultiplicityTable({Multisegment(): LaurentPoly.one()})

    def test_singleton(self):
        m = M((1, 3), (2, 2))
        table = MultiplicityTable({m: LaurentPoly.one()})
        out = transfer_multiplicities(table, [m])
        assert out == MultiplicityTable({m.derived(): LaurentPoly.one()})

    def test_empty_table(self):
        out = transfer_multiplicities(MultiplicityTable({}), [M((1, 1))])
        assert len(out) == 0

    def test_weight_mismatch_rejected(self):
        table = MultiplicityTable({M((1, 1)): LaurentPoly.one()})
        with pytest.raises(PreconditionError):
            transfer_multiplicities(table, [M((2, 2))])

    def test_survivors_share_bz_string(self):
        # surviving keys all realize the summed string of the tuple
        ms = [M((1, 1)), M((2, 3))]
        target_wt = ms[0].weight() + ms[1].weight()
        keys = [
            m
            for m in enumerate_multisegments(EnumerationBounds(1, 3, 3))
            if m.weight() == target_wt
        ]
        table = MultiplicityTable({k: LaurentPoly.one() for k in keys})
        survivors = [
            k
            for k, _ in table.items()
            if k.begin_weight() == ms[0].begin_weight() + ms[1].begin_weight()
        ]
        out = transfer_multiplicities(table, ms)
        assert len(out) == len(survivors)
        total = tuple(
            x + y for x, y in zip(bz_string(ms[0], 3), bz_string(ms[1], 3))
        )
        for k in survivors:
            assert bz_string(k, 3) == total


def test_mutated_ell_form_is_caught(monkeypatch):
    """Flipping the ell form sign must trip the combi suite."""
    import segrsk.strings as strings_mod
    from segrsk.checks import suite_combi

    true_ell = strings_mod.ell_form
    monkeypatch.setattr(
        strings_mod, "ell_form", lambda b1, b2: -true_ell(b1, b2)
    )
    result = suite_combi(EnumerationBounds(0, 1, 1), seed=0, sample=10)
    assert result.failures
