import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from segrsk.errors import ParseError
from segrsk.lattice import (
    LaurentPoly,
    Weight,
    cartan_form,
    ell_form,
)

alpha = Weight.alpha

weights = st.builds(
    Weight,
    st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-4, 4)), max_size=6
    ),
)


class TestCartanForm:
    def test_basis_values(self):
        assert cartan_form(alpha(0), alpha(0)) == 2
        assert cartan_form(alpha(0), alpha(1)) == -1
        assert cartan_form(alpha(0), alpha(5)) == 0

    @given(weights, weights)
    def test_symmetric(self, b1, b2):
        assert cartan_form(b1, b2) == cartan_form(b2, b1)

    @given(weights, weights, weights)
    def test_bilinear(self, b1, b2, b3):
        assert cartan_form(b1 + b2, b3) == cartan_form(b1, b3) + cartan_form(b2, b3)


class TestEllForm:
    def test_basis_values(self):
        assert ell_form(alpha(1), alpha(1)) == 1
        assert ell_form(alpha(1), alpha(2)) == -1
        assert ell_form(alpha(2), alpha(1)) == 0

    @given(weights, weights)
    def test_polarization(self, b1, b2):
        assert ell_form(b1, b2) + ell_form(b2, b1) == cartan_form(b1, b2)


class TestWeightOps:
    def test_height(self):
        assert (alpha(1) + 2 * alpha(2)).height() == 3
        assert Weight().height() == 0

    def test_cone_order(self):
        assert alpha(1).leq(alpha(1) + alpha(2))
        assert not alpha(1).leq(alpha(2))
        assert Weight().leq(alpha(0))
        assert not alpha(0).leq(Weight())

    def test_dagger(self):
        assert (alpha(1) + alpha(3)).dagger() == alpha(-1) + alpha(-3)

    @given(weights)
    def test_dagger_involution(self, w):
        assert w.dagger().dagger() == w
        assert w.dagger().height() == w.height()

    @given(weights, weights)
    def test_dagger_preserves_cartan(self, b1, b2):
        assert cartan_form(b1.dagger(), b2.dagger()) == cartan_form(b1, b2)

    def test_subcone(self):
        assert (alpha(-2) + alpha(2)).in_subcone(2)
        assert not (alpha(-3) + alpha(2)).in_subcone(2)
        assert not (-1 * alpha(0)).in_subcone(2)

    def test_no_stored_zeros(self):
        assert (alpha(1) - alpha(1)) == Weight()
        assert Weight([(3, 2), (3, -2)]).items() == ()

    @given(weights)
    def test_text_round_trip(self, w):
        assert Weight.parse(str(w)) == w

    def test_text_form(self):
        assert str(2 * alpha(1) + alpha(3)) == "2*a(1)+a(3)"
        assert Weight.parse("2*a(1)+a(3)") == 2 * alpha(1) + alpha(3)
        assert Weight.parse("0") == Weight()
        with pytest.raises(ParseError):
            Weight.parse("a(1)+bogus")

    @given(weights)
    def test_json_round_trip(self, w):
        assert Weight.from_json(w.to_json()) == w


def _scan_coeff(w, i):
    """Coefficient by a linear scan of the canonical items."""
    return next((c for j, c in w.items() if j == i), 0)


def _brute_form(b1, b2, pairing):
    """Double sum of c1 * c2 * pairing(i, j) over both supports."""
    return sum(c1 * c2 * pairing(i, j) for i, c1 in b1.items() for j, c2 in b2.items())


def _cartan_pairing(i, j):
    return {0: 2, 1: -1}.get(abs(i - j), 0)


def _ell_pairing(i, j):
    return {0: 1, 1: -1}.get(j - i, 0)


def _seeded_weight_pairs():
    rng = random.Random(733)
    for size in (0, 1, 5, 40, 200):
        for _ in range(5):
            pair = [
                Weight((rng.randint(-30, 30), rng.randint(-3, 3)) for _ in range(size))
                for _ in range(2)
            ]
            yield tuple(pair)


class TestAgainstBasisDefinition:
    """The dict-backed operations against scans and double sums over the basis."""

    def _check(self, b1, b2):
        support = set(b1.support()) | set(b2.support())
        for i in support | {min(support, default=0) - 1}:
            assert b1.coeff(i) == _scan_coeff(b1, i)
        total = b1 + b2
        diff = b2 - b1
        for i in support:
            assert total.coeff(i) == _scan_coeff(b1, i) + _scan_coeff(b2, i)
            assert diff.coeff(i) == _scan_coeff(b2, i) - _scan_coeff(b1, i)
        assert all(c != 0 for _, c in total.items() + diff.items())
        assert total == Weight(b1.items() + b2.items())
        assert hash(total) == hash(Weight(b1.items() + b2.items()))
        assert b1.leq(b2) == all(_scan_coeff(b2, i) >= _scan_coeff(b1, i) for i in support)
        assert cartan_form(b1, b2) == _brute_form(b1, b2, _cartan_pairing)
        assert ell_form(b1, b2) == _brute_form(b1, b2, _ell_pairing)

    @given(weights, weights)
    def test_small_weights(self, b1, b2):
        self._check(b1, b2)

    def test_seeded_large_supports(self):
        for b1, b2 in _seeded_weight_pairs():
            self._check(b1, b2)
            self._check(b1, b1 + b2)


polys = st.builds(
    LaurentPoly,
    st.lists(st.tuples(st.integers(-5, 5), st.integers(-9, 9)), max_size=5),
)


class TestLaurentPoly:
    def test_shift(self):
        assert LaurentPoly.one().shift(-2) == LaurentPoly.q_power(-2)

    def test_add(self):
        q_plus_1 = LaurentPoly.q_power(1) + LaurentPoly.one()
        assert q_plus_1 + LaurentPoly.q_power(0, -1) == LaurentPoly.q_power(1)

    def test_eval_at_one(self):
        p = LaurentPoly.q_power(2) + LaurentPoly.q_power(1, 2)
        assert p.height() == 3

    @given(polys, polys)
    def test_add_commutes(self, p, q):
        assert p + q == q + p

    @given(polys, polys, polys)
    def test_mul_distributes(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polys, st.integers(-4, 4))
    def test_shift_is_q_power_mul(self, p, k):
        assert p.shift(k) == p * LaurentPoly.q_power(k)
        assert p.shift(k).height() == p.height()

    @given(polys)
    def test_json_round_trip(self, p):
        assert LaurentPoly.from_json(p.to_json()) == p

    def test_str(self):
        p = LaurentPoly.q_power(2) + LaurentPoly.q_power(0, 3) + LaurentPoly.q_power(-1)
        assert str(p) == "q^2 + 3 + q^-1"
        assert str(LaurentPoly()) == "0"


# printed and JSON forms, pinned from the implementation before the three
# sparse-map classes shared a base
WEIGHT_GOLDENS = [
    (Weight(), "0", "Weight({})", []),
    (Weight({1: 1}), "a(1)", "Weight({1: 1})", [("1", 1)]),
    (
        Weight({-3: 2, 0: -1, 5: 1}),
        "2*a(-3)-1*a(0)+a(5)",
        "Weight({-3: 2, 0: -1, 5: 1})",
        [("-3", 2), ("0", -1), ("5", 1)],
    ),
    (Weight([(2, -1), (2, -1)]), "-2*a(2)", "Weight({2: -2})", [("2", -2)]),
    (Weight([(1, 1), (1, -1), (4, 3)]), "3*a(4)", "Weight({4: 3})", [("4", 3)]),
    (
        Weight({7: 12, -10: -1}),
        "-1*a(-10)+12*a(7)",
        "Weight({-10: -1, 7: 12})",
        [("-10", -1), ("7", 12)],
    ),
]

POLY_GOLDENS = [
    (LaurentPoly(), "0", "LaurentPoly({})", ()),
    (LaurentPoly.one(), "1", "LaurentPoly({0: 1})", ((0, 1),)),
    (LaurentPoly.q_power(1), "q", "LaurentPoly({1: 1})", ((1, 1),)),
    (LaurentPoly.q_power(-2, -1), "-q^-2", "LaurentPoly({-2: -1})", ((-2, -1),)),
    (
        LaurentPoly({-1: 1, 0: 3, 2: 1}),
        "q^2 + 3 + q^-1",
        "LaurentPoly({2: 1, 0: 3, -1: 1})",
        ((2, 1), (0, 3), (-1, 1)),
    ),
    (
        LaurentPoly([(3, -2), (1, -1), (-4, 5), (1, 1), (0, -1)]),
        "-2*q^3 - 1 + 5*q^-4",
        "LaurentPoly({3: -2, 0: -1, -4: 5})",
        ((3, -2), (0, -1), (-4, 5)),
    ),
    (
        LaurentPoly({-1: 1, 1: -1}) * LaurentPoly({1: 2, 0: -1}),
        "-2*q^2 + q + 2 - q^-1",
        "LaurentPoly({2: -2, 1: 1, 0: 2, -1: -1})",
        ((2, -2), (1, 1), (0, 2), (-1, -1)),
    ),
]


class TestPinnedForms:
    @pytest.mark.parametrize("w, text, rep, js", WEIGHT_GOLDENS)
    def test_weight(self, w, text, rep, js):
        assert str(w) == text
        assert repr(w) == rep
        assert list(w.to_json().items()) == js
        assert Weight.parse(text) == w
        assert Weight.from_json(w.to_json()) == w

    @pytest.mark.parametrize("p, text, rep, terms", POLY_GOLDENS)
    def test_laurent_poly(self, p, text, rep, terms):
        assert str(p) == text
        assert repr(p) == rep
        assert p.terms() == terms
        assert list(p.to_json().items()) == [(str(e), c) for e, c in terms]
        assert LaurentPoly.from_json(p.to_json()) == p


class TestSharedBase:
    def test_classes_never_equal(self):
        maps = [Weight({1: 1}), LaurentPoly({1: 1})]
        for i, x in enumerate(maps):
            for j, y in enumerate(maps):
                assert (x == y) == (i == j)

    def test_classes_never_mix(self):
        maps = [Weight({1: 1}), LaurentPoly({1: 1})]
        for x in maps:
            for y in maps:
                if x is not y:
                    with pytest.raises(TypeError):
                        x + y
                    with pytest.raises(TypeError):
                        x - y

    def test_zero_maps_are_falsy(self):
        for zero in (Weight(), alpha(0) - alpha(0), LaurentPoly()):
            assert not zero, repr(zero)
        assert alpha(3)


# exponents [-_SPAN, _SPAN] of the dense reference; products and shifts of
# the strategy's polynomials stay inside
_SPAN = 20
small_polys = st.lists(
    st.tuples(st.integers(-5, 5), st.integers(-9, 9)), max_size=6
).map(LaurentPoly)


def _dense(p: LaurentPoly) -> list[int]:
    out = [0] * (2 * _SPAN + 1)
    for e, c in p.terms():
        out[e + _SPAN] = c
    return out


class TestFromJsonErrors:
    """Malformed JSON raises ParseError from every sparse-map class."""

    @pytest.mark.parametrize(
        "cls, data",
        [
            (Weight, {"x": 1}),
            (LaurentPoly, {"1": "a"}),
            (LaurentPoly, [1]),
            (Weight, {"1": 1.5}),
            (Weight, {"1": True}),
            (Weight, {"1.5": 1}),
            (Weight, {"1": None}),
            (Weight, None),
            (LaurentPoly, "1"),
            (LaurentPoly, {"a": 1}),
            (Weight, {"0": "-1"}),
            # keys and coefficients that to_json never writes
            (Weight, {"1_0": 1}),
            (Weight, {" 1": 2}),
            (Weight, {1: 3}),
            (Weight, {"01": 1}),
            (Weight, {"+1": 1}),
            (Weight, {"-0": 1}),
            (Weight, {"1": 1, "01": 2}),
            (Weight, {"1": 0}),
            (LaurentPoly, {"0": 0}),
        ],
    )
    def test_malformed(self, cls, data):
        with pytest.raises(ParseError):
            cls.from_json(data)

    def test_well_formed(self):
        assert Weight.from_json({"1": 2, "-3": 1}) == Weight({1: 2, -3: 1})
        assert LaurentPoly.from_json({"2": 1, "0": -1}) == LaurentPoly({2: 1, 0: -1})
        assert Weight.from_json({}) == Weight()


SPARSE_MAPS = {Weight: weights, LaurentPoly: small_polys}


def _misspelt(i: int) -> list:
    """Keys that int() reads as i but to_json never writes."""
    text = str(i)
    digits = text.lstrip("-")
    sign = text[: len(text) - len(digits)]
    keys = [i, f" {text}", f"{text} ", f"{sign}0{digits}"]
    if i >= 0:
        keys.append(f"+{text}")
    if len(digits) > 1:
        keys.append(f"{text[:-1]}_{text[-1]}")
    return keys


# JSON objects near to_json's form: decimal keys, some misspelt, and
# coefficients that are zero or not integers
_near_json = st.dictionaries(
    st.integers(-20, 20).map(str)
    | st.integers(-20, 20).flatmap(lambda i: st.sampled_from(_misspelt(i))),
    st.integers(-3, 3) | st.sampled_from([True, 1.0, "1", None]),
    max_size=5,
)


@pytest.mark.parametrize("cls", SPARSE_MAPS)
class TestFromJsonIsTheInverse:
    """from_json accepts exactly what to_json writes, and inverts it."""

    @given(data=st.data())
    def test_round_trip(self, cls, data):
        x = data.draw(SPARSE_MAPS[cls])
        assert cls.from_json(x.to_json()) == x

    @given(d=_near_json)
    def test_accepted_json_is_what_to_json_writes(self, cls, d):
        try:
            x = cls.from_json(d)
        except ParseError:
            return
        assert x.to_json() == d

    @given(data=st.data(), i=st.integers(-120, 120))
    def test_misspelt_key_or_zero_raises(self, cls, data, i):
        d = data.draw(SPARSE_MAPS[cls]).to_json()
        with pytest.raises(ParseError):
            cls.from_json({**d, data.draw(st.sampled_from(_misspelt(i))): 1})
        with pytest.raises(ParseError):
            cls.from_json({**d, str(i): 0})


class TestLaurentPolyAgainstDense:
    @given(small_polys, small_polys, st.integers(-4, 4), st.integers(-3, 3))
    def test_ring_operations(self, p, q, k, scalar):
        dp, dq = _dense(p), _dense(q)
        size = len(dp)
        assert _dense(p + q) == [a + b for a, b in zip(dp, dq)]
        assert _dense(p - q) == [a - b for a, b in zip(dp, dq)]
        assert _dense(-p) == [-a for a in dp]
        assert _dense(scalar * p) == [scalar * a for a in dp]
        assert _dense(p * scalar) == [scalar * a for a in dp]
        product = [0] * size
        for i, a in enumerate(dp):
            for j, b in enumerate(dq):
                if a and b:
                    product[i + j - _SPAN] += a * b
        assert _dense(p * q) == product
        shifted = [0] * size
        for i, a in enumerate(dp):
            if a:
                shifted[i + k] = a
        assert _dense(p.shift(k)) == shifted
        for e in range(-_SPAN, _SPAN + 1):
            assert p.coeff(e) == dp[e + _SPAN]
        exps = [e for e, _ in p.terms()]
        assert exps == sorted(exps, reverse=True)
        assert all(c != 0 for _, c in p.terms())
        assert p.height() == sum(dp)
        assert p.is_positive() == all(a >= 0 for a in dp)
