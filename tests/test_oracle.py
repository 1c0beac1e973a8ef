import ast
import gc
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _inputs import all_nested_enumerations
from test_references import assert_row
from segrsk import oracle
from segrsk.errors import PreconditionError, SizeGuardExceeded
from segrsk.multisegment import Multisegment
from segrsk.oracle import (
    EnumerationBounds,
    brute_permissible,
    dilworth_width,
    enumerate_multisegments,
    hook_length_count,
    _depth_classes,
    _nested_enumerations,
    kv_choice_independence,
)
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


class TestDilworthAgainstRecursion:
    def test_bounded_domain(self):
        assert_row("matching", "domain")

    @pytest.mark.parametrize("n", [25, 100, 400])
    def test_seeded_large_inputs(self, n):
        assert_row("matching", n)


class TestDilworthIsTheLargestAntichain:
    def test_bounded_domain(self):
        assert_row("antichain", "domain")

    @pytest.mark.parametrize("n", range(6, 11))
    def test_seeded_inputs(self, n):
        assert_row("antichain", n)


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


class TestInsertionInverse:
    def test_examples(self):
        assert oracle.insertion_inverse(()) == Multisegment()
        # two equal segments: the second bumps the first into row 1, and
        # reverse bumping sends it back up past the equal entry
        twice = M((0, 0), (0, 0))
        assert oracle.insertion_inverse((M((0, 0)), M((0, 0)))) == twice
        assert oracle.insertion_trace(M((1, 1), (1, 2))) == (
            (M((1, 2)), M((1, 1))),
            (M((1, 1)), Multisegment()),
        )

    def test_refuses_an_entry_that_is_not_a_ladder(self):
        with pytest.raises(PreconditionError, match=r"not a ladder: \[0,0\]\+\[0,1\]"):
            oracle.insertion_inverse((M((0, 0), (0, 1)),))

    def test_refuses_a_lower_ladder_longer_than_the_one_above(self):
        with pytest.raises(PreconditionError, match=r"not weakly decreasing: \[1, 2\]"):
            oracle.insertion_inverse((M((0, 0)), M((0, 0), (1, 1))))

    def test_refuses_a_row_with_no_entry_below_the_bumped_value(self):
        # [-1,3] is recorded last and sends -3 up into the row [0]
        with pytest.raises(PreconditionError, match=r"no entry <= -3 in the row \[0\]"):
            oracle.insertion_inverse((M((0, 0)), M((-1, 3))))

    def test_refuses_a_point_below_the_diagonal(self):
        # [-1,-1] bumps -5 out of the row of [0,5], which leaves (0, 1)
        with pytest.raises(PreconditionError, match=r"empty segment \[0,-1\]"):
            oracle.insertion_inverse((M((0, 5)), M((-1, -1))))


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


class TestNestedEnumerations:
    def _assert_matches(self, m):
        segs = m.segments
        for idxs in _depth_classes(segs):
            assert _nested_enumerations(segs, idxs) == all_nested_enumerations(
                segs, idxs
            ), str(m)

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
        assert _nested_enumerations(pairs, idxs) == all_nested_enumerations(pairs, idxs)


def _rsk_imports(source: str) -> list[str]:
    """The dotted name each import of source reaches in segrsk.rsk, at any
    depth and in any form; relative imports are taken from segrsk."""
    reached = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            reached += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["segrsk" if node.level else "", node.module]))
            reached += [f"{base}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Call) and getattr(
            node.func, "id", getattr(node.func, "attr", None)
        ) in ("__import__", "import_module"):
            # the module named by a string literal, if any
            name = next((a.value for a in node.args[:1] if isinstance(a, ast.Constant)), "")
            reached.append("segrsk" + name if str(name).startswith(".") else str(name))
    return [name for name in reached if f"{name}.".startswith("segrsk.rsk.")]


class TestOracleStandsAlone:
    """The oracles share no code with the peel they check."""

    def test_imports_nothing_from_rsk(self):
        assert _rsk_imports(Path(oracle.__file__).read_text()) == []

    @pytest.mark.parametrize(
        "source",
        [
            "from .rsk import Pair",
            "from . import rsk",
            "from .rsk import *",
            "from segrsk.rsk import _depth_classes as classes",
            "from segrsk import multisegment, rsk",
            "import segrsk.rsk",
            "import segrsk.rsk as peel",
            "def f():\n    from .rsk import knuth_viennot",
            "importlib.import_module('.rsk', 'segrsk')",
            "__import__('segrsk.rsk')",
        ],
    )
    def test_every_import_form_is_seen(self, source):
        assert _rsk_imports(source)

    @pytest.mark.parametrize(
        "source", ["from .rsky import x", "from .strings import rsk_like", "import rsk"]
    )
    def test_other_modules_pass(self, source):
        assert _rsk_imports(source) == []
