"""Property tests for fixed/variable-length Capsule matching (§5.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capsule.capsule import Capsule
from repro.query.matcher import search_capsule
from repro.query.modes import MatchMode, value_matches

values_strategy = st.lists(
    st.text(alphabet="ab1F#", max_size=6), min_size=0, max_size=25
)
fragment_strategy = st.text(alphabet="ab1F#", min_size=0, max_size=4)

ALL_MODES = list(MatchMode)


def naive_rows(values, fragment, mode):
    return {i for i, v in enumerate(values) if value_matches(v, fragment, mode)}


class TestValueMatches:
    def test_modes(self):
        assert value_matches("hello", "he", MatchMode.PREFIX)
        assert value_matches("hello", "lo", MatchMode.SUFFIX)
        assert value_matches("hello", "ell", MatchMode.SUBSTRING)
        assert value_matches("hello", "hello", MatchMode.EXACT)
        assert not value_matches("hello", "lo", MatchMode.PREFIX)


class TestFixedMatcher:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_basic(self, mode):
        values = ["8F8F", "1", "F8FE", "", "8"]
        capsule = Capsule.pack_fixed(values)
        rows = search_capsule(capsule, "8", mode)
        assert set(rows.rows()) == naive_rows(values, "8", mode)

    def test_match_cannot_cross_rows(self):
        # "ab" at a row boundary must not match.
        values = ["xa", "bx"]
        capsule = Capsule.pack_fixed(values)
        rows = search_capsule(capsule, "ab", MatchMode.SUBSTRING)
        assert not rows

    def test_full_width_values_do_not_leak(self):
        # No padding at all between rows: boundary check must still hold.
        values = ["ab", "cd"]
        capsule = Capsule.pack_fixed(values)
        assert not search_capsule(capsule, "bc", MatchMode.SUBSTRING)

    def test_rows_hint_direct_checking(self):
        values = ["8F", "1x", "8F", "zz"]
        capsule = Capsule.pack_fixed(values)
        rows = search_capsule(capsule, "8F", MatchMode.EXACT, rows_hint=[0, 1, 3])
        assert rows.rows() == [0]

    @settings(max_examples=60)
    @given(values_strategy, fragment_strategy, st.sampled_from(ALL_MODES))
    def test_matches_naive(self, values, fragment, mode):
        capsule = Capsule.pack_fixed(values)
        rows = search_capsule(capsule, fragment, mode)
        assert set(rows.rows()) == naive_rows(values, fragment, mode)


class TestVariableMatcher:
    @settings(max_examples=60)
    @given(values_strategy, fragment_strategy, st.sampled_from(ALL_MODES))
    def test_matches_naive(self, values, fragment, mode):
        capsule = Capsule.pack_variable(values)
        rows = search_capsule(capsule, fragment, mode)
        assert set(rows.rows()) == naive_rows(values, fragment, mode)

    def test_empty_capsule(self):
        capsule = Capsule.pack_variable([])
        assert not search_capsule(capsule, "x", MatchMode.SUBSTRING)
