"""Tests for Capsule locating and filtering — the Fig 6 recursion (§5.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capsule.stamp import CapsuleStamp
from repro.common import chartypes
from repro.query.locator import TOO_COMPLEX, locate
from repro.query.modes import MatchMode, value_matches
from repro.runtime.pattern import pattern_from_fragments


def stamps_for(columns):
    return [
        CapsuleStamp(
            chartypes.type_mask_of_values(column), max(map(len, column), default=0)
        )
        for column in columns
    ]


def evaluate(pattern, columns, candidates):
    """Reference evaluation of locator candidates against real columns."""
    n = len(columns[0]) if columns else 0
    matched = set()
    for candidate in candidates:
        rows = set(range(n))
        for subvar, frag, mode in candidate:
            rows &= {
                r for r in range(n) if value_matches(columns[subvar][r], frag, mode)
            }
        matched |= rows
    return matched


def naive(pattern, columns, fragment, mode):
    n = len(columns[0]) if columns else 0
    out = set()
    for r in range(n):
        value = pattern.render([col[r] for col in columns])
        if value_matches(value, fragment, mode):
            out.add(r)
    return out


class TestFig6Cases:
    """The five possible matches of keyword 8F8F on block_<sv1>F8<sv2>."""

    def setup_method(self):
        self.pattern = pattern_from_fragments(["block_", None, "F8", None])
        # <sv1> holds single hex chars, <sv2> holds up to 4 hex chars.
        self.columns = [
            ["1", "8", "2", "8"],
            ["1F", "F8FE", "E", "8F8F"],
        ]
        self.stamps = stamps_for(self.columns)

    def test_substring_candidates_cover_paper_cases(self):
        candidates = locate(self.pattern, self.stamps, "8F8F", MatchMode.SUBSTRING)
        assert candidates is not TOO_COMPLEX
        got = evaluate(self.pattern, self.columns, candidates)
        assert got == naive(self.pattern, self.columns, "8F8F", MatchMode.SUBSTRING)
        # Row 1: block_8F8F8FE contains 8F8F twice; row 3: inside <sv2>.
        assert got == {1, 3}

    def test_stamp_filters_case2(self):
        # Case ②: requires <sv1> = "8F8", impossible since len(<sv1>) = 1;
        # no surviving candidate may constrain sv 0 with a 3-char EXACT.
        candidates = locate(self.pattern, self.stamps, "8F8F", MatchMode.SUBSTRING)
        for candidate in candidates:
            for subvar, frag, mode in candidate:
                if subvar == 0 and mode is MatchMode.EXACT:
                    assert len(frag) <= 1

    def test_keyword_inside_constant_matches_all(self):
        candidates = locate(self.pattern, self.stamps, "lock", MatchMode.SUBSTRING)
        assert candidates == [()]

    def test_impossible_keyword(self):
        candidates = locate(self.pattern, self.stamps, "zzz", MatchMode.SUBSTRING)
        assert candidates == []


class TestAnchoredModes:
    def setup_method(self):
        self.pattern = pattern_from_fragments([None, "#16", None])
        self.columns = [["SUC", "ERR", "SUC"], ["04", "23", "11"]]
        self.stamps = stamps_for(self.columns)

    @pytest.mark.parametrize(
        "fragment,mode,expected",
        [
            ("SUC", MatchMode.PREFIX, {0, 2}),
            ("SUC#16", MatchMode.PREFIX, {0, 2}),
            ("SUC#1604", MatchMode.PREFIX, {0}),
            ("23", MatchMode.SUFFIX, {1}),
            ("#1623", MatchMode.SUFFIX, {1}),
            ("ERR#1623", MatchMode.EXACT, {1}),
            ("ERR#16", MatchMode.EXACT, set()),
            ("#16", MatchMode.SUBSTRING, {0, 1, 2}),
        ],
    )
    def test_against_naive(self, fragment, mode, expected):
        candidates = locate(self.pattern, self.stamps, fragment, mode)
        assert candidates is not TOO_COMPLEX
        got = evaluate(self.pattern, self.columns, candidates)
        assert got == naive(self.pattern, self.columns, fragment, mode) == expected


@st.composite
def pattern_and_columns(draw):
    """A random small pattern plus conforming sub-value columns."""
    shape = draw(
        st.sampled_from(
            [
                ["pre_", None],
                [None, "-", None],
                ["a", None, "bb", None],
                [None, ".", None, ".", None],
            ]
        )
    )
    pattern = pattern_from_fragments(shape)
    n = draw(st.integers(min_value=1, max_value=8))
    columns = [
        [
            draw(st.text(alphabet="ab1", max_size=3))
            for _ in range(n)
        ]
        for _ in range(pattern.num_subvars)
    ]
    return pattern, columns


class TestLocatorProperty:
    @settings(max_examples=80, deadline=None)
    @given(
        pattern_and_columns(),
        st.text(alphabet="ab1_.-", min_size=1, max_size=5),
        st.sampled_from(list(MatchMode)),
    )
    def test_candidates_equal_naive_scan(self, pc, fragment, mode):
        """The union-of-intersections over candidates must equal a full
        scan — the core correctness claim of §5.1."""
        pattern, columns = pc
        candidates = locate(pattern, stamps_for(columns), fragment, mode)
        if candidates is TOO_COMPLEX:
            return
        got = evaluate(pattern, columns, candidates)
        assert got == naive(pattern, columns, fragment, mode)

    @settings(max_examples=40, deadline=None)
    @given(
        pattern_and_columns(),
        st.text(alphabet="ab1_.-", min_size=1, max_size=5),
        st.sampled_from(list(MatchMode)),
    )
    def test_no_stamps_is_superset(self, pc, fragment, mode):
        """Disabling stamps may add candidates but never lose matches."""
        pattern, columns = pc
        with_stamps = locate(pattern, stamps_for(columns), fragment, mode)
        without = locate(pattern, stamps_for(columns), fragment, mode, use_stamps=False)
        if with_stamps is TOO_COMPLEX or without is TOO_COMPLEX:
            return
        assert evaluate(pattern, columns, with_stamps) <= evaluate(
            pattern, columns, without
        ) or evaluate(pattern, columns, with_stamps) == evaluate(
            pattern, columns, without
        )


class TestComplexityGuard:
    def test_explosion_returns_sentinel(self):
        # Many adjacent sub-variables with permissive stamps force the
        # enumeration over the budget.
        fragments = []
        for _ in range(10):
            fragments.extend([None, "-"])
        pattern = pattern_from_fragments(fragments)
        stamps = [CapsuleStamp.permissive()] * pattern.num_subvars
        result = locate(
            pattern, stamps, "a-a-a-a-a-a-a-a", MatchMode.SUBSTRING, use_stamps=False
        )
        assert result is TOO_COMPLEX

    def test_budget_is_tunable(self):
        # The same enumeration succeeds with the default budget but trips
        # a tiny one — lets tests force the fallback on small vectors.
        pattern = pattern_from_fragments(["block_", None, "F8", None])
        stamps = [CapsuleStamp.permissive()] * 2
        ok = locate(pattern, stamps, "8F8F", MatchMode.SUBSTRING)
        assert ok is not TOO_COMPLEX and ok
        tiny = locate(
            pattern, stamps, "8F8F", MatchMode.SUBSTRING, max_candidates=1
        )
        assert tiny is TOO_COMPLEX
