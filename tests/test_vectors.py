"""Tests for the query-time vector readers (§5.1-§5.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capsule.assembler import EncodingOptions, encode_plain, encode_vector
from repro.query.language import Keyword
from repro.query.modes import MatchMode, value_matches
from repro.query.stats import QueryStats
from repro.query.vectors import QuerySettings, make_reader

ALL_MODES = list(MatchMode)


def reader_for(values, stats=None, **opts):
    settings_ = QuerySettings(use_stamps=opts.pop("use_stamps", True))
    encoded = encode_vector(values, EncodingOptions(**opts))
    return make_reader(encoded, settings_, stats if stats is not None else QueryStats())


def naive(values, fragment, mode):
    return {i for i, v in enumerate(values) if value_matches(v, fragment, mode)}


REAL_VALUES = [f"block_{i:X}F8{(i * 3) % 97:X}" for i in range(150)]
NOMINAL_VALUES = ["ERR#404"] * 40 + ["SUCC"] * 70 + ["ERR#501"] * 40
OUTLIER_VALUES = [f"path_{i}" for i in range(140)] + ["??", "!!"] + [
    f"path_{i}" for i in range(140, 150)
]


class TestRealReader:
    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("fragment", ["block_", "F8", "1", "zz", ""])
    def test_matches_naive(self, fragment, mode):
        reader = reader_for(REAL_VALUES, seed=3)
        got = set(reader.search(fragment, mode).rows())
        assert got == naive(REAL_VALUES, fragment, mode)

    def test_outlier_rows_found(self):
        reader = reader_for(OUTLIER_VALUES, sample_rate=1.0)
        got = set(reader.search("??", MatchMode.SUBSTRING).rows())
        assert got == naive(OUTLIER_VALUES, "??", MatchMode.SUBSTRING)

    def test_outlier_and_matched_combined(self):
        values = OUTLIER_VALUES
        reader = reader_for(values, sample_rate=1.0)
        got = set(reader.search("path_1", MatchMode.SUBSTRING).rows())
        assert got == naive(values, "path_1", MatchMode.SUBSTRING)

    def test_value_at_and_values_list(self):
        reader = reader_for(OUTLIER_VALUES, sample_rate=1.0)
        assert [reader.value_at(i) for i in range(len(OUTLIER_VALUES))] == OUTLIER_VALUES
        assert reader.values_list() == OUTLIER_VALUES

    def test_stamp_filtering_avoids_decompression(self):
        stats = QueryStats()
        reader = reader_for(REAL_VALUES, stats=stats, seed=3)
        # "zz" has a character class no sub-variable contains.
        assert not reader.search("zz", MatchMode.SUBSTRING)
        assert stats.capsules_decompressed == 0

    def test_wildcard(self):
        reader = reader_for(REAL_VALUES, seed=3)
        keyword = Keyword("block_?F8*")
        got = set(reader.search_wildcard(keyword, MatchMode.SUBSTRING).rows())
        regex = keyword.regex_for(MatchMode.SUBSTRING)
        assert got == {i for i, v in enumerate(REAL_VALUES) if regex.search(v)}

    def test_wildcard_literal_prefilter(self):
        stats = QueryStats()
        reader = reader_for(REAL_VALUES, stats=stats, seed=3)
        # literal run "zz" cannot occur → whole matched portion skipped.
        assert not reader.search_wildcard(Keyword("zz*"), MatchMode.SUBSTRING)


class TestNominalReader:
    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("fragment", ["ERR", "#16", "SUCC", "404", "x", ""])
    def test_matches_naive(self, fragment, mode):
        reader = reader_for(NOMINAL_VALUES)
        got = set(reader.search(fragment, mode).rows())
        assert got == naive(NOMINAL_VALUES, fragment, mode)

    def test_dictionary_miss_skips_index(self):
        stats = QueryStats()
        reader = reader_for(NOMINAL_VALUES, stats=stats)
        assert not reader.search("zzz", MatchMode.SUBSTRING)
        # The index Capsule must not have been opened (§5.1).
        assert stats.capsules_decompressed <= 1  # at most the dictionary

    def test_matching_slots(self):
        reader = reader_for(NOMINAL_VALUES)
        slots = reader.matching_slots("ERR", MatchMode.PREFIX)
        assert len(slots) == 2

    def test_value_at_and_values_list(self):
        reader = reader_for(NOMINAL_VALUES)
        assert [reader.value_at(i) for i in range(len(NOMINAL_VALUES))] == NOMINAL_VALUES
        assert reader.values_list() == NOMINAL_VALUES

    def test_wildcard(self):
        reader = reader_for(NOMINAL_VALUES)
        keyword = Keyword("ERR#4*")
        got = set(reader.search_wildcard(keyword, MatchMode.SUBSTRING).rows())
        assert got == {i for i, v in enumerate(NOMINAL_VALUES) if v.startswith("ERR#4")}


class TestPlainReader:
    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("fragment", ["al", "", "om", "zz9"])
    def test_matches_naive(self, fragment, mode):
        values = ["alpha", "beta", "omega", ""] * 8
        encoded = encode_plain(values)
        reader = make_reader(encoded, QuerySettings(), QueryStats())
        got = set(reader.search(fragment, mode).rows())
        assert got == naive(values, fragment, mode)

    def test_stamp_rejects(self):
        stats = QueryStats()
        values = ["123", "456"] * 10
        reader = make_reader(encode_plain(values), QuerySettings(), stats)
        assert not reader.search("abc", MatchMode.SUBSTRING)
        assert stats.capsules_filtered == 1
        assert stats.capsules_decompressed == 0


class TestUnpaddedReaders:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.sampled_from(["a#1", "a#22", "bb", "c-3", ""]), min_size=1, max_size=40),
        st.sampled_from(["a", "#", "1", "bb", ""]),
        st.sampled_from(ALL_MODES),
    )
    def test_variable_layout_matches_naive(self, values, fragment, mode):
        reader = reader_for(values, use_padding=False)
        got = set(reader.search(fragment, mode).rows())
        assert got == naive(values, fragment, mode)


class TestKernelParity:
    """The scan kernels agree with naive matching on every reader kind."""

    @pytest.mark.parametrize("values", [REAL_VALUES, NOMINAL_VALUES, OUTLIER_VALUES])
    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("fragment", ["ERR", "F8", "path_1", "#", ""])
    def test_search_identical(self, values, fragment, mode):
        reader = reader_for(values, sample_rate=1.0)
        assert set(reader.search(fragment, mode).rows()) == naive(
            values, fragment, mode
        )

    def test_unpadded_search(self):
        values = ["a#1", "a#22", "bb", "c-3", ""] * 8
        reader = reader_for(values, use_padding=False)
        got = set(reader.search("a#", MatchMode.PREFIX).rows())
        assert got == naive(values, "a#", MatchMode.PREFIX)


class TestBudgetFallback:
    """Locator explosion must fall back to a scan with correct results."""

    def _exploding_reader(self, stats):
        from repro.capsule.capsule import Capsule
        from repro.query.vectors import RealVectorReader
        from repro.capsule.assembler import RealEncodedVector
        from repro.runtime.pattern import pattern_from_fragments

        fragments = []
        for _ in range(10):
            fragments.extend([None, "-"])
        pattern = pattern_from_fragments(fragments)
        columns = [
            [("a" if (r + c) % 2 else "b") for r in range(30)]
            for c in range(pattern.num_subvars)
        ]
        encoded = RealEncodedVector(
            pattern,
            [Capsule.pack_fixed(column) for column in columns],
            None,
            [],
            30,
        )
        settings_ = QuerySettings(use_stamps=False)
        values = [
            pattern.render([column[r] for column in columns]) for r in range(30)
        ]
        return RealVectorReader(encoded, settings_, stats), values

    def test_fallback_scan_is_correct(self):
        stats = QueryStats()
        reader, values = self._exploding_reader(stats)
        fragment = "a-b-a-b-a-b-a-b"
        got = set(reader.search(fragment, MatchMode.SUBSTRING).rows())
        assert stats.fallback_scans >= 1
        assert got == naive(values, fragment, MatchMode.SUBSTRING)
        assert got  # the corpus is built so the keyword does occur

    def test_non_exploding_query_stays_on_locator(self):
        stats = QueryStats()
        reader, values = self._exploding_reader(stats)
        got = set(reader.search("a-b", MatchMode.PREFIX).rows())
        assert stats.fallback_scans == 0
        assert got == naive(values, "a-b", MatchMode.PREFIX)


class TestReaderFactory:
    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            make_reader(object(), QuerySettings(), QueryStats())
