"""Tests for the query-time vector readers (§5.1-§5.2)."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capsule.assembler import (
    EncodingOptions,
    PlainEncodedVector,
    RealEncodedVector,
    encode_plain,
    encode_vector,
)
from repro.capsule.box import CapsuleBox, GroupBox
from repro.capsule.capsule import CODEC_RAW, LAYOUT_VARIABLE, Capsule
from repro.common.errors import FormatError
from repro.common.rowset import RowSet
from repro.query.engine import BlockEngine
from repro.query.language import Keyword, SearchString
from repro.query.modes import MatchMode, value_matches
from repro.query.stats import collect
from repro.query.vectors import QuerySettings, make_reader
from repro.runtime.classify import VectorKind
from repro.runtime.pattern import Const, RuntimePattern, SubVar
from repro.staticparse.template import Template

ALL_MODES = list(MatchMode)


class Bound:
    """A reader with one query's settings: the context the engine passes
    on every search, bound once for brevity.  Charges go to the caller's
    ``collect()`` scope."""

    def __init__(self, encoded, settings_=None):
        self.reader = make_reader(encoded)
        self.encoded = encoded
        self.settings = settings_ if settings_ is not None else QuerySettings()

    def search(self, fragment, mode, candidates=None):
        return self.reader.search(fragment, mode, self.settings, candidates)

    def search_wildcard(self, keyword, mode, candidates=None):
        return self.reader.search_wildcard(
            keyword, mode, self.settings, candidates
        )

    def matching_slots(self, fragment, mode):
        return self.reader.matching_slots(fragment, mode, self.settings)

    def values(self, rows=None):
        return self.reader.values(rows)

    def value_counts(self, rows=None):
        return self.reader.value_counts(rows)


def reader_for(values, **opts):
    settings_ = QuerySettings(use_stamps=opts.pop("use_stamps", True))
    encoded = encode_vector(values, EncodingOptions(**opts))
    return Bound(encoded, settings_)


def one_vector_engine(encoded):
    """An engine over a box of one group whose template is one variable."""
    n = encoded.num_rows
    group = GroupBox(Template(0, [None]), list(range(n)), [encoded])
    return BlockEngine(CapsuleBox(0, 0, n, True, [group]))


def engine_search(encoded, keyword, candidates=None, engine=None):
    """One search of *encoded* the way the engine runs it — the one path
    that counts Capsule decisions.  Returns (rows, stats)."""
    engine = engine or one_vector_engine(encoded)
    alive = None if candidates is None else {0: candidates}
    with collect() as stats:
        hits = engine.search_string_rows(SearchString(keyword), alive)
    return hits.get(0, RowSet.empty(encoded.num_rows)), stats


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
        # One row at a time, and the whole column at once.
        assert [reader.values([i])[0] for i in range(len(OUTLIER_VALUES))] == OUTLIER_VALUES
        assert reader.values() == OUTLIER_VALUES

    def test_stamp_filtering_avoids_decompression(self):
        reader = reader_for(REAL_VALUES, seed=3)
        # "zz" has a character class no sub-variable contains.
        with collect() as stats:
            assert not reader.search("zz", MatchMode.SUBSTRING)
        assert stats.capsules_decompressed == 0

    def test_wildcard(self):
        reader = reader_for(REAL_VALUES, seed=3)
        keyword = Keyword("block_?F8*")
        got = set(reader.search_wildcard(keyword, MatchMode.SUBSTRING).rows())
        regex = keyword.regex_for(MatchMode.SUBSTRING)
        assert got == {i for i, v in enumerate(REAL_VALUES) if regex.search(v)}

    def test_wildcard_literal_prefilter(self):
        reader = reader_for(REAL_VALUES, seed=3)
        # literal run "zz" cannot occur → whole matched portion skipped.
        assert not reader.search_wildcard(Keyword("zz*"), MatchMode.SUBSTRING)


#: 3 000 rows of one pattern; with outliers, every 50th row escapes it.
WIDE_VALUES = [f"id-{i:05d}-x" for i in range(3000)]
WIDE_OUTLIERS = [v if i % 50 else f"<{i}>" for i, v in enumerate(WIDE_VALUES)]


class TestRowBitmaps:
    """Hit rows reach the group bitmap in one build, not a shift per
    row: dense, sparse and empty hits, with and without outliers (where
    capsule rows map to group rows through the outlier list)."""

    @pytest.mark.parametrize(
        "values", [WIDE_VALUES, WIDE_OUTLIERS], ids=["no-outliers", "outliers"]
    )
    @pytest.mark.parametrize(
        "fragment, mode",
        [
            ("-x", MatchMode.SUFFIX),  # dense: every pattern row
            ("id-0", MatchMode.PREFIX),  # dense prefix through a sub-variable
            ("02999", MatchMode.SUBSTRING),  # sparse: one row
            ("<100>", MatchMode.EXACT),  # an outlier alone
            ("zz", MatchMode.SUBSTRING),  # empty
        ],
    )
    def test_matches_naive(self, values, fragment, mode):
        reader = reader_for(values, sample_rate=1.0)
        if values is WIDE_OUTLIERS:
            assert reader.encoded.outlier_rows
        got = reader.search(fragment, mode)
        assert got.n == len(values)
        assert set(got.rows()) == naive(values, fragment, mode)


class TestCandidates:
    """A search given candidate rows is exact on them, whichever side of
    the direct-checking bound they fall, and leaves Capsules no candidate
    lives in uninflated."""

    VECTORS = {
        "real": lambda: reader_for(WIDE_VALUES, sample_rate=1.0),
        "real-outliers": lambda: reader_for(WIDE_OUTLIERS, sample_rate=1.0),
        "nominal": lambda: reader_for(NOMINAL_VALUES * 20),
        "plain": lambda: Bound(encode_plain(WIDE_OUTLIERS)),
    }
    VALUES = {
        "real": WIDE_VALUES,
        "real-outliers": WIDE_OUTLIERS,
        "nominal": NOMINAL_VALUES * 20,
        "plain": WIDE_OUTLIERS,
    }

    @pytest.mark.parametrize("kind", sorted(VECTORS))
    @settings(max_examples=25, deadline=None)
    @given(
        picks=st.lists(st.integers(0, 2999), min_size=1, max_size=120),
        query=st.sampled_from(
            [
                ("0", MatchMode.SUBSTRING),
                ("-x", MatchMode.SUFFIX),
                ("id-01", MatchMode.PREFIX),
                ("<100>", MatchMode.EXACT),
                ("ERR#", MatchMode.PREFIX),
                ("<1*", None),
                ("id-0?1*", None),
                ("E?R*", None),
            ]
        ),
    )
    def test_exact_on_the_candidates(self, kind, picks, query):
        reader, values = self.VECTORS[kind](), self.VALUES[kind]
        candidates = RowSet.from_rows(len(values), [p % len(values) for p in picks])
        text, mode = query
        if mode is None:
            keyword = Keyword(text)
            got = reader.search_wildcard(keyword, MatchMode.SUBSTRING, candidates)
            regex = keyword.regex_for(MatchMode.SUBSTRING)
            expected = {i for i, v in enumerate(values) if regex.search(v)}
        else:
            got = reader.search(text, mode, candidates)
            expected = naive(values, text, mode)
        assert set((got & candidates).rows()) == expected & set(candidates.rows())

    def test_only_outlier_candidates_leave_subvariables_closed(self):
        reader = reader_for(WIDE_OUTLIERS, sample_rate=1.0)
        outliers = RowSet.from_rows(3000, [0, 50, 100])
        with collect() as stats:
            found = reader.search("<", MatchMode.PREFIX, outliers) & outliers
        assert found.rows() == [0, 50, 100]
        assert stats.capsules_decompressed == 1  # the outlier Capsule alone
        assert not any(
            capsule.is_decompressed for capsule in reader.encoded.subvar_capsules
        )

    def test_matched_candidates_leave_the_outliers_closed(self):
        reader = reader_for(WIDE_OUTLIERS, sample_rate=1.0)
        matched = RowSet.from_rows(3000, [1, 2, 51])
        found = reader.search("id-", MatchMode.PREFIX, matched) & matched
        assert found.rows() == [1, 2, 51]
        assert not reader.encoded.outlier_capsule.is_decompressed


class TestNominalReader:
    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("fragment", ["ERR", "#16", "SUCC", "404", "x", ""])
    def test_matches_naive(self, fragment, mode):
        reader = reader_for(NOMINAL_VALUES)
        got = set(reader.search(fragment, mode).rows())
        assert got == naive(NOMINAL_VALUES, fragment, mode)

    def test_dictionary_miss_skips_index(self):
        reader = reader_for(NOMINAL_VALUES)
        with collect() as stats:
            assert not reader.search("zzz", MatchMode.SUBSTRING)
        # The index Capsule must not have been opened (§5.1).
        assert stats.capsules_decompressed <= 1  # at most the dictionary

    def test_matching_slots(self):
        reader = reader_for(NOMINAL_VALUES)
        slots = reader.matching_slots("ERR", MatchMode.PREFIX)
        assert len(slots) == 2

    def test_value_at_and_values_list(self):
        reader = reader_for(NOMINAL_VALUES)
        # One row at a time, and the whole column at once.
        assert [reader.values([i])[0] for i in range(len(NOMINAL_VALUES))] == NOMINAL_VALUES
        assert reader.values() == NOMINAL_VALUES

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
        reader = Bound(encoded)
        got = set(reader.search(fragment, mode).rows())
        assert got == naive(values, fragment, mode)

    def test_stamp_rejects(self):
        values = ["123", "456"] * 10
        rows, stats = engine_search(encode_plain(values), "abc")
        assert not rows
        assert stats.capsules_considered == 1
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

    def _exploding_reader(self):
        from repro.capsule.capsule import Capsule
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
        return Bound(encoded, settings_), values

    def test_fallback_scan_is_correct(self):
        reader, values = self._exploding_reader()
        fragment = "a-b-a-b-a-b-a-b"
        with collect() as stats:
            got = set(reader.search(fragment, MatchMode.SUBSTRING).rows())
        assert stats.fallback_scans >= 1
        assert got == naive(values, fragment, MatchMode.SUBSTRING)
        assert got  # the corpus is built so the keyword does occur

    def test_non_exploding_query_stays_on_locator(self):
        reader, values = self._exploding_reader()
        with collect() as stats:
            got = set(reader.search("a-b", MatchMode.PREFIX).rows())
        assert stats.fallback_scans == 0
        assert got == naive(values, "a-b", MatchMode.PREFIX)


#: ``blk_<a>_<b>``: values that do not fit it are stored as outliers.
BLK = RuntimePattern([Const("blk_"), SubVar(0), Const("_"), SubVar(1)])


@st.composite
def encoded_vectors(draw):
    """(encoded vector, its values): real with outliers, nominal (region
    dictionary when padded, variable when not) or plain, padded or not."""
    padded = draw(st.booleans())
    kind = draw(st.sampled_from(["real", "nominal", "plain"]))
    part = st.text(alphabet="ab#é0123456789", max_size=5)
    options = EncodingOptions(use_padding=padded)
    if kind == "nominal":
        words = st.sampled_from(["OK", "ERR#1", "ERR#22", "a/b/c", ""])
        values = draw(st.lists(words, max_size=40))
        return encode_vector(values, options, kind=VectorKind.NOMINAL), values
    if kind == "plain":
        values = draw(st.lists(part, max_size=40))
        return encode_plain(values, options), values
    blk = st.builds("blk_{}_{}".format, part, part)
    values = draw(st.lists(st.one_of(blk, part), max_size=40))
    pack = Capsule.pack_fixed if padded else Capsule.pack_variable
    columns, outlier_rows, outliers = BLK.split(values)
    encoded = RealEncodedVector(
        BLK,
        [pack(column) for column in columns],
        pack(outliers) if outliers else None,
        outlier_rows,
        len(values),
    )
    return encoded, values


class TestRowSubsetDecoding:
    """Every encoding decodes any ascending row subset to the raw values
    at those rows, and counts them to the same multiset."""

    @settings(max_examples=150, deadline=None)
    @given(encoded_vectors(), st.data())
    def test_values_and_counts_of_any_subset(self, vector, data):
        encoded, values = vector
        indices = st.sampled_from(range(len(values))) if values else st.nothing()
        rows = sorted(data.draw(st.sets(indices)))
        reader = Bound(encoded)
        assert reader.values() == values
        assert reader.values(rows) == [values[row] for row in rows]
        assert reader.value_counts(RowSet.from_rows(len(values), rows)) == Counter(
            values[row] for row in rows
        )


class TestCapsuleDecisions:
    """Exact counts of the engine's one Capsule-decision site: a vector
    search considers each Capsule its vector owns once, and every one it
    did not read is filtered."""

    def test_plain_read(self):
        rows, stats = engine_search(encode_plain(["123", "456"] * 10), "45")
        assert len(rows) == 10
        assert (stats.capsules_considered, stats.capsules_filtered) == (1, 0)
        assert stats.capsules_decompressed == 1

    def test_nominal_dictionary_rules_out_every_pattern(self):
        encoded = encode_vector(NOMINAL_VALUES, EncodingOptions())
        rows, stats = engine_search(encoded, "zzz")
        assert not rows
        assert (stats.capsules_considered, stats.capsules_filtered) == (2, 2)
        assert stats.capsules_decompressed == 0

    def test_nominal_hit_reads_dictionary_and_index(self):
        encoded = encode_vector(NOMINAL_VALUES, EncodingOptions())
        rows, stats = engine_search(encoded, "ERR#404")
        assert len(rows) == 40
        assert (stats.capsules_considered, stats.capsules_filtered) == (2, 0)

    def test_nominal_warm_dictionary_still_counts_as_read(self):
        # The second search over the box finds the dictionary decoded
        # already: it is still read, not filtered, though nothing is
        # inflated again.
        encoded = encode_vector(NOMINAL_VALUES, EncodingOptions(use_padding=False))
        engine = one_vector_engine(encoded)
        engine_search(encoded, "ERR", engine=engine)
        rows, stats = engine_search(encoded, "SUCC", engine=engine)
        assert len(rows) == 70
        assert (stats.capsules_considered, stats.capsules_filtered) == (2, 0)
        assert stats.capsules_decompressed == 0

    def test_real_without_locator_candidate(self):
        encoded = encode_vector(REAL_VALUES, EncodingOptions(seed=3))
        assert isinstance(encoded, RealEncodedVector)
        assert encoded.outlier_capsule is None
        rows, stats = engine_search(encoded, "zz")
        assert not rows
        owned = len(encoded.subvar_capsules)
        assert (stats.capsules_considered, stats.capsules_filtered) == (owned, owned)
        assert stats.capsules_decompressed == 0

    def test_real_with_outliers_without_locator_candidate(self):
        encoded = encode_vector(WIDE_OUTLIERS, EncodingOptions(sample_rate=1.0))
        assert isinstance(encoded, RealEncodedVector)
        assert encoded.outlier_capsule is not None
        matched = RowSet.from_rows(3000, [1, 2, 51])  # no outlier among them
        rows, stats = engine_search(encoded, "zz", candidates=matched)
        assert not rows
        owned = len(encoded.subvar_capsules) + 1
        assert (stats.capsules_considered, stats.capsules_filtered) == (owned, owned)
        assert stats.capsules_decompressed == 0

    @settings(max_examples=80, deadline=None)
    @given(
        encoded_vectors(),
        st.sampled_from(["blk_", "_1", "a#", "OK", "ERR#2", "é", "zz", "b*_"]),
    )
    def test_filtered_never_exceeds_considered(self, vector, keyword):
        encoded, _ = vector
        if not encoded.num_rows:
            return
        _, stats = engine_search(encoded, keyword)
        owned = make_reader(encoded).num_capsules
        assert stats.capsules_considered == owned
        assert 0 <= stats.capsules_filtered <= owned


class TestPayloadShape:
    def test_plain_counts_reject_a_value_behind_the_count(self):
        # Three values under metadata that says two: the second row must
        # not decode as the run-on 'b\x00c'.
        packed = Capsule.pack_variable(["a", "b", "c"])
        short = Capsule(
            LAYOUT_VARIABLE, 0, 2, packed.stamp, CODEC_RAW, 1, packed.plain()
        )
        encoded = PlainEncodedVector(short, 2)
        reader = Bound(encoded)
        with pytest.raises(FormatError, match="expected 2"):
            reader.value_counts(RowSet.from_rows(2, [1]))


class TestReaderFactory:
    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            make_reader(object())
