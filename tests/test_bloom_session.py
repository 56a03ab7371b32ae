"""Tests for the extensions: trigram Bloom block pruning and sessions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LogGrep, LogGrepConfig
from repro.baselines.evalutil import grep_lines
from repro.blockstore.blobsource import BytesBlobSource
from repro.common.binio import BinaryReader, BinaryWriter
from repro.common.bloom import BloomFilter, trigrams
from repro.query.blockfilter import command_might_match
from repro.query.language import parse_query
from tests.conftest import make_mixed_lines

BLOOM_CONFIG = LogGrepConfig(block_bytes=8 * 1024, use_block_bloom=True)


class TestBloomFilter:
    def test_trigrams(self):
        assert trigrams("abcd") == {"abc", "bcd"}
        assert trigrams("ab") == set()

    def test_membership(self):
        bloom = BloomFilter.build(["abc", "bcd"])
        assert bloom.might_contain("abc")
        assert not bloom.might_contain("zzz")

    def test_substring_check_sound(self):
        text = "ERROR write to file: /root/usr/admin/7.log"
        bloom = BloomFilter.build(trigrams(text))
        # Every actual substring must pass.
        for start in range(0, len(text) - 4):
            assert bloom.might_contain_text(text[start : start + 5])

    def test_substring_check_prunes(self):
        bloom = BloomFilter.build(trigrams("all systems nominal"))
        assert not bloom.might_contain_text("EXPLOSION")

    def test_short_fragments_pass(self):
        bloom = BloomFilter.build(["xyz"])
        assert bloom.might_contain_text("ab")
        assert bloom.might_contain_text("")

    def test_serialization(self):
        bloom = BloomFilter.build(trigrams("hello bloom world"))
        w = BinaryWriter()
        bloom.write(w)
        assert BloomFilter.read(BinaryReader(w.getvalue())) == bloom

    @settings(max_examples=30)
    @given(st.text(alphabet="abcdef 123", min_size=3, max_size=40))
    def test_never_lossy(self, text):
        bloom = BloomFilter.build(trigrams(text))
        for length in (3, 4, 6):
            for start in range(0, max(0, len(text) - length) + 1):
                fragment = text[start : start + length]
                if fragment and fragment in text:
                    assert bloom.might_contain_text(fragment)


class TestBloomShortLines:
    """Lines shorter than three characters produce no trigrams at all.

    The resulting filter is the MIN_BITS all-zero bloom, which must stay
    *sound*: it may (and does) prune every keyword of length ≥ 3, while
    shorter keywords — which trigram pruning cannot check — pass through
    to the exact match stages.
    """

    SHORT_LINES = ["a", "ab", "x", "yz", "q", "no"] * 40

    def test_empty_bloom_from_short_lines(self):
        grams = set()
        for line in self.SHORT_LINES:
            grams |= trigrams(line)
        assert grams == set()
        bloom = BloomFilter.build(grams)
        assert not bloom.might_contain_text("ERROR")  # sound prune
        assert bloom.might_contain_text("ab")  # too short to check

    @pytest.fixture(scope="class")
    def store(self):
        lg = LogGrep(config=BLOOM_CONFIG)
        lg.compress(self.SHORT_LINES)
        return lg

    def test_long_keyword_prunes_every_block(self, store):
        result = store.grep("ERROR")
        assert result.count == 0
        assert result.stats.blocks_pruned == len(store.store.names())
        assert result.stats.capsules_decompressed == 0

    def test_short_keyword_still_matches(self, store):
        for keyword in ("ab", "yz", "a"):
            assert store.grep(keyword).lines == grep_lines(
                keyword, self.SHORT_LINES
            )

    def test_round_trip_exact(self, store):
        assert store.decompress_all() == self.SHORT_LINES

    def test_mixed_block_keeps_long_lines_findable(self):
        """Short lines sharing a block with normal lines must not mask
        the normal lines' trigrams."""
        lines = ["a", "ERROR write failed", "ab", "all systems nominal"] * 30
        lg = LogGrep(config=BLOOM_CONFIG)
        lg.compress(lines)
        assert lg.grep("ERROR").lines == grep_lines("ERROR", lines)
        assert lg.grep("nominal").count == 30
        assert lg.decompress_all() == lines


class TestCommandFilter:
    BLOOM = BloomFilter.build(trigrams("ERROR write failed code=3"))

    def test_positive_literal_checked(self):
        assert command_might_match(self.BLOOM, parse_query("ERROR"))
        assert not command_might_match(self.BLOOM, parse_query("WARNING"))

    def test_disjunct_semantics(self):
        assert command_might_match(self.BLOOM, parse_query("WARNING or ERROR"))
        assert not command_might_match(self.BLOOM, parse_query("WARNING or PANIC"))

    def test_negated_terms_cannot_prune(self):
        assert command_might_match(self.BLOOM, parse_query("ERROR not MISSING"))
        assert command_might_match(self.BLOOM, parse_query("not MISSING"))

    def test_wildcard_literal_runs(self):
        assert command_might_match(self.BLOOM, parse_query("ERR*iled"))
        assert not command_might_match(self.BLOOM, parse_query("PAN*iled"))

    def test_ignore_case_passes(self):
        command = parse_query("warning", ignore_case=True)
        assert command_might_match(self.BLOOM, command)


class TestBloomIntegration:
    @pytest.fixture(scope="class")
    def corpus(self):
        return make_mixed_lines(900, seed=31)

    @pytest.fixture(scope="class")
    def store(self, corpus):
        lg = LogGrep(config=BLOOM_CONFIG)
        lg.compress(corpus)
        return lg

    def test_results_unchanged(self, store, corpus):
        for command in ["ERROR", "read AND bk.FF", "state: NOT SUC"]:
            assert store.grep(command).lines == grep_lines(command, corpus)

    def test_miss_prunes_blocks(self, store):
        result = store.grep("keyword_that_never_occurs")
        assert result.count == 0
        assert result.stats.blocks_pruned == len(store.store.names())
        assert result.stats.capsules_decompressed == 0

    def test_partial_prune(self, store, corpus):
        # ERR#16 codes are spread over blocks; some rare id occurs in few.
        rare = next(l for l in corpus if "ERR#16" in l)
        token = next(t for t in rare.split(" ") if "ERR#16" in t)
        result = store.grep(token)
        assert result.lines == grep_lines(token, corpus)

    def test_bloom_survives_roundtrip(self, store):
        from repro.capsule.box import CapsuleBox

        name = store.store.names()[0]
        data = store.store.get(name)
        assert CapsuleBox.open_bloom(BytesBlobSource(data)) is not None
        assert CapsuleBox.deserialize(data).bloom is not None

    def test_no_bloom_by_default(self, corpus):
        lg = LogGrep(config=LogGrepConfig(block_bytes=8 * 1024))
        lg.compress(corpus)
        from repro.capsule.box import CapsuleBox

        data = lg.store.get(lg.store.names()[0])
        assert CapsuleBox.open_bloom(BytesBlobSource(data)) is None
        result = lg.grep("keyword_that_never_occurs")
        assert result.stats.blocks_pruned == 0


class TestSession:
    def test_session_results_and_reuse(self):
        corpus = make_mixed_lines(600, seed=33)
        lg = LogGrep(config=LogGrepConfig(block_bytes=8 * 1024))
        lg.compress(corpus)
        with lg.open_session() as session:
            first = session.grep("ERROR")
            assert first.lines == grep_lines("ERROR", corpus)
            # Boxes are pinned: repeated queries skip deserialization.
            assert lg._box_cache
            refined = session.grep("ERROR AND code=3")
            assert refined.lines == grep_lines("ERROR AND code=3", corpus)
            assert session.queries_run == 2
        assert not lg._box_cache  # unpinned on close

    def test_session_count(self):
        corpus = make_mixed_lines(400, seed=34)
        lg = LogGrep(config=LogGrepConfig(block_bytes=8 * 1024))
        lg.compress(corpus)
        with lg.open_session() as session:
            assert session.count("ERROR") == len(grep_lines("ERROR", corpus))
