"""Short lines, a mixed corpus and refining sessions, end to end."""

import pytest

from repro import LogGrep, LogGrepConfig
from repro.baselines.evalutil import grep_lines
from tests.conftest import make_mixed_lines

CONFIG = LogGrepConfig(block_bytes=8 * 1024)


class TestShortLines:
    """Lines too short to hold most keywords: short keywords still reach
    the exact match stages, and the block round-trips."""

    SHORT_LINES = ["a", "ab", "x", "yz", "q", "no"] * 40

    @pytest.fixture(scope="class")
    def store(self):
        lg = LogGrep(config=CONFIG)
        lg.compress(self.SHORT_LINES)
        return lg

    def test_long_keyword_matches_nothing(self, store):
        result = store.grep("ERROR")
        assert result.count == 0
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
        the normal lines' character classes."""
        lines = ["a", "ERROR write failed", "ab", "all systems nominal"] * 30
        lg = LogGrep(config=CONFIG)
        lg.compress(lines)
        assert lg.grep("ERROR").lines == grep_lines("ERROR", lines)
        assert lg.grep("nominal").count == 30
        assert lg.decompress_all() == lines


class TestMixedCorpus:
    @pytest.fixture(scope="class")
    def corpus(self):
        return make_mixed_lines(900, seed=31)

    @pytest.fixture(scope="class")
    def store(self, corpus):
        lg = LogGrep(config=CONFIG)
        lg.compress(corpus)
        return lg

    def test_results_unchanged(self, store, corpus):
        for command in ["ERROR", "read AND bk.FF", "state: NOT SUC"]:
            assert store.grep(command).lines == grep_lines(command, corpus)

    def test_rare_token_matches(self, store, corpus):
        # ERR#16 codes are spread over blocks; some rare id occurs in few.
        rare = next(l for l in corpus if "ERR#16" in l)
        token = next(t for t in rare.split(" ") if "ERR#16" in t)
        result = store.grep(token)
        assert result.lines == grep_lines(token, corpus)


class TestSession:
    def test_session_results_and_reuse(self):
        corpus = make_mixed_lines(600, seed=33)
        lg = LogGrep(config=CONFIG)
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
        lg = LogGrep(config=CONFIG)
        lg.compress(corpus)
        with lg.open_session() as session:
            assert session.count("ERROR") == len(grep_lines("ERROR", corpus))
