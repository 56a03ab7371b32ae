"""End-to-end tests of the LogGrep facade: compress → grep → reconstruct."""

import pytest

from repro import ABLATIONS, LogGrep, LogGrepConfig, ablated, sp_config
from repro.baselines.evalutil import grep_lines
from repro.blockstore.store import ArchiveStore
from tests.conftest import make_mixed_lines

QUERIES = [
    "ERROR",
    "state: ERR",
    "ERR#1623",
    "read AND bk.FF",
    "state: NOT SUC",
    "ERROR OR read",
    "bk.F?.1* AND read",
    "write to file: AND code=3",
]


@pytest.fixture(scope="module")
def corpus():
    return make_mixed_lines(900)


@pytest.fixture(scope="module")
def store(corpus):
    lg = LogGrep(config=LogGrepConfig(block_bytes=8 * 1024))
    lg.compress(corpus)
    return lg


class TestRoundTrip:
    def test_decompress_all_exact(self, store, corpus):
        assert store.decompress_all() == corpus

    def test_multiple_blocks_created(self, store):
        assert len(store.store.names()) > 1

    def test_compression_report(self, corpus):
        lg = LogGrep()
        report = lg.compress(corpus)
        assert report.blocks >= 1
        assert report.ratio > 1.0
        assert report.raw_bytes == sum(len(l) + 1 for l in corpus)
        assert lg.storage_bytes() == report.compressed_bytes

    def test_incremental_compress(self, corpus):
        lg = LogGrep(config=LogGrepConfig(block_bytes=8 * 1024))
        lg.compress(corpus[:400])
        lg.compress(corpus[400:])
        assert lg.decompress_all() == corpus


class TestNonAsciiValues:
    """A nominal dictionary region is strided in bytes, so its width must
    be the widest value's UTF-8 length (it used to be its character
    count, and one accented value aborted the whole ingest)."""

    LINES = [
        # nominal (state), real (id, user) and outlier (irregular user) values
        f"svc state={'naïve-é' if i % 3 else 'plain'} id={i} "
        + ("user=ünïque" if i % 41 == 0 else f"user=ü{i * 7919 % 1000}ser")
        for i in range(600)
    ]

    def test_nominal_vector_encodes(self):
        from repro.capsule.assembler import encode_vector
        from repro.runtime.classify import VectorKind

        encoded = encode_vector(["naïve-é", "plain"] * 100, kind=VectorKind.NOMINAL)
        assert sorted(dp.width for dp in encoded.dict_patterns) == [5, 9]

    def test_compress_grep_round_trip(self, tmp_path):
        from repro.capsule.box import CapsuleBox

        archive = ArchiveStore(str(tmp_path / "arch"))
        lg = LogGrep(store=archive, config=LogGrepConfig(block_bytes=8 * 1024))
        lg.compress(self.LINES)
        assert lg.decompress_all() == self.LINES
        for command in ("naïve-é", "state=plain", "ünïque", "naïve-é AND user=ü7ser"):
            assert lg.grep(command).lines == grep_lines(command, self.LINES)
        assert lg.grep("naïve-è").lines == []
        for name in archive.names():  # what `loggrep verify` checks
            assert CapsuleBox.deserialize(archive.get(name)).verify() == []

    def test_ascii_widths_unchanged(self):
        # In ASCII the byte width is the character width it always was.
        from repro.runtime.merge import extract_nominal

        encoding = extract_nominal(["SUC#16", "ERR#4", "SUCCESS#1", "x", "a-b"] * 3)
        slot = 0
        for dp in encoding.patterns:
            region = encoding.dict_values[slot : slot + dp.count]
            slot += dp.count
            assert dp.width == max(map(len, region))


class TestGrep:
    @pytest.mark.parametrize("command", QUERIES)
    def test_matches_reference(self, store, corpus, command):
        result = store.grep(command)
        assert result.lines == grep_lines(command, corpus)

    def test_results_in_global_order(self, store, corpus):
        result = store.grep("read")
        assert result.line_ids == sorted(result.line_ids)
        for line_id, text in zip(result.line_ids, result.lines):
            assert corpus[line_id] == text

    def test_stats_populated(self, store):
        store.clear_query_cache()
        result = store.grep("ERR#1623")
        assert result.stats.blocks_visited == len(store.store.names())
        assert result.stats.entries_matched == result.count
        assert result.elapsed > 0

    def test_empty_result(self, store):
        assert store.grep("absent_keyword_xyz").count == 0

    def test_query_cache_hit(self, store):
        store.clear_query_cache()
        store.grep("state: ERR")
        second = store.grep("state: ERR")
        assert second.stats.cache_hits > 0

    def test_cache_composes_across_commands(self, store, corpus):
        store.clear_query_cache()
        store.grep("ERROR")
        refined = store.grep("ERROR AND code=3")
        assert refined.stats.cache_hits > 0
        assert refined.lines == grep_lines("ERROR AND code=3", corpus)


class TestAblations:
    """Every ablated configuration must stay *correct* — the §6.3 versions
    trade performance only."""

    @pytest.mark.parametrize("name", ABLATIONS)
    @pytest.mark.parametrize("command", ["ERROR", "read AND bk.FF", "state: NOT SUC"])
    def test_ablated_results_identical(self, corpus, name, command):
        lg = LogGrep(config=ablated(name, LogGrepConfig(block_bytes=16 * 1024)))
        lg.compress(corpus)
        assert lg.grep(command).lines == grep_lines(command, corpus)

    @pytest.mark.parametrize("name", ABLATIONS)
    def test_ablated_roundtrip(self, corpus, name):
        lg = LogGrep(config=ablated(name, LogGrepConfig(block_bytes=16 * 1024)))
        lg.compress(corpus)
        assert lg.decompress_all() == corpus

    def test_sp_config(self, corpus):
        lg = LogGrep(config=sp_config(LogGrepConfig(block_bytes=16 * 1024)))
        lg.compress(corpus)
        assert lg.decompress_all() == corpus
        assert lg.grep("ERROR").lines == grep_lines("ERROR", corpus)

    def test_unknown_ablation(self):
        with pytest.raises(ValueError):
            ablated("w/o everything")


class TestPersistence:
    def test_filesystem_store_roundtrip(self, corpus, tmp_path):
        store = ArchiveStore(str(tmp_path / "archive"))
        lg = LogGrep(store=store, config=LogGrepConfig(block_bytes=16 * 1024))
        lg.compress(corpus)

        # A fresh instance over the same directory sees the data.
        lg2 = LogGrep(store=ArchiveStore(str(tmp_path / "archive")))
        assert lg2.grep("ERROR").lines == grep_lines("ERROR", corpus)

    def test_pin_blocks_in_memory(self, corpus):
        lg = LogGrep(config=LogGrepConfig(block_bytes=16 * 1024))
        lg.compress(corpus)
        lg.pin_blocks_in_memory()
        assert lg.grep("ERROR").lines == grep_lines("ERROR", corpus)
