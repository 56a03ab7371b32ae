"""Tests for streaming ingestion and the ``w/o real`` encoding ablation."""

import threading
from collections import Counter

import pytest

from repro import LogGrep
from repro.baselines.evalutil import grep_lines
from repro.blockstore.block import block_name
from repro.blockstore.store import MemoryStore
from repro.capsule.box import CapsuleBox
from repro.core.config import LogGrepConfig, ablated
from repro.core.streaming import StreamingCompressor
from tests.conftest import make_mixed_lines

CONFIG = LogGrepConfig(block_bytes=8 * 1024)


class TestStreamingCompressor:
    def test_stream_then_query(self):
        lines = make_mixed_lines(700, seed=3)
        with StreamingCompressor(config=CONFIG) as stream:
            for line in lines:
                stream.append(line)
            report = stream.flush()
            assert report.blocks > 1
            assert report.raw_bytes == sum(len(l) + 1 for l in lines)
            reader = stream.open_reader()
            assert reader.grep("ERROR").lines == grep_lines("ERROR", lines)
            assert reader.decompress_all() == lines

    def test_matches_batch_compression(self):
        """Streaming produces exactly the blocks batch compression would."""
        lines = make_mixed_lines(600, seed=9)
        batch = LogGrep(store=MemoryStore(), config=CONFIG)
        batch.compress(lines)

        store = MemoryStore()
        with StreamingCompressor(store=store, config=CONFIG) as stream:
            stream.extend(lines)
        assert store.names() == batch.store.names()
        for name in store.names():
            assert store.get(name) == batch.store.get(name)

    def test_incremental_flush(self):
        lines = make_mixed_lines(400, seed=4)
        stream = StreamingCompressor(config=CONFIG)
        stream.extend(lines[:200])
        stream.flush()
        reader = stream.open_reader()
        first = reader.grep("ERROR").count
        stream.extend(lines[200:])
        report = stream.close()
        assert report.blocks >= 1
        reader = stream.open_reader()
        assert reader.grep("ERROR").lines == grep_lines("ERROR", lines)
        assert reader.grep("ERROR").count >= first

    def test_flush_reports_are_cumulative(self):
        """flush() reports totals since construction, never double-counted:
        compressed_bytes always equals what the store actually holds."""
        lines = make_mixed_lines(600, seed=12)
        store = MemoryStore()
        stream = StreamingCompressor(store=store, config=CONFIG)
        stream.extend(lines[:300])
        first = stream.flush()
        assert first.compressed_bytes == store.total_bytes()
        assert first.raw_bytes == sum(len(l) + 1 for l in lines[:300])

        stream.extend(lines[300:])
        second = stream.flush()
        # Cumulative, not per-interval: the second report covers the whole
        # stream and grows only by the newly appended data.
        assert second.blocks >= first.blocks
        assert second.raw_bytes == sum(len(l) + 1 for l in lines)
        assert second.compressed_bytes == store.total_bytes()
        # Elapsed is wall-clock since construction, so it is monotone and
        # speed_mb_s reads as average throughput of the stream so far.
        assert second.elapsed >= first.elapsed > 0

        final = stream.close()
        assert final.blocks == second.blocks
        assert final.compressed_bytes == store.total_bytes()

    def test_append_after_close_rejected(self):
        stream = StreamingCompressor(config=CONFIG)
        stream.close()
        with pytest.raises(RuntimeError):
            stream.append("x")

    def test_depth_one_seals_on_the_appending_thread(self, monkeypatch):
        """The append that fills a block parses, encodes and commits it
        before it returns, and no thread is ever started."""
        started = []
        real_start = threading.Thread.start

        def spy_start(thread):
            started.append(thread)
            return real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy_start)
        store = MemoryStore()
        stream = StreamingCompressor(store=store, config=CONFIG, pipeline_depth=1)
        for line in make_mixed_lines(600, seed=4):
            stream.append(line)
            if stream.blocks:
                break
        assert stream.blocks == 1
        assert store.names() == [block_name(0)]
        assert started == []
        stream.close()
        assert started == []

    @pytest.mark.parametrize("depth", [None, 1])
    def test_failed_close_still_closes(self, depth):
        """A close whose flush fails re-raises, yet the stream is closed."""

        class FailingStore(MemoryStore):
            def put(self, name, data):
                raise OSError("store unavailable")

        threads = threading.active_count()
        stream = StreamingCompressor(
            store=FailingStore(), config=CONFIG, pipeline_depth=depth
        )
        # Less than one block: a seal would commit, and fail, in append.
        stream.extend(make_mixed_lines(40, seed=5))
        assert stream.blocks == 0
        with pytest.raises(OSError):
            stream.close()
        assert threading.active_count() == threads
        with pytest.raises(RuntimeError):
            stream.append("x")

    def test_pipeline_depth_validation(self):
        # Blocks seal on the appending thread: 1 is the only depth.
        for depth in (0, 2):
            with pytest.raises(ValueError):
                StreamingCompressor(pipeline_depth=depth)

    def test_empty_stream(self):
        with StreamingCompressor(config=CONFIG) as stream:
            report = stream.flush()
        assert report.blocks == 0
        assert report.raw_bytes == 0


class TestAblatedEncoding:
    def test_without_real_patterns_no_real_vectors(self):
        """``w/o real`` stores every would-be real vector as plain."""

        def vector_kinds(config):
            lg = LogGrep(config=config)
            lg.compress(make_mixed_lines(600, seed=7))
            return Counter(
                type(vector).__name__
                for name in lg.store.names()
                for group in CapsuleBox.deserialize(lg.store.get(name)).groups
                for vector in group.vectors
            )

        full = vector_kinds(CONFIG)
        without_real = vector_kinds(ablated("w/o real", CONFIG))
        assert full["RealEncodedVector"] > 0
        assert without_real["RealEncodedVector"] == 0
        assert without_real["PlainEncodedVector"] > full["PlainEncodedVector"]
