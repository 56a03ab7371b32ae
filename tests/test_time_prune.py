"""Tests for timestamp extraction, the prune sidecar's time ranges and
time-window block pruning."""

import calendar

import pytest

from repro.baselines.evalutil import grep_lines
from repro.blockstore.index import ArchiveIndex, BlockSummary
from repro.blockstore.remote import RemoteStore
from repro.blockstore.store import MemoryStore
from repro.capsule.box import CapsuleBox
from repro.cluster import ClusterLogGrep
from repro.common.timeparse import extract_timestamp, parse_time_arg
from repro.core.config import LogGrepConfig
from repro.core.loggrep import LogGrep
from repro.query.executor import summary_might_match
from repro.query.plan import build_plan
from tests.conftest import parsed_time_range

CONFIG = LogGrepConfig(block_bytes=4 * 1024)


def epoch(text):
    base = calendar.timegm((2024, 3, 1, 0, 0, 0, 0, 0, 0))
    h, m, s = (int(p) for p in text.split(":"))
    return base + h * 3600 + m * 60 + s


def timed_corpus(n=1200):
    """One line per second from 2024-03-01 00:00:00, mixed content."""
    lines = []
    for i in range(n):
        ts = f"2024-03-01 {i // 3600:02d}:{i // 60 % 60:02d}:{i % 60:02d}"
        if i % 9 == 0:
            lines.append(f"{ts} ERROR write to file failed code={i % 7}")
        else:
            lines.append(f"{ts} INFO req T{i} state: SUC#16{i % 100:02d}")
    return lines


class TestTimestampExtraction:
    def test_basic_formats(self):
        want = calendar.timegm((2024, 3, 1, 12, 30, 45, 0, 0, 0))
        assert extract_timestamp("2024-03-01 12:30:45 hello") == want
        assert extract_timestamp("2024-03-01T12:30:45 hello") == want
        assert extract_timestamp("2024-03-01 12:30:45.250 x") == want + 0.25

    def test_rejects_non_timestamps(self):
        assert extract_timestamp("ERROR no time here") is None
        assert extract_timestamp("2024-13-01 00:00:00 bad month") is None
        assert extract_timestamp("2024-02-40 00:00:00 bad day") is None
        assert extract_timestamp("") is None

    def test_time_range_of(self):
        lines = [
            "no timestamp",
            "2024-03-01 10:00:05 mid",
            "2024-03-01 09:00:00 early",
            "2024-03-01 11:30:00 late",
        ]
        low, high = parsed_time_range(lines)
        assert low == extract_timestamp(lines[2])
        assert high == extract_timestamp(lines[3])
        assert parsed_time_range(["a", "b"]) == (None, None)

    def test_parse_time_arg(self):
        assert parse_time_arg("1700000000") == 1700000000.0
        assert parse_time_arg("2024-03-01 10:00:00") == epoch("10:00:00")
        with pytest.raises(ValueError):
            parse_time_arg("yesterday")


class TestSidecarTimestamps:
    def roundtrip(self, index):
        return ArchiveIndex.deserialize(index.serialize())

    def make_index(self):
        lg = LogGrep(config=CONFIG)
        lg.compress(timed_corpus(400))
        index = ArchiveIndex()
        for name in lg.store.names():
            summary = lg.executor.source.index.get(name)
            assert summary is not None
            index.add(name, summary)
        return index

    def test_v2_roundtrips_time_range(self):
        index = self.make_index()
        restored = self.roundtrip(index)
        for name in index.blocks:
            original, copy = index.get(name), restored.get(name)
            assert original.min_ts is not None
            assert copy.min_ts == original.min_ts
            assert copy.max_ts == original.max_ts
            assert copy.max_ts >= copy.min_ts

    def test_in_time_range_semantics(self):
        def might_match(summary, from_time, to_time):
            plan = build_plan("x", from_time=from_time, to_time=to_time)
            return summary_might_match(summary, plan)

        summary = BlockSummary(
            block_id=0, first_line_id=0, num_lines=1, min_ts=100.0, max_ts=200.0
        )
        assert might_match(summary, 150.0, None)
        assert might_match(summary, None, 150.0)
        assert might_match(summary, 200.0, 300.0)  # touching edges overlap
        assert might_match(summary, 0.0, 100.0)
        assert might_match(summary, None, None)
        assert not might_match(summary, 200.5, None)
        assert not might_match(summary, None, 99.5)
        # Unknown range can never be pruned.
        unknown = BlockSummary(block_id=0, first_line_id=0, num_lines=1)
        assert might_match(unknown, 0.0, 1.0)


class TestTimeWindowPruning:
    @pytest.fixture(scope="class")
    def archive(self):
        store = RemoteStore()
        lg = LogGrep(store=store, config=CONFIG)
        lg.compress(timed_corpus())
        return store

    def test_out_of_window_blocks_cost_zero_reads(self, archive):
        fresh = LogGrep(store=archive, config=CONFIG)
        before = archive.requests
        result = fresh.grep("ERROR", from_time=epoch("12:00:00"))
        assert result.count == 0
        blocks = len(archive.names())
        assert result.stats.blocks_pruned == blocks
        # Only the sidecar load hit the store — no block data was read.
        assert archive.requests - before <= 2

    def test_window_prunes_most_blocks_but_keeps_matches(self, archive):
        fresh = LogGrep(store=archive, config=CONFIG)
        full = fresh.grep("ERROR")
        windowed = fresh.grep(
            "ERROR", from_time=epoch("00:05:00"), to_time=epoch("00:07:00")
        )
        assert windowed.stats.blocks_pruned > 0
        assert 0 < windowed.count < full.count
        # Block-granular pruning: every match inside the window survives.
        kept = set(windowed.lines)
        for line in full.lines:
            ts = extract_timestamp(line)
            if epoch("00:05:00") <= ts <= epoch("00:07:00"):
                assert line in kept

    def test_count_honors_window(self, archive):
        fresh = LogGrep(store=archive, config=CONFIG)
        assert fresh.count("ERROR", from_time=epoch("12:00:00")) == 0

    def test_cluster_window_matches_single_node(self):
        corpus = timed_corpus(800)
        single = LogGrep(config=CONFIG)
        single.compress(corpus)
        with ClusterLogGrep(num_nodes=3, replication=2, config=CONFIG) as c:
            c.compress(corpus)
            window = dict(
                from_time=epoch("00:03:00"), to_time=epoch("00:08:00")
            )
            assert c.grep("ERROR", **window).lines == single.grep(
                "ERROR", **window
            ).lines
            assert c.count("ERROR", **window) == single.count("ERROR", **window)


class TestAppendFromTwoHandles:
    def test_foreign_append_reloads_the_sidecar(self, monkeypatch):
        """A commit bumps nothing, so a handle learns of another handle's
        append from the names its index lacks: it reloads the sidecar,
        which has them with their time ranges, and opens no block."""
        corpus = timed_corpus(1200)
        store = MemoryStore()
        first = LogGrep(store=store, config=CONFIG)
        second = LogGrep(store=store, config=CONFIG)
        reads = []
        real_get, real_open = store.get, CapsuleBox.open
        monkeypatch.setattr(
            store, "get", lambda name: reads.append(name) or real_get(name)
        )
        monkeypatch.setattr(
            CapsuleBox,
            "open",
            classmethod(lambda cls, source: reads.append(source) or real_open(source)),
        )
        first.compress(corpus[:400])
        first_blocks = len(store.names())
        for handle, part in ((second, corpus[400:800]), (first, corpus[800:])):
            del reads[:]
            handle.compress(part)
            assert reads == []
        # 00:13:20 on: only blocks of the last append can hold a match.
        window = epoch("00:13:20")
        for handle in (first, second):
            for command in ("ERROR", "state: SUC#1642"):
                assert handle.grep(command).lines == grep_lines(command, corpus)
        result = second.grep("ERROR", from_time=window)
        assert result.stats.blocks_pruned >= first_blocks
        assert result.lines == [
            line for line in grep_lines("ERROR", corpus)
            if extract_timestamp(line) >= window
        ]
