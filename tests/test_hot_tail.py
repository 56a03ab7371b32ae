"""Hot-tail query path: lines are queryable the moment append returns.

The invariants under test:

* a tail-inclusive reader sees every appended line immediately — the
  union ``sealed ∪ tail`` is exactly the appended stream, with no line
  duplicated or dropped across the seal boundary;
* tail-inclusive grep results are byte-for-byte identical to running
  the same grep after ``flush()`` (same lines, same line ids);
* the property holds for any append/seal interleaving (hypothesis) and
  under concurrent append from another thread.
"""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conftest import make_mixed_lines
from repro.core.config import LogGrepConfig
from repro.core.streaming import StreamingCompressor
from repro.obs.metrics import get_registry

# Every generated line contains "EV", so grep("EV") is a full-stream
# scan whose hits must be exactly the appended prefix.
def _event_lines(n, seed=0):
    import random

    rng = random.Random(seed)
    out = []
    for i in range(n):
        kind = rng.randrange(3)
        if kind == 0:
            out.append(f"EV {i} read bk.{rng.randrange(256):02X}")
        elif kind == 1:
            out.append(f"EV {i} state: {'ERR' if rng.randrange(4) == 0 else 'SUC'}#16{rng.randrange(100):02d}")
        else:
            out.append(f"EV {i} gc pause {rng.randrange(1, 500)}ms")
    return out


def _tiny_config(**overrides):
    # Small blocks force many seals, so the tail straddles pending
    # scheduler blocks and the append buffer constantly.
    return LogGrepConfig(block_bytes=512, **overrides)


class TestImmediateVisibility:
    def test_line_visible_after_first_append(self):
        with StreamingCompressor(config=_tiny_config()) as stream:
            reader = stream.open_reader(tail=True)
            stream.append("EV 0 hello tail")
            result = reader.grep("hello")
            assert result.lines == ["EV 0 hello tail"]
            assert result.line_ids == [0]
            assert reader.total_lines() == 1

    def test_every_prefix_is_complete(self):
        lines = _event_lines(120, seed=1)
        with StreamingCompressor(config=_tiny_config()) as stream:
            reader = stream.open_reader(tail=True)
            for i, line in enumerate(lines):
                stream.append(line)
                if i % 17 == 0:
                    result = reader.grep("EV")
                    assert result.lines == lines[: i + 1]
                    assert result.line_ids == list(range(i + 1))

    def test_sealed_only_reader_lags(self):
        # The default reader still shows only committed blocks — the
        # tail is an explicit opt-in.
        with StreamingCompressor(config=_tiny_config()) as stream:
            stream.append("EV 0 solo")
            sealed = stream.open_reader()
            tail = stream.open_reader(tail=True)
            assert sealed.grep("solo").count == 0
            assert tail.grep("solo").count == 1

    def test_visible_seconds_gauge_set(self):
        gauge = get_registry().gauge("loggrep_ingest_visible_seconds", "")
        with StreamingCompressor(config=_tiny_config()) as stream:
            reader = stream.open_reader(tail=True)
            stream.append("EV 0 gauge probe")
            assert reader.grep("probe").count == 1
            assert gauge.value() > 0.0


class TestSealBoundaryEquivalence:
    def test_tail_grep_equals_post_flush_grep(self):
        lines = make_mixed_lines(400, seed=7)
        stream = StreamingCompressor(config=_tiny_config())
        reader = stream.open_reader(tail=True)
        stream.extend(lines)
        before = reader.grep("read")
        before_err = reader.grep("state: ERR")
        stream.flush()
        after = stream.open_reader().grep("read")
        after_err = stream.open_reader().grep("state: ERR")
        assert before.lines == after.lines
        assert before.line_ids == after.line_ids
        assert before_err.lines == after_err.lines
        assert before_err.line_ids == after_err.line_ids
        stream.close()

    def test_tail_reader_still_correct_after_flush(self):
        lines = _event_lines(60, seed=3)
        with StreamingCompressor(config=_tiny_config()) as stream:
            reader = stream.open_reader(tail=True)
            stream.extend(lines)
            stream.flush()
            result = reader.grep("EV")
            assert result.lines == lines
            # More appends after the flush are visible again.
            stream.append("EV 60 post-flush line")
            assert reader.grep("EV").count == 61

    def test_aggregates_cover_tail(self):
        lines = make_mixed_lines(300, seed=11)
        stream = StreamingCompressor(config=_tiny_config())
        reader = stream.open_reader(tail=True)
        stream.extend(lines)
        tail_counts = reader.count_by("state")
        tail_total = reader.total_lines()
        stream.flush()
        sealed = stream.open_reader()
        assert tail_counts == sealed.count_by("state")
        assert tail_total == sealed.total_lines()
        stream.close()

    def test_count_matches_grep_over_tail(self):
        lines = _event_lines(100, seed=5)
        with StreamingCompressor(config=_tiny_config()) as stream:
            reader = stream.open_reader(tail=True)
            stream.extend(lines)
            assert reader.count("EV") == reader.grep("EV").count == 100


class TestInterleavingProperty:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        ops=st.lists(
            st.one_of(
                st.integers(min_value=1, max_value=25),  # append a run
                st.just("flush"),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_any_interleaving_is_exact(self, seed, ops):
        """For any append/flush interleaving, the tail-inclusive view is
        exactly the appended stream, and after the final flush it equals
        the sealed-only view byte for byte."""
        stream = StreamingCompressor(config=_tiny_config())
        reader = stream.open_reader(tail=True)
        appended = []
        counter = 0
        try:
            for op in ops:
                if op == "flush":
                    stream.flush()
                else:
                    for _ in range(op):
                        line = f"EV {counter} item {(seed + counter) % 97}"
                        stream.append(line)
                        appended.append(line)
                        counter += 1
                result = reader.grep("EV")
                assert result.lines == appended
                assert result.line_ids == list(range(len(appended)))
            stream.flush()
            sealed_only = stream.open_reader().grep("EV")
            with_tail = reader.grep("EV")
            assert sealed_only.lines == with_tail.lines == appended
            assert sealed_only.line_ids == with_tail.line_ids
        finally:
            stream.close()


class TestConcurrentAppend:
    def test_no_duplicates_or_drops_under_concurrent_append(self):
        """Queries racing a writer thread must always see an exact
        prefix of the stream: contiguous ids from 0, each line intact."""
        total = 400
        lines = [f"EV {i} concurrent payload {i % 13}" for i in range(total)]
        stream = StreamingCompressor(config=_tiny_config())
        reader = stream.open_reader(tail=True)
        errors = []
        done = threading.Event()

        def writer():
            try:
                for line in lines:
                    stream.append(line)
            finally:
                done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            observed = 0
            deadline = time.monotonic() + 60.0
            while not done.is_set() or observed < total:
                if time.monotonic() > deadline:
                    errors.append(f"timed out at n={observed}/{total}")
                    break
                result = reader.grep("EV")
                n = result.count
                if result.line_ids != list(range(n)):
                    errors.append(f"non-contiguous ids at n={n}")
                    break
                if result.lines != lines[:n]:
                    errors.append(f"content mismatch at n={n}")
                    break
                if n < observed:
                    errors.append(f"went backwards: {observed} -> {n}")
                    break
                observed = n
                if done.is_set() and observed >= total:
                    break
        finally:
            thread.join()
            stream.close()
        assert not errors, errors
        assert observed == total


class TestTailInternals:
    def test_snapshot_partition_is_exact(self):
        stream = StreamingCompressor(config=_tiny_config())
        lines = _event_lines(80, seed=2)
        stream.extend(lines)
        snap = stream.tail_snapshot()
        # Sealed blocks + tail lines partition the appended stream.
        sealed_lines = sum(
            stream.open_reader().executor.load_box(name).num_lines
            for name in snap.sealed_names
        )
        assert sealed_lines + len(snap.lines) == len(lines)
        assert snap.first_line_id == sealed_lines
        stream.close()

    def test_tail_box_cached_per_version(self):
        stream = StreamingCompressor(config=_tiny_config())
        stream.append("EV 0 cache me")
        snap = stream.tail_snapshot()
        box1 = stream._tail_box(snap)
        assert stream._tail_box(snap) is box1
        stream.append("EV 1 new version")
        snap2 = stream.tail_snapshot()
        assert snap2.version != snap.version
        assert stream._tail_box(snap2) is not box1
        stream.close()

    def test_closed_stream_rejects_append(self):
        stream = StreamingCompressor(config=_tiny_config())
        stream.close()
        with pytest.raises(RuntimeError):
            stream.append("EV too late")
