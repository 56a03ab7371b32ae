"""Hot-tail query path: lines are queryable the moment append returns.

The invariants under test:

* a tail-inclusive reader sees every appended line immediately — the
  union ``sealed ∪ tail`` is exactly the appended stream, with no line
  duplicated or dropped across the seal boundary;
* tail-inclusive grep results are byte-for-byte identical to running
  the same grep after ``flush()`` (same lines, same line ids);
* the property holds for any append/seal interleaving (hypothesis) and
  under concurrent append from another thread;
* a commit only adds a block: the next count matches only what changed
  and reads nothing from the store, a foreign rewrite still answers
  exactly, and a stream never writes over another writer's block.
"""

from __future__ import annotations

import gc
import threading
import time
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conftest import make_mixed_lines
from repro.baselines.evalutil import grep_lines, line_matches
from repro.blockstore.block import LogBlock, block_name
from repro.blockstore.index import load_index
from repro.blockstore.store import ArchiveStore, MemoryStore
from repro.capsule.box import CapsuleBox
from repro.common.errors import CompressionError
from repro.core import compressor as compressor_module
from repro.core.compressor import compress_block
from repro.core import streaming as streaming_module
from repro.core.config import LogGrepConfig
from repro.core.lifecycle import LifecycleManager, Tier
from repro.core.loggrep import LogGrep
from repro.core.streaming import StreamingCompressor
from repro.obs.metrics import get_registry
from repro.obs.trace import tracing
from repro.query.engine import BlockEngine, text_rows
from repro.query.language import parse_query
from repro.query.plan import build_plan
from repro.staticparse.parser import BlockParser

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
    # Small blocks force many seals, so the tail is often a buffer that
    # has just reopened.
    return LogGrepConfig(block_bytes=512, **overrides)


#: The two accepted ``pipeline_depth`` arguments: 1, as the benchmark
#: passes it, and the default.  Both seal on the appending thread.
_PIPELINES = [
    pytest.param(1, id="depth1"),
    pytest.param(None, id="default"),
]


def _stream(depth):
    return StreamingCompressor(config=_tiny_config(), pipeline_depth=depth)


class TestImmediateVisibility:
    def test_line_visible_after_first_append(self):
        with StreamingCompressor(config=_tiny_config()) as stream:
            reader = stream.open_reader(tail=True)
            stream.append("EV 0 hello tail")
            result = reader.grep("hello")
            assert result.lines == ["EV 0 hello tail"]
            assert result.line_ids == [0]
            assert reader.total_lines() == 1

    def test_a_tail_count_reads_no_aux_blob(self, monkeypatch):
        # Only a listing that shows a rewrite's publish reads the sidecar:
        # opening a tail reader and counting after seals reads no aux blob.
        # Each block commits inside the append that seals it, so blocks
        # are in the store when ``extend`` returns.
        with StreamingCompressor(config=_tiny_config()) as stream:
            stream.extend(_event_lines(120, seed=2))
            assert stream.blocks > 1
            reads = []
            for method in ("get_aux", "aux_exists"):
                real = getattr(stream.store, method)
                monkeypatch.setattr(
                    stream.store,
                    method,
                    lambda name, real=real: reads.append(name) or real(name),
                )
            assert stream.open_reader(tail=True).count("EV") == 120
            assert reads == []

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
        # A grep scans the tail's text; an aggregate builds its box, and
        # the gauge times that build.
        gauge = get_registry().gauge("loggrep_ingest_visible_seconds", "")
        gauge.set(0.0)
        with StreamingCompressor(config=_tiny_config()) as stream:
            reader = stream.open_reader(tail=True)
            stream.extend(["EV 0 state: probe", "EV 1 state: other"])
            assert reader.grep("probe").count == 1
            assert gauge.value() == 0.0
            assert reader.count_by("state") == {"probe": 1, "other": 1}
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
        assert stream.blocks > 3 and stream.tail_snapshot().tail_names
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
    @pytest.mark.parametrize("depth", _PIPELINES)
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
    def test_any_interleaving_is_exact(self, depth, seed, ops):
        """For any append/flush interleaving, the tail-inclusive view is
        exactly the appended stream, and after the final flush it equals
        the sealed-only view byte for byte."""
        stream = _stream(depth)
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
    @pytest.mark.parametrize("depth", _PIPELINES)
    def test_no_duplicates_or_drops_under_concurrent_append(self, depth):
        """Queries racing a writer thread must always see an exact
        prefix of the stream: contiguous ids from 0, each line intact."""
        total = 400
        lines = [f"EV {i} concurrent payload {i % 13}" for i in range(total)]
        stream = _stream(depth)
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
        """Across many seals the tail is the append buffer alone: at most
        one tail name, whose lines with the sealed blocks' partition the
        appended stream, and every tail count and grep equals grep over
        the raw lines."""
        stream = StreamingCompressor(config=_tiny_config())
        lines = _event_lines(300, seed=2)
        try:
            for appended, line in enumerate(lines, 1):
                stream.append(line)
                snap = stream.tail_snapshot()
                assert len(snap.tail_names) <= 1
                assert list(snap.tail_names.values()) == (
                    [snap.block_id] if snap.lines else []
                )
                if appended % 9:
                    continue
                sealed_lines = sum(
                    stream.open_reader().executor.load_box(name).num_lines
                    for name in snap.sealed_names
                )
                assert snap.first_line_id == sealed_lines
                assert snap.lines == lines[sealed_lines:appended]
                reader = stream.open_reader(tail=True)
                for command in ("EV", "ERR", "gc NOT read"):
                    want = grep_lines(command, lines[:appended])
                    assert reader.count(command) == len(want), command
                    assert reader.grep(command).lines == want, command
            assert stream.blocks > 10
        finally:
            stream.close()

    def test_tail_box_built_on_demand(self):
        """The buffer's box is ``compress_block``'s, and the stream does
        not keep it."""
        stream = StreamingCompressor(config=_tiny_config())
        stream.extend(_event_lines(40, seed=4))
        snap = stream.tail_snapshot()
        assert stream.blocks and snap.lines
        (buffer_name,) = snap.tail_names
        buffer_box = stream._tail_box(buffer_name)
        buffer = LogBlock(snap.block_id, snap.first_line_id, snap.lines)
        assert buffer_box.first_line_id == snap.first_line_id
        assert buffer_box.serialize() == compress_block(buffer, stream.config).serialize()
        assert stream._tail_box(buffer_name) is not buffer_box
        stream.close()

    def test_closed_stream_rejects_append(self):
        stream = StreamingCompressor(config=_tiny_config())
        stream.close()
        with pytest.raises(RuntimeError):
            stream.append("EV too late")


class TestRunKeepsItsTailView:
    def test_later_snapshots_do_not_strand_a_running_count(self, monkeypatch):
        """A run reaches its tail blocks after later runs have taken any
        number of snapshots on the same reader: it still sees its own."""
        stream = StreamingCompressor(config=LogGrepConfig(block_bytes=1 << 20))
        stream.extend(f"EV {i} race payload" for i in range(50))
        reader = stream.open_reader(tail=True)
        source = reader.executor.source
        listed = source.names

        def names():
            mine = listed()
            for i in range(4):
                stream.append(f"other {i}")
                listed()
            return mine

        monkeypatch.setattr(source, "names", names)
        try:
            assert reader.count("EV") == 50
        finally:
            stream.close()


#: Tokens mix ASCII and non-ASCII letters whose case folding differs
#: between ``str.lower`` and ``re.IGNORECASE`` (``İ``, ``ı``, the Kelvin
#: sign); an empty token comes from a run of spaces.  A small alphabet
#: keeps hits frequent.
_tokens = st.text(alphabet="abAB:éÉİı\u212ak", max_size=3)
_tail_lines = st.lists(
    st.lists(_tokens, min_size=1, max_size=6).map(" ".join),
    min_size=1,
    max_size=40,
)
#: Keywords over the same letters, and dense wildcard ones: a wildcard
#: must stay inside one token.
_keywords = st.one_of(
    st.text(alphabet="abAB:éİK*?", max_size=3),
    st.text(alphabet="ab*?", min_size=2, max_size=4),
)
_searches = (
    st.lists(_keywords, min_size=1, max_size=3)
    .map(" ".join)
    .filter(lambda search: search.strip(" "))
)


@st.composite
def _commands(draw, depth=0):
    """A query command over the whole language: search strings of one or
    more keywords, wildcards, and/or/not and parentheses."""
    parts = [draw(_searches)]
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from(["and", "or", "not", "and not", "OR"]))
        operand = (
            f"( {draw(_commands(depth + 1))} )"
            if depth < 1 and draw(st.booleans())
            else draw(_searches)
        )
        parts += [op, operand]
    return " ".join(parts)


class TestTextKernel:
    @settings(max_examples=300, deadline=None)
    @given(lines=_tail_lines, command=_commands(), ignore_case=st.booleans())
    def test_rows_equal_the_line_oracle(self, lines, command, ignore_case):
        parsed = parse_query(command, ignore_case)
        hits = text_rows(build_plan(parsed), lines)
        rows = [row for group in hits.values() for row in group]
        assert rows == [
            i for i, line in enumerate(lines) if line_matches(parsed, line)
        ]

    @pytest.mark.parametrize("depth", _PIPELINES)
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        lines=_tail_lines,
        commands=st.lists(_commands(), min_size=1, max_size=4),
        ignore_case=st.booleans(),
    )
    def test_tail_equals_the_same_query_after_flush(
        self, depth, lines, commands, ignore_case
    ):
        stream = StreamingCompressor(
            config=LogGrepConfig(block_bytes=96), pipeline_depth=depth
        )
        try:
            stream.extend(lines)
            reader = stream.open_reader(tail=True)
            tail = [
                (reader.count(c, ignore_case), reader.grep(c, ignore_case))
                for c in commands
            ]
            stream.flush()
            sealed = stream.open_reader()
            for command, (count, grep) in zip(commands, tail):
                after = sealed.grep(command, ignore_case)
                want = grep_lines(command, lines, ignore_case)
                assert count == sealed.count(command, ignore_case) == len(want)
                assert grep.lines == after.lines == want
                assert grep.line_ids == after.line_ids
        finally:
            stream.close()


class TestTailCountCost:
    def test_counts_build_no_box(self, monkeypatch):
        """A tail count scans the buffer's text: it encodes and parses
        nothing, and still equals the count over the raw lines."""
        def forbid(name):
            def spy(*args, **kwargs):
                raise AssertionError(f"a tail count called {name}")

            return spy

        lines = _event_lines(300, seed=9)
        command = parse_query("ERR")
        counter = get_registry().get("loggrep_tail_lines_encoded_total")
        before = counter.value()
        with StreamingCompressor(config=_tiny_config()) as stream:
            for appended, line in enumerate(lines, 1):
                stream.append(line)
                if appended % 7:
                    continue
                with monkeypatch.context() as patch:
                    patch.setattr(streaming_module, "compress_block", forbid("compress_block"))
                    patch.setattr(BlockParser, "parse", forbid("BlockParser.parse"))
                    count = stream.open_reader(tail=True).count("ERR")
                assert count == sum(
                    line_matches(command, raw) for raw in lines[:appended]
                )
            assert stream.blocks >= 5
        assert counter.value() == before


def _oracle(command, lines):
    parsed = parse_query(command)
    return sum(line_matches(parsed, line) for line in lines)


class TestSharedQueryCache:
    """Every reader of a stream shares one Query Cache: a tail count
    matches only the boxes that changed since the last count, and every
    count still equals the count over the raw lines."""

    #: Two terms, so a later term is matched on the rows still alive.
    COMMAND = "EV AND ERR"

    @staticmethod
    def _spy_matches(monkeypatch):
        """``(block id, lines, term)`` of every Match the engine runs."""
        matched = []
        real = BlockEngine.search_string_rows

        def spy(engine, search, alive=None):
            matched.append(
                (engine.box.block_id, engine.box.num_lines, search.cache_key)
            )
            return real(engine, search, alive)

        monkeypatch.setattr(BlockEngine, "search_string_rows", spy)
        return matched

    def test_tail_blocks_are_scanned_not_matched(self, monkeypatch):
        matched = self._spy_matches(monkeypatch)
        lines = _event_lines(200, seed=12)
        stream = StreamingCompressor(config=_tiny_config())
        try:
            stream.extend(lines[:150])
            snap = stream.tail_snapshot()
            assert snap.lines and stream.blocks
            committed = set(range(stream.blocks))
            expected = _oracle(self.COMMAND, lines[:150])
            cache = stream._fragments
            assert stream.open_reader(tail=True).count(self.COMMAND) == expected
            # Only committed blocks go through the engine and the cache.
            assert {block_id for block_id, _, _ in matched} == committed
            lookups = cache.misses
            assert lookups and cache.hits == 0
            assert not any(
                str(key[1]).startswith("tail-") for key in cache._entries
            )

            # No append in between: nothing is matched again, and every
            # term the first count looked up is a cache hit.
            matched.clear()
            assert stream.open_reader(tail=True).count(self.COMMAND) == expected
            assert matched == []
            assert (cache.hits, cache.misses) == (lookups, lookups)

            # Appends that seal nothing change only the tail's text:
            # still nothing is matched.
            stream.extend(lines[150:152])
            after = stream.tail_snapshot()
            assert after.block_id == snap.block_id
            assert stream.blocks == len(committed)
            count = stream.open_reader(tail=True).count(self.COMMAND)
            assert count == _oracle(self.COMMAND, lines[:152])
            assert matched == []
            assert (cache.hits, cache.misses) == (2 * lookups, lookups)
        finally:
            stream.close()

    def test_counts_stay_exact_across_commits_and_bumps(self, monkeypatch):
        matched = self._spy_matches(monkeypatch)
        lines = _event_lines(400, seed=13)
        stream = StreamingCompressor(config=_tiny_config())
        fed = 0

        def feed(n):
            nonlocal fed
            stream.extend(lines[fed : fed + n])
            fed += n

        def check():
            for command in (self.COMMAND, "ERR", "EV NOT gc"):
                count = stream.open_reader(tail=True).count(command)
                assert count == _oracle(command, lines[:fed]), (command, fed)

        try:
            feed(30)
            check()
            check()
            committed = stream.blocks
            feed(150)  # seals and commits blocks between counts
            assert stream.blocks > committed
            check()
            stream.flush()
            check()
            feed(40)
            check()
            # A foreign warm demote rewrites every committed block under a
            # new name: those blocks are matched again, the buffer is
            # scanned as text, and the counts stay exact.
            assert stream.tail_snapshot().lines
            committed = set(range(stream.blocks))
            matched.clear()
            LifecycleManager(stream.store, stream.config).demote(Tier.WARM)
            check()
            assert {block_id for block_id, _, _ in matched} == committed
            stream.flush()
            check()
        finally:
            stream.close()

    def test_clearing_one_reader_clears_them_all(self):
        # Only committed blocks' rows enter the Query Cache (tail rows
        # never do), so the count must see committed blocks: each one
        # commits inside the append that seals it.
        with StreamingCompressor(config=_tiny_config()) as stream:
            stream.extend(_event_lines(30, seed=14))
            first, second = stream.open_reader(tail=True), stream.open_reader()
            assert first.fragments is second.fragments
            first.count("ERR")
            assert len(second.fragments)
            first.clear_query_cache()
            assert len(second.fragments) == 0


class TestTailBuildDoesNotClassify:
    def test_count_and_grep_without_classify(self, monkeypatch):
        """A tail count or grep scans the tail's text, so it encodes
        nothing and never classifies.  Sealing (inside ``append``) still
        does."""
        classified = []
        classify = compressor_module.classify

        def spy(*args, **kwargs):
            classified.append(1)
            return classify(*args, **kwargs)

        monkeypatch.setattr(compressor_module, "classify", spy)
        lines = _event_lines(120, seed=15)
        with StreamingCompressor(config=_tiny_config()) as stream:
            stream.extend(lines)
            snap = stream.tail_snapshot()
            assert classified and snap.lines
            classified.clear()
            reader = stream.open_reader(tail=True)
            with tracing() as tracer:
                assert reader.count("ERR") == _oracle("ERR", lines)
            assert reader.grep("EV").lines == lines
            assert classified == []
            query = next(root for root in tracer.roots if root.name == "query")
            assert query.find("classify") == query.find("encode") == []
            assert query.find("ingest.tail_build") == []
            scans = query.find("scan_text")
            assert sum(span.attrs["lines"] for span in scans) == len(snap.lines)


class TestPendingBoxAfterCommit:
    def test_box_built_after_its_commit_is_not_kept(self):
        """On an appended archive the stream's first block id is not 0: a
        tail box built from a snapshot taken before the buffer sealed
        still carries the buffer's line ids, and the stream does not keep
        it."""
        store = MemoryStore()
        config = LogGrepConfig(block_bytes=4096)
        # 64 bytes a line with its newline: 64 lines a block.
        lines = [f"EV {i:05d} ERR" + "." * 51 for i in range(64 * 14 + 5)]
        assert {len(line) for line in lines} == {63}
        with StreamingCompressor(store=store, config=config) as first:
            first.extend(lines[: 64 * 13])
        assert first.blocks == 13

        stream = StreamingCompressor(store=store, config=config)
        try:
            stream.extend(lines[64 * 13 : 64 * 14])
            snap = stream.tail_snapshot()
            (name,) = snap.tail_names
            assert name == "tail-000000000013.lgcb"
            stream.extend(lines[64 * 14 :])
            assert block_name(13) in store.names()
            box = stream._tail_box(name)
            assert (box.first_line_id, box.num_lines) == (64 * 13, 64)
            built = weakref.ref(box)
            del box
            gc.collect()
            assert built() is None
            assert stream.open_reader(tail=True).count("ERR") == len(lines)
        finally:
            stream.close()


def _spy_opens(monkeypatch):
    """Every ``CapsuleBox.open`` (a block read from the store)."""
    opened = []
    real = CapsuleBox.open

    def spy(cls, source):
        opened.append(source)
        return real(source)

    monkeypatch.setattr(CapsuleBox, "open", classmethod(spy))
    return opened


def _seal_one(stream, lines, fed):
    """Append from *lines*[fed:] until exactly one more block commits;
    the line that sealed it opens the buffer.  Returns the new *fed*."""
    committed = stream.blocks
    while stream.blocks == committed:
        stream.append(lines[fed])
        fed += 1
    assert stream.blocks == committed + 1
    return fed


class TestCommitAddsOnlyABlock:
    """A commit only adds a block: the first count after it matches
    only the block it added (served from the box the stream just built)
    and the buffer, and opens nothing from the store."""

    COMMANDS = ("EV AND ERR", "gc", "EV NOT read")

    def _warm(self, stream, lines, fed):
        for _ in range(2):
            for command in self.COMMANDS:
                count = stream.open_reader(tail=True).count(command)
                assert count == _oracle(command, lines[:fed])

    def test_first_count_after_a_seal(self, monkeypatch):
        lines = _event_lines(300, seed=21)
        stream = _stream(1)
        try:
            fed = 120
            stream.extend(lines[:fed])
            self._warm(stream, lines, fed)
            for _ in range(3):
                fed = _seal_one(stream, lines, fed)
                stream.append(lines[fed])
                fed += 1
                new_block = stream.blocks - 1
                matched = TestSharedQueryCache._spy_matches(monkeypatch)
                opened = _spy_opens(monkeypatch)
                for command in self.COMMANDS:
                    count = stream.open_reader(tail=True).count(command)
                    assert count == _oracle(command, lines[:fed])
                # The buffer is scanned as text, not matched.
                assert {block_id for block_id, _, _ in matched} == {new_block}
                assert opened == []
                monkeypatch.undo()
        finally:
            stream.close()

    def test_first_count_after_a_flush(self, monkeypatch):
        lines = _event_lines(300, seed=22)
        stream = _stream(1)
        try:
            fed = 150
            stream.extend(lines[:fed])
            stream.flush()
            self._warm(stream, lines, fed)
            for _ in range(3):
                # Under a block's worth, so the flush commits one block.
                stream.extend(lines[fed : fed + 5])
                fed += 5
                self._warm(stream, lines, fed)
                committed = stream.blocks
                stream.flush()
                assert stream.blocks == committed + 1
                matched = TestSharedQueryCache._spy_matches(monkeypatch)
                opened = _spy_opens(monkeypatch)
                for command in self.COMMANDS:
                    count = stream.open_reader(tail=True).count(command)
                    assert count == _oracle(command, lines[:fed])
                assert {block_id for block_id, _, _ in matched} == {
                    stream.blocks - 1
                }
                assert opened == []
                monkeypatch.undo()
        finally:
            stream.close()

    def test_stream_holds_one_committed_box(self):
        lines = _event_lines(200, seed=23)
        stream = _stream(1)
        try:
            fed = _seal_one(stream, lines, 0)
            name, box = stream._held
            assert name == block_name(stream.blocks - 1)
            previous = weakref.ref(box)
            del box
            for _ in range(3):
                fed = _seal_one(stream, lines, fed)
                assert stream.open_reader(tail=True).count("EV") == fed
                gc.collect()
                # The last commit's box replaced the one before it.
                assert previous() is None
                name, box = stream._held
                assert name == block_name(stream.blocks - 1)
                previous = weakref.ref(box)
                del box
        finally:
            stream.close()

    @pytest.mark.parametrize("tier", [Tier.WARM, Tier.COLD], ids=["warm", "cold"])
    def test_foreign_demote_between_counts(self, tier):
        """A rewrite the stream did not make: the rewritten blocks are
        served under their new names with the summaries the rewrite
        published, and every answer equals the raw lines."""
        # No upper case in the first blocks but one line of the second: a
        # cold merge moves it into a block whose summary must not be the
        # first block's.
        lines = [f"t{1000 + i} bk.{i % 256:02x}.{i % 20} read" for i in range(60)]
        lines[30] = "t1030 ERROR QQneedleQQ"
        lines += _event_lines(340, seed=24)
        stream = _stream(1)
        commands = ("QQneedleQQ", "read", "EV AND ERR", "gc", "EV NOT read")

        def check(reader, fed):
            for command in commands:
                want = grep_lines(command, lines[:fed])
                assert reader.count(command) == len(want), command
                assert reader.grep(command).lines == want, command
                fresh = stream.open_reader(tail=True)
                assert fresh.count(command) == len(want), command
                assert fresh.grep(command).lines == want, command

        try:
            stream.extend(lines[:150])
            assert stream.blocks > 4
            fed = _seal_one(stream, lines, 150)
            stream.extend(lines[fed : fed + 3])
            fed += 3
            held = stream.open_reader(tail=True)
            check(held, fed)
            assert stream._held is not None
            LifecycleManager(stream.store, stream.config).demote(tier)
            check(held, fed)
            for _ in range(2):
                fed = _seal_one(stream, lines, fed)
                check(held, fed)
            stream.flush()
            check(held, fed)
        finally:
            stream.close()
        archive = LogGrep(store=stream.store, config=stream.config)
        for command in commands:
            assert archive.grep(command).lines == grep_lines(command, lines[:fed])


    @pytest.mark.parametrize("tier", [Tier.WARM, Tier.COLD], ids=["warm", "cold"])
    def test_drain_after_a_foreign_demote_keeps_the_rewrite(self, tier):
        """No reader queries between a foreign demote and the stream's
        next save: the drain itself must fold in the rewriter's sidecar,
        or saving the stream's index would unpublish the rewrite."""
        lines = _event_lines(300, seed=25)
        stream = _stream(1)
        try:
            stream.extend(lines[:200])
            assert stream.blocks > 4
            LifecycleManager(stream.store, stream.config).demote(tier)
            stream.extend(lines[200:])
        finally:
            stream.close()
        # The saved sidecar lists exactly the live blocks: the rewrite's
        # and the stream's later commits.
        assert set(load_index(stream.store).blocks) == set(stream.store.names())
        archive = LogGrep(store=stream.store, config=stream.config)
        assert archive.total_lines() == len(lines)
        for command in ("EV", "ERR", "gc"):
            assert archive.grep(command).lines == grep_lines(command, lines)

    def test_fresh_handle_serves_unsaved_commits(self):
        """Blocks committed after the stream last saved the sidecar have
        ids above every id it lists: a fresh handle serves them."""
        lines = _event_lines(300, seed=26)
        stream = _stream(1)
        try:
            stream.extend(lines[:100])
            stream.flush()
            saved = set(load_index(stream.store).blocks)
            stream.extend(lines[100:])
            assert set(stream.store.names()) - saved
            sealed = len(lines) - len(stream.tail_snapshot().lines)
            archive = LogGrep(store=stream.store, config=stream.config)
            assert archive.grep("EV").lines == lines[:sealed]
            assert archive.count("ERR") == _oracle("ERR", lines[:sealed])
            # Only stored lines: the tail reader rebuilds no tail block.
            reader = stream.open_reader(tail=True)
            assert reader.decompress_all() == lines[:sealed]
        finally:
            stream.close()

    def test_new_stream_continues_after_unsaved_commits(self):
        """A stream that died before saving the sidecar left blocks it
        does not list: the next stream appends after them."""
        lines = _event_lines(300, seed=27)
        dead = _stream(1)
        dead.extend(lines[:100])
        dead.flush()
        dead.extend(lines[100:200])
        sealed = 200 - len(dead.tail_snapshot().lines)
        store = MemoryStore()
        store._blobs = dict(dead.store._blobs)
        store._aux = dict(dead.store._aux)
        dead.close()
        assert set(store.names()) - set(load_index(store).blocks)
        with StreamingCompressor(store=store, config=_tiny_config()) as stream:
            stream.extend(lines[sealed:])
        archive = LogGrep(store=store, config=_tiny_config())
        assert archive.total_lines() == len(lines)
        assert archive.grep("EV").lines == grep_lines("EV", lines)
        assert set(load_index(store).blocks) == set(store.names())


class TestStreamRefusesForeignBlocks:
    """A stream opened before another writer appended must not write over
    that writer's blocks: the commit raises and the store keeps them."""

    @pytest.mark.parametrize("depth", _PIPELINES)
    def test_commit_over_a_foreign_block_raises(self, tmp_path, depth):
        config = LogGrepConfig(block_bytes=4096)
        store = ArchiveStore(str(tmp_path))
        alpha = [f"EV {i:04d} alpha" for i in range(50)]
        beta = [f"EV {i:04d} beta payload {i % 17}" for i in range(200)]
        LogGrep(store=store, config=config).compress(alpha)
        assert len(store.names()) == 1
        stream = StreamingCompressor(
            store=store, config=config, pipeline_depth=depth
        )
        LogGrep(store=store, config=config).compress(beta)
        foreign = {name: store.get(name) for name in store.names()}
        assert len(foreign) == 3
        with pytest.raises(CompressionError, match=block_name(1)):
            try:
                stream.extend(f"EV {i:04d} gamma" for i in range(200))
            finally:
                stream.close()
        assert {name: store.get(name) for name in store.names()} == foreign
        archive = LogGrep(store=store, config=config)
        assert archive.total_lines() == len(alpha) + len(beta)
        for command in ("beta", "alpha", "EV AND payload"):
            assert archive.grep(command).lines == grep_lines(
                command, alpha + beta
            )
