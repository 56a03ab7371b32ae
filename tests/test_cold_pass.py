"""The fixed cost of a cold block pass: ranged reads through one OS
handle per box, and Match's vector stamp gate.

* A box opened from an on-disk store takes one handle on its block file
  and reads every range through it; the handle is closed when the box
  is dropped, so descriptors are bounded by the live boxes.
* A literal keyword that a vector's stamp (the union of its Capsule
  stamps and pattern constants) rules out is answered before a reader
  is built or the Locator is asked, with the counts a Locator rejection
  gives; the gate never changes a result, stamps on or off.
* A Real vector's outlier Capsule is inflated only when its stamp
  admits the fragment.
* Each distinct fragment's class mask is computed once, however many
  stamps and block summaries check it.
* A ranged store read is one metrics update, and the exported totals
  stay exact under concurrent readers.
"""

import builtins
import os
import random
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import LogGrep, LogGrepConfig
from repro.baselines.evalutil import grep_lines
from repro.blockstore.blobsource import StoreBlobSource
from repro.blockstore.store import ArchiveStore, MemoryStore
from repro.capsule.assembler import encode_vector
from repro.capsule.box import CapsuleBox, GroupBox, vector_stamp
from repro.capsule.stamp import CapsuleStamp
from repro.common import chartypes
from repro.common.chartypes import type_mask
from repro.common.errors import BlockMissingError, FormatError
from repro.obs import get_registry
from repro.obs.metrics import Counter, CounterGroup
from repro.query import vectors as vectors_module
from repro.query.modes import MatchMode
from repro.query.stats import QueryLedger
from repro.query.vectors import QuerySettings, RealVectorReader
from repro.staticparse.template import Template
from tests.conftest import make_mixed_lines

_RANGE_READS = get_registry().counter("loggrep_store_range_reads_total")
_RANGE_READ_BYTES = get_registry().counter("loggrep_store_range_read_bytes_total")

SMALL = 4 * 1024


def _disk_archive(tmp_path, lines, **overrides):
    root = str(tmp_path / "archive")
    config = LogGrepConfig(block_bytes=SMALL, **overrides)
    LogGrep(store=ArchiveStore(root), config=config).compress(lines)
    return root, config


# ----------------------------------------------------------------------
# store reads through one handle
# ----------------------------------------------------------------------
class TestHandleReads:
    def test_a_handle_reads_what_a_path_reads(self, tmp_path):
        store = ArchiveStore(str(tmp_path))
        blob = bytes(range(256)) * 4
        store.put("b", blob)
        handle = store.open_handle("b")
        try:
            assert store.size("b", handle) == store.size("b") == len(blob)
            before = (_RANGE_READS.value(), _RANGE_READ_BYTES.value())
            for offset, length in ((0, 16), (100, 300), (1000, 24), (7, 0)):
                via = store.get_range("b", offset, length, handle)
                assert via == store.get_range("b", offset, length)
                assert via == blob[offset : offset + length]
            # Both paths are counted as ranged reads alike.
            assert _RANGE_READS.value() - before[0] == 8
            assert _RANGE_READ_BYTES.value() - before[1] == 2 * (16 + 300 + 24)
            with pytest.raises(FormatError, match="past end"):
                store.get_range("b", 1020, 8, handle)
        finally:
            os.close(handle)

    def test_stores_without_files_have_no_handle(self):
        store = MemoryStore()
        store.put("b", b"0123456789")
        assert store.open_handle("b") is None
        source = StoreBlobSource(store, "b")
        assert source.size() == 10 and source.read(2, 3) == b"234"

    def test_a_vanished_block_is_a_typed_error(self, tmp_path):
        store = ArchiveStore(str(tmp_path))
        store.put("b", b"x")
        store.delete("b")
        with pytest.raises(BlockMissingError, match="'b'"):
            store.open_handle("b")
        with pytest.raises(BlockMissingError, match="'b'"):
            StoreBlobSource(store, "b").size()

    def test_threads_share_one_handle(self, tmp_path, monkeypatch):
        # More reader threads than cores race the source's first size()
        # and then read through its one handle at once: pread keeps no
        # shared offset, so every read returns its own range.
        store = ArchiveStore(str(tmp_path))
        blob = bytes(random.Random(2).randrange(256) for _ in range(1 << 14))
        store.put("b", blob)
        handles = []
        real = store.open_handle
        monkeypatch.setattr(
            store, "open_handle", lambda name: handles.append(name) or real(name)
        )
        source = StoreBlobSource(store, "b")
        wrong = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:

            def reader(seed):
                rng = random.Random(seed)
                for _ in range(300):
                    offset = rng.randrange(len(blob) - 64)
                    length = rng.randrange(1, 64)
                    if source.read(offset, length) != blob[offset : offset + length]:
                        wrong.append((offset, length))

            threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        assert handles == ["b"]

    def test_a_cold_grep_opens_each_block_file_once_per_box(
        self, tmp_path, monkeypatch
    ):
        lines = make_mixed_lines(1200)
        root, config = _disk_archive(tmp_path, lines)
        lg = LogGrep(store=ArchiveStore(root), config=config)
        blocks = lg.store.names()
        assert len(blocks) > 3
        opened = []

        def spy(real):
            def opening(path, *args, **kwargs):
                name = os.path.basename(os.fspath(path))
                if os.path.dirname(os.fspath(path)) == root and name in blocks:
                    opened.append(name)
                return real(path, *args, **kwargs)

            return opening

        monkeypatch.setattr(os, "open", spy(os.open))
        monkeypatch.setattr(builtins, "open", spy(builtins.open))
        reads = _RANGE_READS.value()
        # Hits in every block: each box is opened, prefetched and read.
        result = lg.grep("T1")
        assert result.lines == grep_lines("T1", lines)
        assert sorted(opened) == blocks
        assert _RANGE_READS.value() - reads > len(blocks)
        lg.unpin_blocks()
        lg.clear_query_cache()
        opened.clear()
        assert lg.count("ERROR") == len(grep_lines("ERROR", lines))
        assert sorted(set(opened)) == sorted(opened)

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_descriptors_are_bounded_by_live_boxes(self, tmp_path):
        def descriptors():
            return len(os.listdir("/proc/self/fd"))

        lines = make_mixed_lines(1200)
        root, config = _disk_archive(tmp_path, lines)
        lg = LogGrep(store=ArchiveStore(root), config=config)
        blocks = len(lg.store.names())
        expected = grep_lines("state: ERR", lines)
        assert lg.grep("state: ERR").lines == expected
        lg.unpin_blocks()
        baseline = descriptors()
        for _ in range(200):
            lg.clear_query_cache()
            assert len(lg.grep("state: ERR").lines) == len(expected)
            lg.unpin_blocks()
        assert descriptors() == baseline
        # A pinned box holds one handle until it is dropped.
        with lg.open_session():
            assert descriptors() == baseline + blocks
        assert descriptors() == baseline


# ----------------------------------------------------------------------
# the vector stamp gate
# ----------------------------------------------------------------------
def _built_readers(monkeypatch):
    """The vector of every reader Match builds."""
    built = []
    real = vectors_module.make_reader

    def tracking(encoded):
        built.append(encoded)
        return real(encoded)

    monkeypatch.setattr(vectors_module, "make_reader", tracking)
    return built


class TestVectorStampGate:
    LINES = [f"READ blk_{i * 7919 % 100000:05d} ok" for i in range(300)]

    def test_a_ruled_out_keyword_builds_no_reader(self, monkeypatch):
        built = _built_readers(monkeypatch)
        lg = LogGrep(config=LogGrepConfig(block_bytes=SMALL))
        lg.compress(self.LINES)
        # Every class of "blk_R" occurs in the block (G-Z in "READ"), so
        # the block is not pruned, but none of the blk_ vector's values
        # holds a G-Z: the gate answers before the Locator would.
        result = lg.grep("blk_R")
        assert result.lines == []
        assert built == []
        stats = result.stats
        assert stats.capsules_considered > 0
        assert stats.capsules_filtered == stats.capsules_considered
        assert stats.capsules_decompressed == 0

    def test_too_long_a_keyword_is_ruled_out(self, monkeypatch):
        built = _built_readers(monkeypatch)
        lg = LogGrep(config=LogGrepConfig(block_bytes=SMALL))
        lg.compress(self.LINES)
        assert lg.grep("blk_123456").lines == []
        assert built == []

    def test_counts_equal_a_locator_rejection(self, monkeypatch):
        lines = make_mixed_lines(800)
        commands = ["bk.ZZ", "state: Q", "T9x", "code=9999", "admin/zz", "@@q"]

        def stats():
            lg = LogGrep(config=LogGrepConfig(block_bytes=SMALL))
            lg.compress(lines)
            out = []
            for command in commands:
                result = lg.grep(command)
                assert result.lines == grep_lines(command, lines)
                out.append(result.stats.as_dict())
            return out

        gated = stats()
        # A stamp that admits everything turns the gate off: every search
        # then reaches its reader and the Locator.
        monkeypatch.setattr(
            vectors_module.BoxReaders,
            "stamp",
            lambda self, g, v: (0x3F, 1 << 30, 0),
        )
        assert stats() == gated

    @pytest.mark.parametrize("command", ["k_0", "blk_00", "AD blk_0", "_07919 o"])
    def test_a_keyword_spanning_constant_and_value_passes(self, command):
        # Its classes and length need the vector's "blk_" constant too.
        lg = LogGrep(config=LogGrepConfig(block_bytes=SMALL))
        lg.compress(self.LINES)
        result = lg.grep(command)
        assert result.lines == grep_lines(command, self.LINES)
        assert result.lines

    def test_skipped_without_stamps(self, monkeypatch):
        built = _built_readers(monkeypatch)
        lg = LogGrep(config=LogGrepConfig(block_bytes=SMALL, use_stamps=False))
        lg.compress(self.LINES)
        assert lg.grep("blk_R").lines == []
        assert built  # the w/o-stamp ablation searches every vector

    @pytest.mark.parametrize(
        "command, ignore_case",
        [("BLK_0", True), ("blk_0*", False), ("READ b?k", True), ("b?k_1", False)],
    )
    def test_skipped_for_regex_keywords(self, command, ignore_case):
        lg = LogGrep(config=LogGrepConfig(block_bytes=SMALL))
        lg.compress(self.LINES)
        result = lg.grep(command, ignore_case=ignore_case)
        assert result.lines == grep_lines(command, self.LINES, ignore_case)
        assert result.lines

    @pytest.mark.parametrize(
        "command",
        [
            "blk_R*",  # a literal run holds G-Z, which no blk_ value does
            "*k_0?Q",  # so does this one
            "bl?_1234??",  # 7 literal characters and 3 '?': longer than 9
        ],
    )
    def test_a_ruled_out_wildcard_builds_no_reader(self, monkeypatch, command):
        built = _built_readers(monkeypatch)
        lg = LogGrep(config=LogGrepConfig(block_bytes=SMALL))
        lg.compress(self.LINES)
        result = lg.grep(command)
        assert result.lines == grep_lines(command, self.LINES) == []
        assert built == []
        stats = result.stats
        assert stats.capsules_considered > 0
        assert stats.capsules_filtered == stats.capsules_considered
        assert stats.capsules_decompressed == 0

    def test_a_wildcard_within_the_stamp_is_searched(self, monkeypatch):
        built = _built_readers(monkeypatch)
        lg = LogGrep(config=LogGrepConfig(block_bytes=SMALL))
        lg.compress(self.LINES)
        result = lg.grep("bl?_1234?")
        assert result.lines == grep_lines("bl?_1234?", self.LINES)
        assert built

    def test_a_case_insensitive_wildcard_is_not_gated(self, monkeypatch):
        built = _built_readers(monkeypatch)
        lg = LogGrep(config=LogGrepConfig(block_bytes=SMALL))
        lg.compress(self.LINES)
        result = lg.grep("blk_R*", ignore_case=True)
        assert result.lines == grep_lines("blk_R*", self.LINES, True) == []
        assert built  # a-z under -i may be A-Z in the data

    def test_vector_stamp_covers_every_value(self):
        rng = random.Random(4)
        values = [f"id-{rng.randrange(10**5)}x{rng.choice('ab')}" for _ in range(300)]
        values[17] = "OUTLIER~value~longer~than~any"
        encoded = encode_vector(values)
        mask, max_len, owned = vector_stamp(encoded)
        assert all(type_mask(v) & ~mask == 0 for v in values)
        assert max(map(len, values)) <= max_len
        assert owned == RealVectorReader(encoded).num_capsules


# ----------------------------------------------------------------------
# an outlier Capsule obeys its stamp
# ----------------------------------------------------------------------
class TestOutlierStamp:
    @staticmethod
    def _reader():
        rng = random.Random(1)
        values = [f"blk_{rng.randrange(10**6)}" for _ in range(300)]
        for row in (5, 77, 201):
            values[row] = "zzqq"
        encoded = encode_vector(values)
        assert encoded.outlier_rows == [5, 77, 201]
        # Through a stored box, so every Capsule starts compressed.
        box = CapsuleBox.deserialize(
            _single_vector_box(encoded, len(values)).serialize()
        )
        vector = box.groups[0].vectors[0]
        return RealVectorReader(vector), vector, values

    @pytest.mark.parametrize("use_stamps", [True, False])
    def test_outliers_are_scanned_only_when_the_stamp_admits(self, use_stamps):
        reader, vector, values = self._reader()
        rows = reader.search("12", MatchMode.SUBSTRING, QuerySettings(use_stamps))
        assert rows.rows() == [i for i, v in enumerate(values) if "12" in v]
        # The outlier stamp (g-z only, 4 characters) rules out "12".
        assert vector.outlier_capsule.is_decompressed is not use_stamps

    def test_an_admitted_fragment_still_finds_outliers(self):
        reader, vector, values = self._reader()
        rows = reader.search("zq", MatchMode.SUBSTRING, QuerySettings())
        assert rows.rows() == [5, 77, 201]
        assert vector.outlier_capsule.is_decompressed


def _single_vector_box(encoded, num_rows):
    group = GroupBox(Template(0, ["at", None]), list(range(num_rows)), [encoded])
    return CapsuleBox(0, 0, num_rows, True, [group])


# ----------------------------------------------------------------------
# the gate never changes a result
# ----------------------------------------------------------------------
_MAKERS = [
    lambda r: f"req id={r.randrange(10**6)} took {r.randrange(1, 900)}ms",
    lambda r: f"req id=zz{r.randrange(9)} took soon",  # outliers of id=
    lambda r: f"blk_{r.randrange(10**9)} from 10.{r.randrange(4)}.{r.randrange(256)}.7",
    lambda r: f"state {r.choice(['SUC', 'ERR', 'WARN'])}#{r.randrange(16)} on node-{r.choice('abcdef')}",
    lambda r: f"user {r.choice(['alice', 'bob', 'Dave'])} path /var/{r.choice(['log', 'tmp'])}/{r.randrange(50)}.log",
    lambda r: f"gc pause {r.randrange(1, 4000)}ms heap={r.randrange(100)}%",
]

_OPERATOR_WORDS = {"and", "or", "not"}


@st.composite
def _keyword(draw, lines):
    line = draw(st.sampled_from(lines))
    start = draw(st.integers(min_value=0, max_value=len(line) - 1))
    length = draw(st.integers(min_value=1, max_value=14))
    piece = line[start : start + length]
    kind = draw(st.sampled_from(["substring", "substring", "longer", "foreign"]))
    if kind == "longer":
        # Longer than any value of the token it came from.
        piece = max(line.split(" "), key=len) * 3
    elif kind == "foreign":
        # One character of a class the corpus may not hold at that spot.
        at = draw(st.integers(min_value=0, max_value=len(piece) - 1))
        piece = piece[:at] + draw(st.sampled_from("QZ~^Ü9x")) + piece[at + 1 :]
    return piece


@st.composite
def _corpus_and_keywords(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=20, max_value=160))
    rng = random.Random(seed)
    lines = [_MAKERS[rng.randrange(len(_MAKERS))](rng) for _ in range(n)]
    keywords = draw(st.lists(_keyword(lines), min_size=4, max_size=10))
    return lines, keywords


class TestGateNeverChangesAResult:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_corpus_and_keywords())
    def test_grep_equals_the_raw_line_oracle(self, case):
        lines, keywords = case
        commands = [
            command
            for command in keywords
            if command.split()
            and not _OPERATOR_WORDS & {w.lower() for w in command.split()}
        ]
        for use_stamps in (True, False):
            lg = LogGrep(
                config=LogGrepConfig(block_bytes=2048, use_stamps=use_stamps)
            )
            lg.compress(lines)
            for command in commands:
                assert lg.grep(command).lines == grep_lines(command, lines), (
                    command,
                    use_stamps,
                )


# ----------------------------------------------------------------------
# one class mask per fragment
# ----------------------------------------------------------------------
#: Cold needles: a literal id piece, a path, a nominal code, a miss.
NEEDLES = ["bk.1F", "admin/37.log", "#1699", "code=7", "zzz_absent", "T1500"]


class TestFragmentMasks:
    def test_each_fragment_mask_is_computed_once(self, monkeypatch):
        lines = make_mixed_lines(900, seed=3)
        lg = LogGrep(config=LogGrepConfig(block_bytes=SMALL))
        lg.compress(lines)
        masked = []
        admitted = []
        real_mask = chartypes.type_mask
        real_admits = CapsuleStamp.admits

        def spy_mask(text):
            masked.append(text)
            return real_mask(text)

        def spy_admits(stamp, fragment):
            admitted.append(fragment)
            return real_admits(stamp, fragment)

        monkeypatch.setattr(chartypes, "type_mask", spy_mask)
        monkeypatch.setattr(CapsuleStamp, "admits", spy_admits)
        chartypes.fragment_mask.cache_clear()
        try:
            for _ in range(2):
                for command in NEEDLES:
                    lg.unpin_blocks()
                    lg.clear_query_cache()
                    assert lg.grep(command).lines == grep_lines(command, lines)
                if not masked:
                    break
                # Each distinct fragment is classified once, however many
                # stamps and blocks check it ...
                assert len(masked) == len(set(masked))
                assert len(admitted) > len(masked)
                masked.clear()
            # ... and the same greps again classify nothing.
            assert masked == []
        finally:
            chartypes.fragment_mask.cache_clear()


# ----------------------------------------------------------------------
# one metrics update per ranged read
# ----------------------------------------------------------------------
_READ_BYTES = get_registry().counter("loggrep_store_read_bytes_total")


class TestStoreReadMetrics:
    @pytest.mark.parametrize("kind", ["disk", "memory"])
    def test_reads_from_threads_advance_the_totals_exactly(self, tmp_path, kind):
        store = ArchiveStore(str(tmp_path)) if kind == "disk" else MemoryStore()
        blob = bytes(random.Random(4).randrange(256) for _ in range(1 << 13))
        store.put("b", blob)
        counters = (_RANGE_READS, _RANGE_READ_BYTES, _READ_BYTES)
        before = [counter.value() for counter in counters]
        threads, reads = 8, 250
        ledgers = [QueryLedger() for _ in range(threads)]
        start = threading.Barrier(threads)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:

            def reader(i):
                source = StoreBlobSource(store, "b")
                start.wait(timeout=60)
                with ledgers[i].operator("load_box"):
                    for k in range(reads):
                        source.read((i * 97 + k * 31) % 4096, 1 + (i + k) % 64)

            workers = [
                threading.Thread(target=reader, args=(i,)) for i in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
        want_bytes = sum(
            1 + (i + k) % 64 for i in range(threads) for k in range(reads)
        )
        deltas = [c.value() - b for c, b in zip(counters, before)]
        assert deltas == [threads * reads, want_bytes, want_bytes]
        totals = [ledger.totals() for ledger in ledgers]
        assert sum(t.range_reads for t in totals) == threads * reads
        assert sum(t.read_bytes for t in totals) == want_bytes

    def test_a_failed_read_counts_without_bytes(self, tmp_path):
        store = ArchiveStore(str(tmp_path))
        store.put("b", b"0123456789")
        counters = (_RANGE_READS, _RANGE_READ_BYTES, _READ_BYTES)
        before = [counter.value() for counter in counters]
        with pytest.raises(FormatError):
            store.get_range("b", 8, 4)
        with pytest.raises(BlockMissingError):
            store.get_range("gone", 0, 1)
        assert store.get_range("b", 2, 3) == b"234"
        deltas = [c.value() - b for c, b in zip(counters, before)]
        assert deltas == [3, 3, 3]

    @pytest.mark.parametrize("kind", ["disk", "memory"])
    def test_a_read_is_one_registry_update(self, tmp_path, kind, monkeypatch):
        store = ArchiveStore(str(tmp_path)) if kind == "disk" else MemoryStore()
        store.put("b", bytes(100))
        updates = []
        monkeypatch.setattr(
            Counter, "inc", lambda counter, *a, **k: updates.append(counter.name)
        )
        monkeypatch.setattr(
            CounterGroup, "inc", lambda group, *a: updates.append("group")
        )
        for offset in range(10):
            store.get_range("b", offset, 10)
        assert updates == ["group"] * 10
