"""Range-read archive I/O: box TOC, prune index and lazy capsules.

Covers the four legs of the lazy-I/O work:

* the LGCB container (TOC header, strict validation, old versions
  rejected),
* ``BlobSource``/``get_range`` plumbing (extent coalescing, aux),
* the persistent prune index (zero store reads for pruned blocks,
  rebuild-on-open for legacy archives, corruption tolerance),
* lazy capsule fetch (lazy ≡ raw-line oracle, byte accounting,
  sessions pinning through one BoxCache).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import LogGrep, LogGrepConfig
from repro.baselines.evalutil import grep_lines
from repro.blockstore.blobsource import (
    BytesBlobSource,
    StoreBlobSource,
    coalesce_extents,
)
from repro.blockstore.index import (
    INDEX_AUX_NAME,
    ArchiveIndex,
    BlockSummary,
    load_index,
    open_index,
    stored_live_names,
)
from repro.blockstore.block import block_name
from repro.blockstore.store import ArchiveStore, MemoryStore
from repro.capsule.box import BoxTOC, CapsuleBox, _capsules_of
from repro.common.binio import BinaryWriter
from repro.common.errors import FormatError
from repro.obs import get_registry
from repro.workloads import spec_by_name
from tests.conftest import make_mixed_lines
from tests.test_end_to_end_property import QUERIES, corpora

_READ_BYTES = get_registry().counter("loggrep_store_read_bytes_total")
_RANGE_READS = get_registry().counter("loggrep_store_range_reads_total")

#: One line a second from 2024-03-01 00:00:00 (epoch 1709251200).
PRUNABLE_LINES = [
    f"2024-03-01 00:{i // 60:02d}:{i % 60:02d} 5678 {i:06d}" for i in range(400)
]
#: A window that starts after the last of them.
LATER = {"from_time": 1709251200.0 + 400}

SMALL = 4 * 1024


def _all_capsules(box):
    return [
        capsule
        for group in box.groups
        for vector in group.vectors
        for capsule in _capsules_of(vector)
    ]


class _OpenedStore(MemoryStore):
    """A MemoryStore that remembers which blocks were range-read, and
    every (offset, length) it served."""

    def __init__(self):
        super().__init__()
        self.opened = set()
        self.ranges = []

    def get_range(self, name, offset, length):
        self.opened.add(name)
        self.ranges.append((offset, length))
        return super().get_range(name, offset, length)


def _compress_to(tmp_path, lines, **overrides):
    store = ArchiveStore(str(tmp_path / "archive"))
    lg = LogGrep(store=store, config=LogGrepConfig(block_bytes=SMALL, **overrides))
    lg.compress(lines)
    return store


def _reopen(store, prune_index=None, **overrides):
    return LogGrep(
        store=store,
        config=LogGrepConfig(block_bytes=SMALL, **overrides),
        prune_index=prune_index,
    )


class TestCoalesceExtents:
    def test_empty(self):
        assert coalesce_extents([]) == []

    def test_disjoint_kept_sorted(self):
        assert coalesce_extents([(30, 5), (0, 10)]) == [(0, 10), (30, 5)]

    def test_adjacent_merge(self):
        assert coalesce_extents([(0, 10), (10, 5)]) == [(0, 15)]

    def test_overlap_merge(self):
        assert coalesce_extents([(0, 10), (5, 20)]) == [(0, 25)]

    def test_gap_tolerance(self):
        assert coalesce_extents([(0, 10), (14, 6)], gap=4) == [(0, 20)]
        assert coalesce_extents([(0, 10), (15, 5)], gap=4) == [(0, 10), (15, 5)]

    def test_contained_extent(self):
        assert coalesce_extents([(0, 100), (20, 5)]) == [(0, 100)]


class TestBlobSource:
    def test_bytes_source(self):
        src = BytesBlobSource(b"hello world")
        assert src.size() == 11
        assert src.read(6, 5) == b"world"
        # In-memory buffers are already paid for: no I/O is accounted.
        assert src.bytes_read == 0

    def test_bytes_source_out_of_range(self):
        src = BytesBlobSource(b"abc")
        with pytest.raises(FormatError):
            src.read(1, 3)
        with pytest.raises(FormatError):
            src.read(4, 1)

    def test_store_source(self):
        store = MemoryStore()
        store.put("blob", b"0123456789")
        src = StoreBlobSource(store, "blob")
        assert src.size() == 10
        assert src.read(2, 4) == b"2345"
        assert src.bytes_read == 4
        with pytest.raises(FormatError):
            src.read(8, 5)


class TestStoreRanges:
    def test_get_range_matches_slice(self, tmp_path):
        store = ArchiveStore(str(tmp_path))
        store.put("b", bytes(range(256)))
        assert store.get_range("b", 10, 16) == bytes(range(10, 26))
        assert store.size("b") == 256

    def test_get_range_counters(self, tmp_path):
        store = ArchiveStore(str(tmp_path))
        store.put("b", b"x" * 100)
        reads, bytes_before = _RANGE_READS.value(), _READ_BYTES.value()
        store.get_range("b", 0, 40)
        assert _RANGE_READS.value() == reads + 1
        assert _READ_BYTES.value() == bytes_before + 40

    def test_get_range_validation(self, tmp_path):
        store = ArchiveStore(str(tmp_path))
        store.put("b", b"abcdef")
        with pytest.raises(ValueError):
            store.get_range("b", -1, 2)
        with pytest.raises(FormatError):
            store.get_range("b", 4, 10)

    def test_aux_blobs_hidden_from_accounting(self, tmp_path):
        store = ArchiveStore(str(tmp_path))
        store.put("block-0", b"payload")
        before = store.total_bytes()
        store.put_aux("index.lgix", b"sidecar bytes")
        assert store.aux_exists("index.lgix")
        assert store.get_aux("index.lgix") == b"sidecar bytes"
        assert store.names() == ["block-0"]
        assert store.total_bytes() == before
        store.delete_aux("index.lgix")
        assert not store.aux_exists("index.lgix")

    def test_aux_write_replaces_atomically(self, tmp_path, monkeypatch):
        """The sidecar is a rewrite's commit point: an aux write that
        fails before its rename leaves the old blob whole."""
        import os

        store = ArchiveStore(str(tmp_path))
        store.put_aux("index.lgix", b"old sidecar")
        store.put_aux("index.lgix", b"new sidecar")
        assert store.get_aux("index.lgix") == b"new sidecar"
        assert sorted(os.listdir(tmp_path)) == [".index.lgix"]

        def crash(src, dst):
            raise OSError("crash before the rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError):
            store.put_aux("index.lgix", b"torn")
        assert store.get_aux("index.lgix") == b"new sidecar"
        assert store.names() == []

    def test_memory_store_parity(self):
        store = MemoryStore()
        store.put("b", b"0123456789")
        assert store.get_range("b", 3, 4) == b"3456"
        assert store.size("b") == 10
        store.put_aux("x", b"aux")
        assert store.get_aux("x") == b"aux"
        assert store.names() == ["b"]
        with pytest.raises(FormatError):
            store.get_range("b", 9, 5)


def _one_box(lines):
    lg = LogGrep(config=LogGrepConfig())
    lg.compress(lines)
    (name,) = lg.store.names()
    return lg.store.get(name)


class TestBoxTOC:
    LINES = make_mixed_lines(120)

    def test_v3_header_layout(self):
        blob = _one_box(self.LINES)
        toc = BoxTOC.read(BytesBlobSource(blob))
        assert blob[:5] == b"LGCB\x04"
        # A 16-byte header; the metadata follows it directly.
        assert int.from_bytes(blob[6:8], "little") == toc.meta_off == 16
        assert int.from_bytes(blob[8:12], "little") == toc.meta_len
        assert int.from_bytes(blob[12:16], "little") == toc.payload_len
        assert toc.payload_off == toc.meta_off + toc.meta_len
        assert toc.payload_off + toc.payload_len == len(blob)

    def test_truncated_toc_raises(self):
        blob = _one_box(self.LINES)
        for cut in (0, 3, 8, 20, 31):
            with pytest.raises(FormatError):
                BoxTOC.read(BytesBlobSource(blob[:cut]))

    @pytest.mark.parametrize("flags", [0x01, 0x02, 0x80, 0xFF])
    def test_nonzero_flags_raise(self, flags):
        """The flags byte must be 0: no flag bit names a box format."""
        blob = bytearray(_one_box(self.LINES))
        assert blob[5] == 0
        blob[5] = flags
        for read in (
            lambda: BoxTOC.read(BytesBlobSource(bytes(blob))),
            lambda: CapsuleBox.deserialize(bytes(blob)),
        ):
            with pytest.raises(FormatError, match=f"flags 0x{flags:02x}"):
                read()

    def test_truncated_payload_raises(self):
        blob = _one_box(self.LINES)
        with pytest.raises(FormatError):
            CapsuleBox.deserialize(blob[:-10])

    def test_capsule_extent_out_of_range(self):
        # Shrink the payload section while keeping the TOC self-consistent:
        # the Capsule table's lengths now run past payload_len and must be
        # rejected at open time, before any payload fetch.
        blob = bytearray(_one_box(self.LINES))
        toc = BoxTOC.read(BytesBlobSource(bytes(blob)))
        cut = 16
        assert toc.payload_len > cut
        new_len = toc.payload_len - cut
        blob[12:16] = new_len.to_bytes(4, "little")
        with pytest.raises(FormatError, match="payload section"):
            CapsuleBox.deserialize(bytes(blob[: len(blob) - cut]))

    def test_corrupt_metadata_raises(self):
        blob = bytearray(_one_box(self.LINES))
        toc = BoxTOC.read(BytesBlobSource(bytes(blob)))
        blob[toc.meta_off] ^= 0xFF
        with pytest.raises(FormatError):
            CapsuleBox.deserialize(bytes(blob))

    def test_open_reads_header_and_metadata_only(self):
        """Two ranged reads per open: the header, then the metadata."""
        store = _OpenedStore()
        store.put("block", _one_box(self.LINES))
        box = CapsuleBox.open(StoreBlobSource(store, "block"))
        toc = BoxTOC.read(BytesBlobSource(store.get("block")))
        assert store.ranges == [(0, 16), (toc.meta_off, toc.meta_len)]
        assert box.groups


class TestZeroReadPruning:
    """Acceptance criterion: a fully-pruned query reads zero store bytes."""

    def test_pruned_query_reads_nothing(self, tmp_path):
        store = _compress_to(tmp_path, PRUNABLE_LINES)
        lg = _reopen(store)
        assert len(store.names()) > 1
        before = _READ_BYTES.value()
        result = lg.grep("5678", **LATER)
        assert result.count == 0
        assert result.stats.blocks_pruned == len(store.names())
        assert _READ_BYTES.value() == before, (
            "fully-pruned query must not touch the store"
        )

    def test_pruned_blocks_never_account_whole_blob(self, tmp_path):
        """A block the index has no summary of is not pruned: it is
        opened through ranged reads — never a whole-blob read."""
        store = _compress_to(tmp_path, PRUNABLE_LINES)
        # No sidecar to fold in: the handle's empty index stays empty.
        store.delete_aux(INDEX_AUX_NAME)
        lg = _reopen(store, prune_index=ArchiveIndex())
        whole_reads = get_registry().counter("loggrep_store_reads_total")
        reads_before = whole_reads.value()
        ranged_before = _RANGE_READS.value()
        result = lg.grep("ERRORWORD")
        assert result.count == 0
        assert result.stats.blocks_pruned == 0
        assert whole_reads.value() == reads_before, (
            "opening a box must never account a whole-blob read"
        )
        assert _RANGE_READS.value() > ranged_before

    def test_selective_query_reads_fraction(self):
        """Log A's Table-1 query (3 000 lines, 64 KiB blocks): ranged
        reads pull strictly fewer bytes than the whole size of the blocks
        the query opened — what eager whole-blob reads would cost (0.846
        of it here)."""
        spec = spec_by_name("Log A")
        lines = spec.generate(3000)
        store = _OpenedStore()
        lg = LogGrep(store=store, config=LogGrepConfig(block_bytes=64 * 1024))
        lg.compress(lines)
        store.opened.clear()
        before = _READ_BYTES.value()
        assert lg.grep(spec.query).lines == grep_lines(spec.query, lines)
        lazy_bytes = _READ_BYTES.value() - before
        eager_bytes = sum(store.size(name) for name in store.opened)
        assert 0 < lazy_bytes < eager_bytes


class TestPruneIndex:
    def test_sidecar_written_at_compress(self, tmp_path):
        store = _compress_to(tmp_path, make_mixed_lines(400))
        assert store.aux_exists(INDEX_AUX_NAME)
        index = load_index(store)
        assert index is not None
        assert len(index) == len(store.names())

    def test_serialize_round_trip(self, tmp_path):
        store = _compress_to(tmp_path, make_mixed_lines(400))
        index = load_index(store)
        again = ArchiveIndex.deserialize(index.serialize())
        assert again.blocks == index.blocks

    def test_legacy_archive_rebuilds_index(self, tmp_path):
        lines = make_mixed_lines(400)
        store = _compress_to(tmp_path, lines)
        store.delete_aux(INDEX_AUX_NAME)
        lg = _reopen(store)
        assert store.aux_exists(INDEX_AUX_NAME), "rebuild must re-persist"
        assert lg.grep("ERROR").lines == grep_lines("ERROR", lines)

    def test_rebuild_keeps_masks_and_time_ranges(self, tmp_path):
        """A rebuilt summary reads its mask off the skimmed boxes' stamps
        and its time range off each group's clock column: it equals the
        summary written at compress time."""
        store = _compress_to(tmp_path, spec_by_name("Log A").generate(600))
        sidecar = store.get_aux(INDEX_AUX_NAME)
        store.delete_aux(INDEX_AUX_NAME)
        index = open_index(store)
        assert sorted(index.blocks) == store.names()
        committed = ArchiveIndex.deserialize(sidecar).blocks
        assert load_index(store).blocks == committed
        assert all(s.min_ts is not None for s in committed.values())

    def test_corrupt_sidecar_tolerated(self, tmp_path):
        lines = make_mixed_lines(400)
        store = _compress_to(tmp_path, lines)
        store.put_aux(INDEX_AUX_NAME, b"not an index at all")
        lg = _reopen(store)
        assert lg.grep("ERROR").lines == grep_lines("ERROR", lines)

    def test_bad_magic_rejected(self):
        with pytest.raises(FormatError):
            ArchiveIndex.deserialize(b"XXXX\x01")

    def test_summary_from_box_matches_lines(self):
        lines = make_mixed_lines(200)
        lg = LogGrep(config=LogGrepConfig())
        lg.compress(lines)
        (name,) = lg.store.names()
        summary = BlockSummary.from_box(
            CapsuleBox.deserialize(lg.store.get(name))
        )
        assert summary.num_lines == len(lines)

    def test_index_off_still_correct(self, tmp_path):
        """Blocks absent from the index (as tail blocks are) take the
        no-summary branch and still grep right."""
        lines = make_mixed_lines(400)
        store = _compress_to(tmp_path, lines)
        store.delete_aux(INDEX_AUX_NAME)  # no sidecar to fold in
        lg = _reopen(store, prune_index=ArchiveIndex())
        assert lg.grep("ERROR").lines == grep_lines("ERROR", lines)


def _as_v1(blob):
    """The sections of a stored box re-framed in the retired v1 container
    (``MAGIC | 1 | bloom_len u32 | meta_len u32 | bloom | meta | payload``)
    with an empty bloom section."""
    toc = BoxTOC.read(BytesBlobSource(blob))
    return (
        b"LGCB\x01"
        + bytes(4)
        + toc.meta_len.to_bytes(4, "little")
        + blob[toc.meta_off :]
    )


def _as_v2(blob):
    """The sections of a stored box re-framed in the retired v2 container:
    a 32-byte table of contents and a one-byte bloom section."""
    toc = BoxTOC.read(BytesBlobSource(blob))
    meta_off = 33
    fields = (32, 1, meta_off, toc.meta_len, meta_off + toc.meta_len, toc.payload_len)
    return (
        b"LGCB\x02\x00"
        + (32).to_bytes(2, "little")
        + b"".join(value.to_bytes(4, "little") for value in fields)
        + b"\x00"
        + blob[toc.meta_off :]
    )


#: A full charset mask, as the retired LGIX v2 and v3 entries carried.
_FULL_MASK = 0x3F


def _as_old_lgix(index, version, has_bloom=0):
    """*index* in the LGIX v2 or v3 layout.  Each v3 entry carries a
    charset-mask byte after its line ids; a v2 entry also carries the
    ``has_bloom`` byte and a per-vector summary list (group, mask,
    longest value, rows) between that mask and its time range."""
    writer = BinaryWriter()
    writer.write_varint(len(index.blocks))
    for name in sorted(index.blocks):
        summary = index.blocks[name]
        writer.write_str(name)
        for value in (summary.block_id, summary.first_line_id, summary.num_lines):
            writer.write_varint(value)
        writer.write_u8(_FULL_MASK)
        if version == 2:
            writer.write_u8(has_bloom)
            writer.write_varint(2)
            for group in range(2):
                writer.write_varint(group)
                writer.write_u8(_FULL_MASK)
                writer.write_varint(300)
                writer.write_varint(summary.num_lines)
        if summary.min_ts is None:
            writer.write_u8(0)
        else:
            writer.write_u8(1)
            writer.write_varint(round(summary.min_ts * 1000))
            writer.write_varint(round(summary.max_ts * 1000))
    return b"LGIX" + bytes([version]) + writer.getvalue()


class TestOldFormatsRejected:
    """LGCB v1, v2 and v3 are typed errors.  An LGIX v1, v2 or v3 sidecar
    is unreadable and rebuilt as the committed v4: a rebuild keeps the
    time ranges and the live set."""

    #: 13 bytes: magic, version 1, bloom_len u32 = 0, meta_len u32 = 0.
    V1_HEADER = b"LGCB\x01" + bytes(8)

    @pytest.mark.parametrize("whole_box", [False, True])
    def test_v1_box_raises_naming_both_versions(self, whole_box):
        v1 = _as_v1(_one_box(make_mixed_lines(120))) if whole_box else self.V1_HEADER
        for read in (
            lambda: CapsuleBox.open(BytesBlobSource(v1)),
            lambda: CapsuleBox.deserialize(v1),
        ):
            with pytest.raises(FormatError) as info:
                read()
            assert "version 1" in str(info.value)
            assert "version 4" in str(info.value)

    def test_v3_box_raises_naming_both_versions(self):
        # v3 had v4's 16-byte header; its metadata had no directory.
        v3 = bytearray(_one_box(make_mixed_lines(120)))
        v3[4] = 3
        with pytest.raises(FormatError) as info:
            CapsuleBox.deserialize(bytes(v3))
        assert "version 3" in str(info.value)
        assert "version 4" in str(info.value)

    def test_v2_box_raises_naming_both_versions(self):
        v2 = _as_v2(_one_box(make_mixed_lines(120)))
        with pytest.raises(FormatError) as info:
            CapsuleBox.deserialize(v2)
        assert "version 2" in str(info.value)
        assert "version 4" in str(info.value)

    def test_verify_reports_v1_box(self, tmp_path, capsys):
        from repro.cli import main

        store = _compress_to(tmp_path, make_mixed_lines(400))
        victim = store.names()[0]
        store.put(victim, _as_v1(store.get(victim)))
        assert main(["verify", "-a", store.root]) == 1
        out = capsys.readouterr().out
        (line,) = [ln for ln in out.splitlines() if ln.startswith(victim)]
        assert "version 1" in line and "version 4" in line
        assert f"{len(store.names()) - 1}/{len(store.names())}" in out

    @pytest.mark.parametrize("flags", [0x01, 0x40])
    def test_verify_reports_flagged_box(self, tmp_path, capsys, flags):
        from repro.cli import main

        store = _compress_to(tmp_path, make_mixed_lines(400))
        victim = store.names()[-1]
        blob = bytearray(store.get(victim))
        blob[5] = flags
        store.put(victim, bytes(blob))
        assert main(["verify", "-a", store.root]) == 1
        out = capsys.readouterr().out
        (line,) = [ln for ln in out.splitlines() if ln.startswith(victim)]
        assert f"unknown CapsuleBox flags 0x{flags:02x}" in line
        assert f"{len(store.names()) - 1}/{len(store.names())}" in out

    def test_v1_sidecar_rebuilt_as_v4(self, tmp_path):
        spec = spec_by_name("Log A")
        lines = spec.generate(600)
        store = _compress_to(tmp_path, lines)
        sidecar = store.get_aux(INDEX_AUX_NAME)
        store.put_aux(INDEX_AUX_NAME, sidecar[:4] + b"\x01" + sidecar[5:])
        with pytest.raises(FormatError, match="version 1"):
            ArchiveIndex.deserialize(store.get_aux(INDEX_AUX_NAME))
        lg = _reopen(store)
        assert lg.grep(spec.query).lines == grep_lines(spec.query, lines)
        assert sidecar[:5] == store.get_aux(INDEX_AUX_NAME)[:5] == b"LGIX\x04"
        assert sorted(load_index(store).blocks) == store.names()

    def test_bloom_sidecar_rebuilt(self, tmp_path):
        """A v2 sidecar (here with ``has_bloom`` set) is unreadable, so
        the archive rebuilds it from the blocks, as the committed v4."""
        lines = make_mixed_lines(400)
        store = _compress_to(tmp_path, lines)
        sidecar = store.get_aux(INDEX_AUX_NAME)
        store.put_aux(INDEX_AUX_NAME, _as_old_lgix(load_index(store), 2, has_bloom=1))
        with pytest.raises(FormatError, match="version 2"):
            ArchiveIndex.deserialize(store.get_aux(INDEX_AUX_NAME))
        lg = _reopen(store)
        assert lg.grep("ERROR").lines == grep_lines("ERROR", lines)
        assert store.get_aux(INDEX_AUX_NAME) == sidecar

    def test_v2_sidecar_keeps_time_ranges_and_live_set(self, tmp_path):
        self._check_rebuild_keeps_time_ranges_and_live_set(tmp_path, 2)

    def test_v3_sidecar_keeps_time_ranges_and_live_set(self, tmp_path):
        self._check_rebuild_keeps_time_ranges_and_live_set(tmp_path, 3)

    @staticmethod
    def _check_rebuild_keeps_time_ranges_and_live_set(tmp_path, version):
        """An old sidecar is rebuilt from the blocks as ``LGIX\x04``,
        equal to the committed one: its time ranges come back from the
        boxes' clock columns, and a rewrite's unpublished output it did
        not list stays hidden, because a rebuild keeps each line id
        once."""
        spec = spec_by_name("Log A")
        lines = spec.generate(600)
        store = _compress_to(tmp_path, lines)
        sidecar = store.get_aux(INDEX_AUX_NAME)
        index = load_index(store)
        assert all(s.min_ts is not None for s in index.blocks.values())
        names = store.names()
        store.put(block_name(0, epoch=1), store.get(names[0]))
        old = _as_old_lgix(index, version)
        store.put_aux(INDEX_AUX_NAME, old)
        with pytest.raises(FormatError, match=f"version {version}"):
            ArchiveIndex.deserialize(old)
        lg = _reopen(store)
        assert lg.grep(spec.query).lines == grep_lines(spec.query, lines)
        assert store.get_aux(INDEX_AUX_NAME) == sidecar
        assert stored_live_names(store) == names
        more = spec.generate(100)
        lg.compress(more)
        stored = store.get_aux(INDEX_AUX_NAME)
        assert stored[:5] == b"LGIX\x04"
        again = ArchiveIndex.deserialize(stored)
        assert {name: again.blocks[name] for name in names} == index.blocks
        assert block_name(0, epoch=1) not in again


class TestLazyCapsules:
    def test_lazy_open_defers_payload(self):
        blob = _one_box(make_mixed_lines(150))
        box = CapsuleBox.open(BytesBlobSource(blob, "<box>"))
        capsules = _all_capsules(box)
        assert capsules and not any(c.is_fetched for c in capsules)
        # Stats never force a fetch.
        assert box.payload_bytes() > 0
        assert not any(c.is_fetched for c in capsules)

    def test_prefetch_fetches_all(self):
        blob = _one_box(make_mixed_lines(150))
        store = MemoryStore()
        store.put("block", blob)
        src = StoreBlobSource(store, "block")
        box = CapsuleBox.open(src)
        fetched = box.prefetch()
        assert fetched > 0
        assert all(c.is_fetched for c in _all_capsules(box))
        assert box == CapsuleBox.deserialize(blob)

    def test_prefetch_noop_for_eager_boxes(self):
        blob = _one_box(make_mixed_lines(150))
        box = CapsuleBox.deserialize(blob)
        assert box.prefetch() == 0

    def test_lazy_round_trip_exact(self, tmp_path):
        lines = make_mixed_lines(600)
        store = _compress_to(tmp_path, lines)
        assert _reopen(store).decompress_all() == lines

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        corpora(),
        st.sampled_from(QUERIES),
        st.sampled_from(["default", "w/o fixed", "w/o stamp"]),
        st.booleans(),
    )
    def test_lazy_equals_oracle(self, lines, command, layout, ignore_case):
        """Lazy ranged I/O is invisible to results, for every layout."""
        overrides = {"block_bytes": 2048}
        if layout == "w/o fixed":
            overrides["use_padding"] = False
        elif layout == "w/o stamp":
            overrides["use_stamps"] = False
        lazy = LogGrep(config=LogGrepConfig(**overrides))
        lazy.compress(lines)
        expected = grep_lines(command, lines, ignore_case=ignore_case)
        assert lazy.grep(command, ignore_case=ignore_case).lines == expected
        assert lazy.count(command) == len(grep_lines(command, lines))


class TestPinSharesBoxCache:
    def test_pin_goes_through_executor_cache(self, tmp_path):
        store = _compress_to(tmp_path, make_mixed_lines(500))
        lg = _reopen(store)
        with lg.open_session():
            cache = lg._executor.source.box_cache
            assert len(cache) == len(store.names())
            for name in store.names():
                assert lg.executor.load_box(name) is cache.get(name)

    def test_session_queries_hit_pin(self, tmp_path):
        lines = make_mixed_lines(500)
        store = _compress_to(tmp_path, lines)
        lg = _reopen(store)
        with lg.open_session() as session:
            hits_counter = get_registry().counter("loggrep_box_cache_hits_total")
            before = hits_counter.value()
            assert session.grep("ERROR").lines == grep_lines("ERROR", lines)
            assert hits_counter.value() > before
        assert len(lg._executor.source.box_cache) == 0
