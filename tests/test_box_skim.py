"""Tests for the two-phase box open (``capsule/box.py``).

``CapsuleBox.open`` reads the metadata's header, group-id column,
templates, the Capsule table's raw fields and the directory — one entry
per vector record, from which it takes each record's extent and vector
stamp — and reads no record: a vector's objects are built from its
record on first use.  An opened box must answer exactly as a fully
decoded one; a corrupt record must be a :class:`FormatError` at open or
at its first build; a build is published once, however many threads
race for it; and the build count is observable (a registry counter and
the ``load_box`` operator of EXPLAIN ANALYZE).
"""

import pathlib
import random
import sys
import threading
import time
import zlib

import pytest

from repro import LogGrep, LogGrepConfig
from repro.baselines.evalutil import grep_lines
from repro.blockstore.blobsource import BytesBlobSource
from repro.blockstore.block import LogBlock
from repro.capsule import box as box_module
from repro.capsule.box import BoxTOC, CapsuleBox, GroupBox, vector_stamp
from repro.common.errors import FormatError
from repro.core.compressor import compress_block
from repro.core.reconstructor import BlockReconstructor
from repro.obs.metrics import get_registry
from repro.query.language import Keyword
from repro.workloads.queries import MISS_KEYWORD
from tests.conftest import make_mixed_lines
from tests.test_box_decoder import _box as every_kind_box
from tests.test_box_decoder import _build_all

GOLDEN = pathlib.Path(__file__).parent / "golden" / "box_v4.lgcb"
BUILT = get_registry().counter("loggrep_box_vectors_built_total")


def _meta_of(blob: bytes) -> bytes:
    toc = BoxTOC.read(BytesBlobSource(blob))
    return zlib.decompress(blob[toc.meta_off : toc.meta_off + toc.meta_len])


def _with_meta(blob: bytes, meta: bytes) -> bytes:
    """*blob* with its inflated metadata replaced by *meta*, recompressed
    and with the header's metadata length patched to match."""
    toc = BoxTOC.read(BytesBlobSource(blob))
    packed = zlib.compress(meta, 6)
    header = bytearray(blob[: toc.meta_off])
    header[8:12] = len(packed).to_bytes(4, "little")
    return bytes(header) + packed + blob[toc.payload_off :]


def _built(box: CapsuleBox) -> int:
    """Vectors of *box* built so far (its groups share one skim)."""
    return len(box.groups[0].vectors._skim.built)


@pytest.fixture(scope="module")
def mixed_blob():
    lines = make_mixed_lines(900, seed=23)
    return compress_block(LogBlock(4, 50, lines), LogGrepConfig()).serialize(), lines


class TestSkim:
    def test_open_builds_no_vector(self, mixed_blob):
        blob, _ = mixed_blob
        before = BUILT.value()
        box = CapsuleBox.deserialize(blob)
        assert sum(len(group.vectors) for group in box.groups) > 5
        assert _built(box) == 0
        assert BUILT.value() == before

    @pytest.mark.parametrize("which", ["mixed", "golden", "outliers"])
    def test_skim_stamps_are_the_built_vectors_stamps(self, mixed_blob, which):
        blob = {
            "mixed": lambda: mixed_blob[0],
            "golden": GOLDEN.read_bytes,
            # A real vector with outliers, a nominal and a plain one.
            "outliers": lambda: every_kind_box().serialize(),
        }[which]()
        box = CapsuleBox.deserialize(blob)
        skimmed = [list(group.stamps) for group in box.groups]
        assert skimmed == [
            [vector_stamp(vector) for vector in group.vectors]
            for group in box.groups
        ]

    def test_open_decodes_no_pattern(self, mixed_blob, monkeypatch):
        def refuse(*args):
            raise AssertionError("a pattern was decoded")

        monkeypatch.setattr(box_module, "_pattern_at", refuse)
        box = CapsuleBox.deserialize(mixed_blob[0])
        for group in box.groups:
            assert len(group.stamps) == len(group.vectors)
            for var_idx in range(len(group.vectors)):
                group.vector_tag(var_idx)
        with pytest.raises(AssertionError, match="a pattern was decoded"):
            _build_all(box)

    @pytest.mark.parametrize("which", ["mixed", "outliers"])
    def test_patterns_are_read_without_a_build(self, mixed_blob, which):
        blob = mixed_blob[0] if which == "mixed" else every_kind_box().serialize()
        box = CapsuleBox.deserialize(blob)
        read = [
            [group.patterns(k) for k in range(len(group.vectors))]
            for group in box.groups
        ]
        assert _built(box) == 0
        built = CapsuleBox.deserialize(blob)
        want = [
            [GroupBox(g.template, g.line_ids, list(g.vectors)).patterns(k)
             for k in range(len(g.vectors))]
            for g in built.groups
        ]
        assert read == want and any(p for group in read for p in group)

    def test_stamps_never_build(self, mixed_blob):
        box = CapsuleBox.deserialize(mixed_blob[0])
        for group in box.groups:
            assert len(group.stamps) == len(group.vectors)
        assert _built(box) == 0

    def test_build_order_does_not_change_the_box(self, mixed_blob):
        blob, lines = mixed_blob
        box = CapsuleBox.deserialize(blob)
        order = [
            (g, v) for g, group in enumerate(box.groups)
            for v in range(len(group.vectors))
        ]
        random.Random(5).shuffle(order)
        for g, v in order:
            box.groups[g].vectors[v]
        assert box.serialize() == blob
        assert BlockReconstructor(box).all_lines() == lines

    def test_verify_builds_every_vector(self, mixed_blob):
        box = CapsuleBox.deserialize(mixed_blob[0])
        before = BUILT.value()
        assert box.verify() == []
        assert BUILT.value() - before == sum(len(g.vectors) for g in box.groups)

    def test_each_vector_is_built_once(self, mixed_blob):
        box = CapsuleBox.deserialize(mixed_blob[0])
        group = max(box.groups, key=lambda group: len(group.vectors))
        assert len(group.vectors) > 2
        before = BUILT.value()
        first = group.vectors[0]
        assert group.vectors[0] is first
        assert group.vectors[-1] is group.vectors[len(group.vectors) - 1]
        assert BUILT.value() - before == 2
        assert list(group.vectors)[0] is first
        assert group.vectors[1:] == list(group.vectors)[1:]
        assert BUILT.value() - before == len(group.vectors)
        with pytest.raises(IndexError):
            group.vectors[len(group.vectors)]

    def test_racing_builds_publish_one_object(self, mixed_blob, monkeypatch):
        box = CapsuleBox.deserialize(mixed_blob[0])
        group = next(group for group in box.groups if group.vectors)
        real = box_module._Skim._build
        barrier = threading.Barrier(2)

        def slow_build(skim, k):
            made = real(skim, k)
            barrier.wait(timeout=5)  # both threads have built their own
            time.sleep(0.01)
            return made

        monkeypatch.setattr(box_module._Skim, "_build", slow_build)
        before = BUILT.value()
        got = []
        threads = [
            threading.Thread(target=lambda: got.append(group.vectors[0]))
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(got) == 2 and got[0] is got[1]
        assert BUILT.value() - before == 1

    def test_many_threads_share_every_build(self, mixed_blob):
        box = CapsuleBox.deserialize(mixed_blob[0])
        records = sum(len(group.vectors) for group in box.groups)
        before = BUILT.value()
        seen = []
        barrier = threading.Barrier(8)

        def walk(seed):
            order = list(range(len(box.groups)))
            random.Random(seed).shuffle(order)
            barrier.wait(timeout=5)
            seen.append(sorted(id(v) for g in order for v in box.groups[g].vectors))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=walk, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8 and all(ids == seen[0] for ids in seen)
        assert BUILT.value() - before == records


class TestCorruptRecords:
    """A flipped or missing byte of a golden box's inflated metadata is
    a FormatError at open or at the first build, or is harmless; never
    another exception.  (Stored metadata is zlib'd with a checksum; the
    metadata here is re-deflated after the damage, so the decoder sees
    it.)"""

    def test_every_byte_flip(self):
        blob = GOLDEN.read_bytes()
        meta = _meta_of(blob)
        for pos in range(len(meta)):
            for bits in (0x01, 0x80, 0xFF):
                damaged = bytearray(meta)
                damaged[pos] ^= bits
                try:
                    box = CapsuleBox.deserialize(_with_meta(blob, bytes(damaged)))
                    _build_all(box)
                except FormatError:
                    pass

    def test_every_truncation(self):
        blob = GOLDEN.read_bytes()
        meta = _meta_of(blob)
        for cut in range(len(meta)):
            with pytest.raises(FormatError):
                CapsuleBox.deserialize(_with_meta(blob, meta[:cut]))

    def test_bad_utf8_in_a_dictionary_pattern_fails_at_first_build(self):
        # The skim reads a nominal vector's dictionary patterns for their
        # extent only; their constants are decoded when the vector is built.
        values = ["ERR#404"] * 60 + ["SUCC"] * 80 + ["ERR#501"] * 60
        lines = [f"status {value}" for value in values]
        blob = compress_block(LogBlock(0, 0, lines), LogGrepConfig()).serialize()
        meta = _meta_of(blob)
        start = meta.index(b"ERR#")
        damaged = meta[:start] + b"\xff" + meta[start + 1 :]
        box = CapsuleBox.deserialize(_with_meta(blob, damaged))
        # `loggrep verify` reports a ReproError raised by verify().
        with pytest.raises(FormatError, match="corrupt CapsuleBox metadata"):
            box.verify()

    def test_a_pattern_naming_a_missing_subvariable(self):
        lines = [f"took {i} ms" for i in range(300)]
        box = compress_block(LogBlock(0, 0, lines), LogGrepConfig())
        (vector,) = box.groups[0].vectors
        assert vector.tag == 0 and vector.pattern.elements
        blob = box.serialize()
        meta = bytearray(_meta_of(blob))
        # The real vector's record is its pattern: the element count,
        # then a first element that is a sub-variable (kind 1, index 0).
        record = CapsuleBox.deserialize(blob).groups[0].vectors._skim.records[0]
        assert meta[record + 1 : record + 3] == bytes([1, 0])
        meta[record + 2] = 9
        box = CapsuleBox.deserialize(_with_meta(blob, bytes(meta)))
        with pytest.raises(FormatError, match="sub-variable 9"):
            box.groups[0].vectors[0]


class TestObservability:
    @pytest.fixture(scope="class")
    def archive(self):
        lines = make_mixed_lines(3000, seed=41)
        lg = LogGrep(config=LogGrepConfig(block_bytes=16 * 1024))
        lg.compress(lines)
        assert len(lg.store.names()) > 3
        return lg.store, lines

    def test_a_session_open_builds_no_vector(self, archive):
        store, lines = archive
        lg = LogGrep(store=store)
        before = BUILT.value()
        with lg.open_session() as session:
            assert BUILT.value() == before
            assert session.grep("ERROR").lines == grep_lines("ERROR", lines)
        assert BUILT.value() > before

    def test_a_cold_miss_builds_only_what_passes_its_gate(self, archive, monkeypatch):
        store, lines = archive
        opened = []
        real = CapsuleBox.open

        def spy(cls, source):
            box = real(source)
            opened.append(box)
            return box

        monkeypatch.setattr(CapsuleBox, "open", classmethod(spy))
        before = BUILT.value()
        assert LogGrep(store=store).grep(MISS_KEYWORD).lines == []
        mask, least = Keyword(MISS_KEYWORD).gate
        built = passing = total = 0
        for box in opened:
            for group in box.groups:
                total += len(group.vectors)
                for k, (stamp_mask, max_len, _) in enumerate(group.stamps):
                    admitted = least <= max_len and not mask & ~stamp_mask
                    is_built = group.vectors._start + k in group.vectors._skim.built
                    assert admitted or not is_built
                    passing += admitted
                    built += is_built
        assert opened and built == passing < total
        assert BUILT.value() - before == built

    def test_explain_analyze_reports_builds_on_load_box(self, archive):
        store, lines = archive
        lg = LogGrep(store=store)
        before = BUILT.value()
        result = lg.explain_analyze("ERROR")
        assert result.lines == grep_lines("ERROR", lines)
        load_box = result.ledger.operators["load_box"]
        assert load_box.vectors_built == BUILT.value() - before > 0
        table = [line.split() for line in result.report.splitlines()]
        header = next(row for row in table if row[:1] == ["operator"])
        row = next(row for row in table if row[:1] == ["load_box"])
        assert header[-1] == "vectors_built"
        assert row[-1] == str(load_box.vectors_built)
