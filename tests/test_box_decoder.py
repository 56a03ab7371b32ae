"""Tests for the CapsuleBox metadata decoder (``CapsuleBox.open``).

Every kind of stored vector must survive ``serialize`` → ``open`` →
``serialize`` byte for byte, and malformed metadata — truncated at any
byte, or holding an impossible field, such as a group-id column that
disagrees with the block, a Capsule table that disagrees with the
payload section or a directory that disagrees with the table or a
record — must surface as a :class:`FormatError`, at open or at the
record's first build, never as ``IndexError``, ``struct.error`` or
``UnicodeDecodeError`` from inside the decoder.
"""

import struct
import zlib

import pytest

from repro.blockstore.blobsource import BytesBlobSource
from repro.blockstore.block import LogBlock
from repro.capsule.assembler import (
    EncodingOptions,
    NominalEncodedVector,
    PlainEncodedVector,
    RealEncodedVector,
    encode_plain,
    encode_vector,
)
from repro.capsule import box as box_module
from repro.capsule.box import (
    BoxTOC, CapsuleBox, GroupBox, _capsules_of, _MetaPrefix, _templates_at,
)
from repro.common.binio import BinaryWriter
from repro.common.errors import FormatError
from repro.core.compressor import compress_block
from repro.core.config import LogGrepConfig, ablated, sp_config
from repro.core.reconstructor import BlockReconstructor
from repro.staticparse.template import Template
from tests.conftest import make_mixed_lines

#: Each vector holds one row per entry of its group (200 of 600 lines).
OUTLIER_VALUES = [f"req_{i}" for i in range(190)] + [
    "WEIRD!", "also weird", *[f"req_{i}" for i in range(190, 198)]
]
NOMINAL_VALUES = ["ERR#404"] * 60 + ["SUCC"] * 80 + ["ERR#501"] * 60
PLAIN_VALUES = [f"v{i % 13}-{i}" for i in range(200)]


def _box(*, use_padding=True):
    """One group per vector kind: real with outliers, nominal, plain."""
    options = EncodingOptions(sample_rate=1.0, use_padding=use_padding)
    real = encode_vector(OUTLIER_VALUES, options)
    nominal = encode_vector(NOMINAL_VALUES, options)
    plain = encode_plain(PLAIN_VALUES, options)
    assert isinstance(real, RealEncodedVector) and real.outlier_rows
    assert isinstance(nominal, NominalEncodedVector)
    groups = [
        GroupBox(Template(g, ["k", None, "é"]), list(range(g, 600, 3)), [vector])
        for g, vector in enumerate((real, nominal, plain))
    ]
    return CapsuleBox(7, 1000, 600, use_padding, groups)


def _with_meta(blob: bytes, meta: bytes) -> bytes:
    """*blob* with its inflated metadata replaced by *meta*: recompressed,
    with the header's metadata length patched so it stays
    self-consistent."""
    toc = BoxTOC.read(BytesBlobSource(blob))
    packed = zlib.compress(meta, 6)
    payload = blob[toc.payload_off :]
    header = bytearray(blob[: toc.meta_off])
    header[8:12] = len(packed).to_bytes(4, "little")
    return bytes(header) + packed + payload


def _meta_only(meta: bytes) -> bytes:
    """A box of the inflated metadata *meta* and an empty payload."""
    packed = zlib.compress(meta, 6)
    return struct.pack(
        "<4sBBHII", b"LGCB", box_module.VERSION, 0, 16, len(packed), 0
    ) + packed


def _empty_block(capsules: int) -> bytes:
    """The metadata prefix of an empty block of one group: block 0, first
    line 0, 0 lines, padded, 1 group, *capsules* Capsules and an empty
    group-id column."""
    return bytes([0, 0, 0, 1, 1, capsules, 0])


def _build_all(box: CapsuleBox) -> None:
    for group in box.groups:
        for vector in group.vectors:
            _capsules_of(vector)


def _meta_of(blob: bytes) -> bytes:
    toc = BoxTOC.read(BytesBlobSource(blob))
    return zlib.decompress(blob[toc.meta_off : toc.meta_off + toc.meta_len])


class TestRoundTrip:
    @pytest.mark.parametrize("use_padding", [True, False])
    def test_every_vector_kind_reserializes_byte_for_byte(self, use_padding):
        blob = _box(use_padding=use_padding).serialize()
        assert CapsuleBox.deserialize(blob).serialize() == blob

    def test_compressed_block_reserializes_byte_for_byte(self):
        lines = make_mixed_lines(800, seed=5)
        blob = compress_block(LogBlock(3, 40, lines), LogGrepConfig()).serialize()
        box = CapsuleBox.deserialize(blob)
        assert box.serialize() == blob
        assert sum(group.num_entries for group in box.groups) == len(lines)

    def test_decoded_fields(self):
        box = _box()
        loaded = CapsuleBox.deserialize(box.serialize())
        assert (loaded.block_id, loaded.first_line_id, loaded.num_lines) == (7, 1000, 600)
        for want, got in zip(box.groups, loaded.groups):
            assert got.template.tokens == want.template.tokens
            assert got.num_entries == want.num_entries
            assert got.line_ids == want.line_ids
        real = loaded.groups[0].vectors[0]
        assert real.outlier_rows == box.groups[0].vectors[0].outlier_rows
        assert isinstance(loaded.groups[2].vectors[0], PlainEncodedVector)


class TestMalformedMetadata:
    def test_every_byte_flip(self):
        # A FormatError at open or at a record's first build, or
        # harmless; never another exception.
        blob = _box().serialize()
        meta = _meta_of(blob)
        for pos in range(len(meta)):
            for bits in (0x01, 0x80, 0xFF):
                damaged = bytearray(meta)
                damaged[pos] ^= bits
                try:
                    _build_all(CapsuleBox.deserialize(_with_meta(blob, bytes(damaged))))
                except FormatError:
                    pass

    @pytest.mark.parametrize("use_padding", [False, True])
    def test_every_strict_prefix_is_a_format_error(self, use_padding):
        blob = _box(use_padding=use_padding).serialize()
        meta = _meta_of(blob)
        assert CapsuleBox.deserialize(_with_meta(blob, meta))
        for cut in range(len(meta)):
            with pytest.raises(FormatError):
                CapsuleBox.deserialize(_with_meta(blob, meta[:cut]))

    def test_a_read_past_the_end_keeps_its_cause(self):
        # The original error stays chained, so a decoder bug that raises
        # IndexError is still traceable behind the FormatError.
        blob = _box().serialize()
        meta = _meta_of(blob)
        with pytest.raises(FormatError) as info:
            CapsuleBox.deserialize(_with_meta(blob, meta[:1]))
        assert isinstance(info.value.__cause__, IndexError)

    def test_overlong_varint(self):
        blob = _box().serialize()
        with pytest.raises(FormatError, match="varint too long"):
            CapsuleBox.deserialize(_with_meta(blob, b"\xff" * 11))

    def test_unknown_vector_tag(self):
        # An empty block of one group, no Capsules; its template: marker
        # 0, id 0, one slot token (U+0002).  The directory's one vector
        # has code 1: kind nominal, owning no Capsule.
        meta = _empty_block(0) + bytes([0, 0, 1, 2, 1, 0])
        with pytest.raises(FormatError, match="unknown encoded-vector code"):
            CapsuleBox.deserialize(_meta_only(meta))

    def test_invalid_utf8_token(self):
        meta = _empty_block(0) + bytes([0, 0, 1, 0xFF])
        with pytest.raises(FormatError):
            CapsuleBox.deserialize(_meta_only(meta))

    def test_ragged_line_id_array(self):
        # Outlier rows are the one u32 array left in the metadata: one
        # real vector of no elements and no sub-variables (code 7: kind
        # 3, owning its outlier Capsule), whose 4-byte record holds a
        # pattern of no elements and a 3-byte row array.  The open
        # reads no record; the first build rejects it.
        meta = (
            _empty_block(1) + bytes([0, 0, 1, 2])
            + bytes([7, 4, 0, 0])  # code, length, constant mask and length
            + bytes([0, 0, 0, 0])  # the record
            + bytes(24)  # one Capsule-table row
        )
        box = CapsuleBox.deserialize(_meta_only(meta))
        with pytest.raises(FormatError, match="u32"):
            box.groups[0].vectors[0]

    def test_payload_extent_past_the_toc(self):
        blob = _box().serialize()
        toc = BoxTOC.read(BytesBlobSource(blob))
        shrunk = bytearray(blob[: len(blob) - 8])
        shrunk[12:16] = (toc.payload_len - 8).to_bytes(4, "little")
        with pytest.raises(FormatError, match="payload section"):
            CapsuleBox.deserialize(bytes(shrunk))


def _with_column(meta: bytes, cells: bytes) -> bytes:
    """*meta* with its group-id column replaced by *cells*."""
    head = _MetaPrefix.read(meta)
    old, new = BinaryWriter(), BinaryWriter()
    old.write_varint(head.column_end - head.column_start)
    new.write_bytes(cells)
    start = head.column_start - len(old.getvalue())
    return meta[:start] + new.getvalue() + meta[head.column_end :]


def _round_trip_lines(box: CapsuleBox):
    """The lines of *box* after a serialize → open round trip, checking
    that the reopened box serializes to the same bytes."""
    blob = box.serialize()
    loaded = CapsuleBox.deserialize(blob)
    assert loaded.serialize() == blob
    assert loaded.verify() == []
    return BlockReconstructor(loaded).all_lines()


class TestV3Layout:
    def test_300_templates_take_a_u16_column(self):
        options = EncodingOptions(sample_rate=1.0)
        groups = [
            GroupBox(
                Template(g, [f"event{g}", None]),
                [g, 300 + g],
                [encode_plain([f"a{g}", f"b{g}"], options)],
            )
            for g in range(300)
        ]
        box = CapsuleBox(0, 0, 600, True, groups)
        blob = box.serialize()
        layout = CapsuleBox.layout(blob)
        assert layout.column_bytes == 2 * 600
        loaded = CapsuleBox.deserialize(blob)
        assert [g.line_ids for g in loaded.groups] == [g.line_ids for g in groups]
        want = [f"event{g % 300} {'ab'[g // 300]}{g % 300}" for g in range(600)]
        assert _round_trip_lines(box) == want

    def test_u8_column_below_256_groups(self):
        blob = _box().serialize()
        assert CapsuleBox.layout(blob).column_bytes == 600

    def test_zero_vector_groups(self):
        lines = [
            "service started" if i % 3 == 0 else
            "service stopped" if i % 3 == 1 else
            f"request {i} took {i % 17} ms"
            for i in range(300)
        ]
        box = compress_block(LogBlock(0, 0, lines), LogGrepConfig())
        assert sum(not group.vectors for group in box.groups) == 2
        assert _round_trip_lines(box) == lines

    @pytest.mark.parametrize(
        "config",
        [ablated("w/o fixed"), sp_config()],
        ids=["w/o fixed", "LG-SP"],
    )
    def test_fig9_configs(self, config):
        lines = make_mixed_lines(600, seed=7)
        box = compress_block(LogBlock(2, 100, lines), config)
        assert not box.padded
        assert _round_trip_lines(box) == lines


def _directory_of(meta: bytes):
    """``(codes, lengths)``: the offsets of the directory's first two
    columns in *meta*, whose entries are all one byte."""
    head = _MetaPrefix.read(meta)
    templates, codes = _templates_at(meta, head)
    return codes, codes + sum(template.num_variables for template in templates)


class TestV3Malformed:
    def test_column_shorter_than_the_block(self):
        blob = _box().serialize()
        meta = _meta_of(blob)
        head = _MetaPrefix.read(meta)
        cells = meta[head.column_start : head.column_end]
        with pytest.raises(FormatError, match="group-id column is 599 byte"):
            CapsuleBox.deserialize(_with_meta(blob, _with_column(meta, cells[:-1])))

    def test_group_id_past_the_group_count(self):
        blob = _box().serialize()
        meta = _meta_of(blob)
        head = _MetaPrefix.read(meta)
        cells = bytearray(meta[head.column_start : head.column_end])
        cells[5] = 3
        with pytest.raises(FormatError, match="group id >= the group count 3"):
            CapsuleBox.deserialize(_with_meta(blob, _with_column(meta, bytes(cells))))

    def test_a_record_that_disagrees_with_its_directory_entry(self):
        blob = _box().serialize()
        meta = _meta_of(blob)
        _, lengths = _directory_of(meta)
        # One byte moves from the nominal record (group 1) to the empty
        # plain one (group 2): the lengths still sum to the section, so
        # the box opens, and each record fails its first build.
        moved = bytearray(meta)
        assert moved[lengths + 2] == 0
        moved[lengths + 1] -= 1
        moved[lengths + 2] += 1
        box = CapsuleBox.deserialize(_with_meta(blob, bytes(moved)))
        with pytest.raises(FormatError, match="its fields take 0"):
            box.groups[2].vectors[0]
        with pytest.raises(FormatError):
            box.groups[1].vectors[0]

    def test_a_directory_that_disagrees_with_the_table_or_the_records(self):
        blob = _box().serialize()
        meta = _meta_of(blob)
        codes, lengths = _directory_of(meta)
        for pos, delta, message in (
            (lengths, 1, "record lengths sum to"),
            (codes + 1, 8, "unknown encoded-vector code"),  # nominal owning 4
            (codes, 4, "the vectors own"),  # the real vector owns one more
        ):
            damaged = bytearray(meta)
            damaged[pos] += delta
            with pytest.raises(FormatError, match=message):
                CapsuleBox.deserialize(_with_meta(blob, bytes(damaged)))

    def test_serialize_rejects_vectors_that_do_not_fill_the_slots(self):
        options = EncodingOptions(sample_rate=1.0)
        vector = encode_plain(["x", "y"], options)
        box = CapsuleBox(0, 0, 2, True, [
            GroupBox(Template(0, [None, None]), [0, 1], [vector]),
        ])
        with pytest.raises(FormatError, match="1 vectors for 2 variable slots"):
            box.serialize()

    def test_capsule_lengths_short_of_the_payload_section(self):
        blob = bytearray(_box().serialize())
        toc = BoxTOC.read(BytesBlobSource(bytes(blob)))
        blob[12:16] = (toc.payload_len + 4).to_bytes(4, "little")
        with pytest.raises(FormatError, match="payload lengths sum to"):
            CapsuleBox.deserialize(bytes(blob) + b"\x00" * 4)

    def test_serialize_rejects_line_ids_that_do_not_partition_the_block(self):
        options = EncodingOptions(sample_rate=1.0)
        vector = encode_plain(["x", "y"], options)
        overlapping = CapsuleBox(0, 0, 3, True, [
            GroupBox(Template(0, [None]), [0, 1], [vector]),
            GroupBox(Template(1, [None]), [1, 2], [vector]),
        ])
        with pytest.raises(FormatError, match="exactly once"):
            overlapping.serialize()
        unsorted = CapsuleBox(0, 0, 2, True, [
            GroupBox(Template(0, [None]), [1, 0], [vector]),
        ])
        with pytest.raises(FormatError, match="increasing"):
            unsorted.serialize()
