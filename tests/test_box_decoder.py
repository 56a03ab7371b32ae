"""Tests for the one-pass CapsuleBox metadata decoder (``CapsuleBox.open``).

Every kind of stored vector must survive ``serialize`` → ``open`` →
``serialize`` byte for byte, and malformed metadata — truncated at any
byte, or holding an impossible field — must surface as a
:class:`FormatError`, never as ``IndexError``, ``struct.error`` or
``UnicodeDecodeError`` from inside the decoder.
"""

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
from repro.capsule.box import BoxTOC, CapsuleBox, GroupBox
from repro.common.errors import FormatError
from repro.core.compressor import compress_block
from repro.core.config import LogGrepConfig
from repro.staticparse.template import Template
from tests.conftest import make_mixed_lines

OUTLIER_VALUES = [f"req_{i}" for i in range(190)] + [
    "WEIRD!", "also weird", *[f"req_{i}" for i in range(190, 200)]
]
NOMINAL_VALUES = (["ERR#404"] * 40 + ["SUCC"] * 70 + ["ERR#501"] * 40)[:200]
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
    with the TOC's metadata length and payload offset patched so the
    header stays self-consistent."""
    toc = BoxTOC.read(BytesBlobSource(blob))
    packed = zlib.compress(meta, 6)
    payload = blob[toc.payload_off :]
    header = bytearray(blob[: toc.meta_off])
    header[20:24] = len(packed).to_bytes(4, "little")
    header[24:28] = (toc.meta_off + len(packed)).to_bytes(4, "little")
    return bytes(header) + packed + payload


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
        # block 0, first line 0, 0 lines, padded, 1 group: template 0 of
        # no tokens, no line ids, one vector of tag 9.
        meta = bytes([0, 0, 0, 1, 1, 0, 0, 0, 1, 9])
        with pytest.raises(FormatError, match="unknown encoded-vector tag 9"):
            CapsuleBox.deserialize(_with_meta(_box().serialize(), meta))

    def test_invalid_utf8_token(self):
        meta = bytes([0, 0, 0, 1, 1, 0, 1, 0, 1, 0xFF, 0, 0])
        with pytest.raises(FormatError):
            CapsuleBox.deserialize(_with_meta(_box().serialize(), meta))

    def test_ragged_line_id_array(self):
        meta = bytes([0, 0, 0, 1, 1, 0, 0, 3, 1, 0, 0, 0])
        with pytest.raises(FormatError, match="u32"):
            CapsuleBox.deserialize(_with_meta(_box().serialize(), meta))

    def test_payload_extent_past_the_toc(self):
        blob = _box().serialize()
        toc = BoxTOC.read(BytesBlobSource(blob))
        shrunk = bytearray(blob[: len(blob) - 8])
        shrunk[28:32] = (toc.payload_len - 8).to_bytes(4, "little")
        with pytest.raises(FormatError, match="out of range"):
            CapsuleBox.deserialize(bytes(shrunk))
