"""Capsules: the fine-grained compressed storage unit (paper §4.2, §5.2).

A Capsule stores one column of values — a sub-variable vector, an outlier
vector, a dictionary vector or an index vector — compressed independently
with LZMA (the paper's Packer uses LZMA for its high ratio).

Two payload layouts exist:

* **fixed** — every value padded with NUL to the Capsule's width.  This is
  the paper's design: the row of a hit is ``position // width`` (O(1)), hit
  rows can be checked directly in a second Capsule, and a pattern region of
  a dictionary can be reached by the Σ count·width jump.
* **variable** — values separated by NUL.  This exists only for the
  ``w/o fixed`` ablation (§6.3) and for LogGrep-SP; recovering a hit's row
  means counting separators, which is what the paper's padding avoids.

Values must not contain NUL; log lines are text, so the packer enforces it.
"""

from __future__ import annotations

import lzma
import struct
import zlib
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..common.binio import BinaryReader, BinaryWriter
from ..common.errors import NUL_IN_VALUE, CompressionError, FormatError
from ..obs import ledger as ledger_channel
from ..obs.metrics import get_registry
from .stamp import CapsuleStamp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..blockstore.blobsource import BlobSource

PAD = b"\x00"

#: Payload layouts.
LAYOUT_FIXED = 0
LAYOUT_VARIABLE = 1
LAYOUT_REGION = 2  # per-pattern regions of differing widths (dictionaries)

#: Codecs.  The choice is made per Capsule by :func:`_choose_codec` from
#: the buffer's length alone; ``preset`` (stored beside the codec) names
#: the LZMA *decode* filter chain.
CODEC_RAW = 0
CODEC_LZMA = 1
CODEC_ZLIB = 2

CODEC_NAMES = {CODEC_RAW: "raw", CODEC_LZMA: "lzma", CODEC_ZLIB: "zlib"}

#: Size bands of the codec rule.  Measured on the Capsule buffers of the
#: perfbench ``ingest-encode`` corpora at 128 KiB blocks (847 buffers: 123
#: under 32 B, median 694 B, p90 4.7 KB, max 36 KB) and on 179 more taken
#: at the default 64 MB block size (30 000 lines of six datasets); the
#: table is in docs/ARCHITECTURE.md:
#:
#: * under 32 B nothing pays for its own header — raw;
#: * under 2 KiB zlib-6 is the smaller codec at preset 1 (526 of 554
#:   buffers, 14 % fewer bytes) *and* at preset 6 (465 of 554, 5 % fewer),
#:   inflates about 4x faster and needs no match-finder tables, so no
#:   LZMA encoder is constructed;
#: * from 2 KiB up to deflate's 32 KiB window the winner depends on the
#:   preset (crossover near 8-16 KiB at preset 1, 2-4 KiB at preset 6),
#:   so both run and the smaller is kept;
#: * from 32 KiB LZMA wins (3 % at preset 1, 13 % at preset 6: it can
#:   still reference what deflate's window has dropped), so paper-scale
#:   Capsules keep the paper's codec and zlib is not tried.
RAW_BELOW = 32
ZLIB_ONLY_BELOW = 2 * 1024
LZMA_ONLY_FROM = 32 * 1024

#: Speed-tier margin: with ``speed_tier`` zlib is kept when ``len(lzma) >=
#: ZLIB_MARGIN * len(zlib)`` — i.e. LZMA shrinks the payload less than 10%
#: beyond zlib — instead of only when zlib is no larger.
ZLIB_MARGIN = 0.9

_LZMA_FILTERS_BY_PRESET = {
    preset: [{"id": lzma.FILTER_LZMA2, "preset": preset}] for preset in range(10)
}

#: liblzma's dictionary size per preset.  The *decoder* allocates this
#: much (``_LZMA_FILTERS_BY_PRESET``), so it is the encoder's upper bound.
_PRESET_DICT_SIZE = {
    0: 1 << 18, 1: 1 << 20, 2: 1 << 21, 3: 1 << 22, 4: 1 << 22,
    5: 1 << 23, 6: 1 << 23, 7: 1 << 24, 8: 1 << 25, 9: 1 << 26,
}
_MIN_DICT_SIZE = 4096  # liblzma's floor

#: Cells sliced per ``struct`` call in :func:`_split_fixed`.
_SPLIT_CHUNK = 4096

_CODEC_CAPSULES = get_registry().counter(
    "loggrep_capsule_codec_total", "Capsules packed, by chosen codec"
)
_CODEC_BYTES_IN = get_registry().counter(
    "loggrep_capsule_codec_bytes_in_total",
    "Plain Capsule bytes handed to the codec rule, by chosen codec",
)
_CODEC_BYTES_OUT = get_registry().counter(
    "loggrep_capsule_codec_bytes_out_total",
    "Capsule payload bytes stored, by chosen codec",
)


def _encoder_dict_size(length: int, preset: int) -> int:
    """Smallest power of two holding *length* bytes, within
    [liblzma's floor, the preset's own dictionary].

    The upper clamp is a correctness requirement, not tuning:
    :meth:`Capsule.plain` decodes with the preset's filter chain, whose
    dictionary must be at least as large as the encoder's.
    """
    sized = 1 << max(length - 1, 0).bit_length()
    return min(max(sized, _MIN_DICT_SIZE), _PRESET_DICT_SIZE[preset])


def _lzma_compress(data: bytes, preset: int) -> bytes:
    # Raw streams avoid the ~60-byte .xz container per Capsule, which
    # matters because a CapsuleBox holds many small Capsules.  The
    # dictionary is sized to the buffer: the encoder allocates and zeroes
    # match-finder tables in proportion to it, and with the preset's own
    # (1 MiB at preset 1, 64 MiB at preset 9) that set-up, not the
    # compression, is what a few-KB Capsule pays for — 1.3 ms against
    # 0.1 ms for 700 bytes at preset 1, 41 ms against 0.14 ms at preset 9.
    filters = [
        {
            "id": lzma.FILTER_LZMA2,
            "preset": preset,
            "dict_size": _encoder_dict_size(len(data), preset),
        }
    ]
    return lzma.compress(data, format=lzma.FORMAT_RAW, filters=filters)


def _lzma_decompress(data: bytes, preset: int) -> bytes:
    return lzma.decompress(
        data, format=lzma.FORMAT_RAW, filters=_LZMA_FILTERS_BY_PRESET[preset]
    )


class Capsule:
    """A compressed column of values plus its stamp.

    The payload is **lazy**: a capsule deserialized from a stored box
    holds only its byte extent and a :class:`BlobSource`; the compressed
    bytes are fetched on first access to :attr:`payload` (or in a batched
    prefetch, see ``CapsuleBox.prefetch``).  Capsules built by the packer
    hold their bytes directly and behave exactly as before.
    """

    __slots__ = (
        "layout", "width", "count", "stamp", "codec", "preset",
        "expected_crc", "_payload", "_source", "_extent", "_plain",
        "_offsets", "__weakref__",
    )

    def __init__(
        self,
        layout: int,
        width: int,  # padded value width (fixed layout); 0 for variable
        count: int,  # number of values
        stamp: CapsuleStamp,
        codec: int,
        preset: int,
        payload: Optional[bytes] = None,
        *,
        source: Optional["BlobSource"] = None,
        extent: Optional[Tuple[int, int]] = None,
    ):
        if payload is None and (source is None or extent is None):
            raise ValueError("capsule needs a payload or a (source, extent)")
        self.layout = layout
        self.width = width
        self.count = count
        self.stamp = stamp
        self.codec = codec
        self.preset = preset
        #: CRC32 recorded at serialization time (None for in-memory
        #: capsules); checked by :meth:`verify_payload`, not on the hot
        #: read path.
        self.expected_crc: Optional[int] = None
        self._payload: Optional[bytes] = payload
        self._source: Optional["BlobSource"] = source
        self._extent: Optional[Tuple[int, int]] = extent
        self._plain: Optional[bytes] = None
        self._offsets: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # lazy payload
    # ------------------------------------------------------------------
    @property
    def payload(self) -> bytes:
        """The compressed bytes, fetched from the source on first access."""
        if self._payload is None:
            assert self._source is not None and self._extent is not None
            offset, length = self._extent
            self._payload = self._source.read(offset, length)
            ledger_channel.charge_capsule_fetch(length)
        return self._payload

    @property
    def is_fetched(self) -> bool:
        """True once the compressed bytes are resident in memory."""
        return self._payload is not None

    @property
    def payload_extent(self) -> Optional[Tuple[int, int]]:
        """(offset, length) of the payload within its blob, if stored."""
        return self._extent

    def pin_payload(self, data: bytes) -> None:
        """Install prefetched payload bytes (batched ranged read)."""
        if self._extent is not None and len(data) != self._extent[1]:
            raise FormatError(
                f"prefetched payload is {len(data)} byte(s), "
                f"expected {self._extent[1]}"
            )
        if self._payload is None:
            self._payload = data
            ledger_channel.charge_capsule_fetch(len(data))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Capsule):
            return NotImplemented
        return (
            self.layout == other.layout
            and self.width == other.width
            and self.count == other.count
            and self.stamp == other.stamp
            and self.codec == other.codec
            and self.preset == other.preset
            and self.payload == other.payload
        )

    def __repr__(self) -> str:
        where = (
            f"payload={len(self._payload)}B"
            if self._payload is not None
            else f"extent={self._extent!r}"
        )
        return (
            f"Capsule(layout={self.layout}, width={self.width}, "
            f"count={self.count}, stamp={self.stamp!r}, "
            f"codec={self.codec}, preset={self.preset}, {where})"
        )

    # ------------------------------------------------------------------
    # packing
    # ------------------------------------------------------------------
    @classmethod
    def pack_fixed(
        cls,
        values: Sequence[str],
        preset: int = 1,
        stamp: Optional[CapsuleStamp] = None,
        width: Optional[int] = None,
        speed_tier: bool = False,
    ) -> "Capsule":
        """Pack *values* NUL-padded to a common width (§5.2)."""
        encoded = list(map(str.encode, values))
        if width is None:
            width = max(map(len, encoded), default=0)
        buf = b"".join([e.ljust(width, PAD) for e in encoded])
        if len(buf) != width * len(encoded):
            raise CompressionError(f"a value is longer than the width {width}")
        _reject_nul(buf, len(buf) - sum(map(len, encoded)))
        stamp = stamp or CapsuleStamp.of_values(values)
        codec, payload = _choose_codec(buf, preset, speed_tier)
        return cls(LAYOUT_FIXED, width, len(values), stamp, codec, preset, payload)

    @classmethod
    def pack_variable(
        cls,
        values: Sequence[str],
        preset: int = 1,
        stamp: Optional[CapsuleStamp] = None,
        speed_tier: bool = False,
    ) -> "Capsule":
        """Pack *values* NUL-separated (the w/o-fixed ablation layout)."""
        buf = PAD.join(map(str.encode, values))
        _reject_nul(buf, max(len(values) - 1, 0))
        stamp = stamp or CapsuleStamp.of_values(values)
        codec, payload = _choose_codec(buf, preset, speed_tier)
        return cls(LAYOUT_VARIABLE, 0, len(values), stamp, codec, preset, payload)

    @classmethod
    def pack_regions(
        cls,
        regions: Sequence[Sequence[str]],
        widths: Sequence[int],
        preset: int = 1,
        stamp: Optional[CapsuleStamp] = None,
        speed_tier: bool = False,
    ) -> "Capsule":
        """Pack a dictionary vector: concatenated per-pattern padded regions.

        Each region's values are padded to that region's own width, so the
        start byte of region *j* is ``Σ_{i<j} count_i · width_i`` — exactly
        the direct-locating formula of §5.2.
        """
        parts: List[bytes] = []
        all_values: List[str] = []
        value_bytes = 0
        for region, width in zip(regions, widths):
            encoded = list(map(str.encode, region))
            if max(map(len, encoded), default=0) > width:
                value = next(v for v, e in zip(region, encoded) if len(e) > width)
                raise CompressionError(
                    f"value {value!r} longer than its region width {width}"
                )
            parts.extend([e.ljust(width, PAD) for e in encoded])
            value_bytes += sum(map(len, encoded))
            all_values.extend(region)
        buf = b"".join(parts)
        _reject_nul(buf, len(buf) - value_bytes)
        stamp = stamp or CapsuleStamp.of_values(all_values)
        codec, payload = _choose_codec(buf, preset, speed_tier)
        return cls(LAYOUT_REGION, 0, len(all_values), stamp, codec, preset, payload)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def plain(self) -> bytes:
        """The decompressed payload (cached after the first call).

        Corrupt payloads raise :class:`FormatError` — codec-specific
        exceptions never escape the storage layer.
        """
        if self._plain is None:
            try:
                if self.codec == CODEC_RAW:
                    self._plain = self.payload
                elif self.codec == CODEC_LZMA:
                    self._plain = _lzma_decompress(self.payload, self.preset)
                elif self.codec == CODEC_ZLIB:
                    self._plain = zlib.decompress(self.payload)
                else:
                    raise FormatError(f"unknown codec {self.codec}")
            except (lzma.LZMAError, zlib.error) as exc:
                raise FormatError(f"corrupt capsule payload: {exc}") from exc
        return self._plain

    def value_at(self, row: int) -> str:
        """Fetch one value; O(1) for the fixed layout."""
        if not 0 <= row < self.count:
            raise IndexError(f"row {row} out of range 0..{self.count - 1}")
        plain = self.plain()
        if self.layout == LAYOUT_REGION:
            raise FormatError(
                "region-packed capsules need region offsets to fetch values"
            )
        if self.layout == LAYOUT_FIXED:
            if self.width == 0:
                return ""
            start = row * self.width
            return plain[start : start + self.width].rstrip(PAD).decode("utf-8")
        offsets = self._variable_offsets()
        start = offsets[row]
        end = offsets[row + 1] - 1 if row + 1 < self.count else len(plain)
        return plain[start:end].decode("utf-8")

    def values(self) -> List[str]:
        """All values, decoded."""
        plain = self.plain()
        if self.layout == LAYOUT_REGION:
            raise FormatError(
                "region-packed capsules need region metadata to list values"
            )
        if self.layout == LAYOUT_FIXED:
            if self.width == 0:
                return [""] * self.count
            return [
                plain[i * self.width : (i + 1) * self.width].rstrip(PAD).decode("utf-8")
                for i in range(self.count)
            ]
        return [part.decode("utf-8") for part in self._variable_parts()]

    def values_bytes(self) -> List[bytes]:
        """All values as raw (unpadded) bytes — no UTF-8 decode.

        The byte-level scan paths use this to test rendered values without
        materializing strings; only surviving rows are ever decoded.
        """
        plain = self.plain()
        if self.layout == LAYOUT_REGION:
            raise FormatError(
                "region-packed capsules need region metadata to list values"
            )
        if self.layout == LAYOUT_FIXED:
            if self.width == 0:
                return [b""] * self.count
            return [
                plain[i * self.width : (i + 1) * self.width].rstrip(PAD)
                for i in range(self.count)
            ]
        return self._variable_parts()

    def cells(self, rows: Optional[Sequence[int]] = None) -> List[bytes]:
        """The raw cells of *rows* (every row when None), pad bytes kept.

        This is the Reconstructor's accessor: a fixed-layout cell is one
        ``width``-byte slice of the decoded buffer, never stripped or
        decoded here — the caller joins whole rows and deletes the pad
        bytes in one pass.  A payload whose length is not ``count·width``
        or a row outside ``0..count-1`` raises :class:`FormatError`, so a
        short payload can never yield silently truncated cells.
        """
        count = self.count
        if rows is not None and len(rows) and not (
            0 <= min(rows) and max(rows) < count
        ):
            raise FormatError(f"cell row outside 0..{count - 1}")
        if self.layout == LAYOUT_REGION:
            raise FormatError(
                "region-packed capsules need region metadata to list cells"
            )
        if self.layout == LAYOUT_VARIABLE:
            parts = self._variable_parts()
            return parts if rows is None else [parts[row] for row in rows]
        plain = self.plain()
        width = self.width
        if len(plain) != count * width:
            raise FormatError(
                f"fixed capsule payload is {len(plain)} byte(s), "
                f"expected {count} x {width}"
            )
        if rows is None:
            return _split_fixed(plain, 0, count, width)
        if 2 * len(rows) > count:
            # Most rows wanted: splitting the whole column in C and
            # picking from it beats a Python-level slice per row.
            column = _split_fixed(plain, 0, count, width)
            return [column[row] for row in rows]
        return [plain[row * width : (row + 1) * width] for row in rows]

    def region_cells(self, shapes: Sequence[Tuple[int, int]]) -> List[bytes]:
        """Every cell of a region-packed dictionary, pad bytes kept.

        *shapes* is the ``(count, width)`` of each pattern region in
        storage order; together they must account for the whole payload.
        """
        plain = self.plain()
        if len(plain) != sum(count * width for count, width in shapes):
            raise FormatError(
                f"region capsule payload is {len(plain)} byte(s), "
                "which its region widths do not add up to"
            )
        cells: List[bytes] = []
        start = 0
        for count, width in shapes:
            cells.extend(_split_fixed(plain, start, count, width))
            start += count * width
        return cells

    def _variable_parts(self) -> List[bytes]:
        """Split a NUL-separated payload, validating the value count.

        A truncated payload that still passed (or bypassed) the CRC check
        would otherwise silently yield the wrong number of rows; the count
        is part of the (separately checksummed) metadata, so a mismatch is
        definitive corruption.
        """
        plain = self.plain()
        if not self.count:
            return []
        parts = plain.split(PAD)
        if len(parts) != self.count:
            raise FormatError(
                f"variable capsule payload holds {len(parts)} value(s), "
                f"expected {self.count}"
            )
        return parts

    def region_value(self, offset_bytes: int, width: int) -> str:
        """Fetch one value of a region-packed dictionary Capsule."""
        plain = self.plain()
        return plain[offset_bytes : offset_bytes + width].rstrip(PAD).decode("utf-8")

    def _variable_offsets(self) -> List[int]:
        if self._offsets is None:
            plain = self.plain()
            offsets = [0]
            pos = plain.find(PAD)
            while pos != -1:
                offsets.append(pos + 1)
                pos = plain.find(PAD, pos + 1)
            self._offsets = offsets
        return self._offsets

    @property
    def compressed_bytes(self) -> int:
        # Stored size is known from the extent even before the bytes are
        # fetched — statistics must not force a payload read.
        if self._payload is None and self._extent is not None:
            return self._extent[1]
        return len(self.payload)

    @property
    def is_decompressed(self) -> bool:
        """True once :meth:`plain` has inflated (and cached) the payload."""
        return self._plain is not None

    def verify_payload(self) -> bool:
        """Check the payload against its recorded CRC32.

        True when no checksum was recorded (in-memory capsule) or the
        checksum matches; False signals on-disk corruption.
        """
        if self.expected_crc is None:
            return True
        return zlib.crc32(self.payload) == self.expected_crc

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def write(self, writer: BinaryWriter) -> None:
        writer.write_u8(self.layout)
        writer.write_varint(self.width)
        writer.write_varint(self.count)
        self.stamp.write(writer)
        writer.write_u8(self.codec)
        writer.write_u8(self.preset)
        writer.write_bytes(self.payload)

    @classmethod
    def read(cls, reader: BinaryReader) -> "Capsule":
        layout = reader.read_u8()
        width = reader.read_varint()
        count = reader.read_varint()
        stamp = CapsuleStamp.read(reader)
        codec = reader.read_u8()
        preset = reader.read_u8()
        payload = reader.read_bytes()
        return cls(layout, width, count, stamp, codec, preset, payload)


def _split_fixed(plain: bytes, start: int, count: int, width: int) -> List[bytes]:
    """*count* consecutive *width*-byte cells of *plain* from *start*.

    One ``struct`` unpack per :data:`_SPLIT_CHUNK` cells does the slicing
    in C — about a third of the cost of a slice per cell; the chunking
    only bounds the size of the compiled format.
    """
    cells: List[bytes] = []
    for done in range(0, count, _SPLIT_CHUNK):
        chunk = min(_SPLIT_CHUNK, count - done)
        cells.extend(
            struct.Struct(b"%ds" % width * chunk).unpack_from(
                plain, start + done * width
            )
        )
    return cells


def _reject_nul(buf: bytes, layout_nuls: int) -> None:
    """Raise unless *buf* holds exactly the NULs its layout put there
    (pad bytes or separators): any more came from inside a value."""
    if buf.count(PAD) != layout_nuls:
        raise CompressionError(NUL_IN_VALUE)


def _choose_codec(
    buf: bytes, preset: int, speed_tier: bool = False
) -> Tuple[int, bytes]:
    """Pick a codec for *buf* from its length (bands above), keeping the
    smaller payload where two codecs run and raw whenever compression
    does not shrink the buffer.

    ``speed_tier`` (config ``codec_speed_tier``) follows the same rule
    with two differences: zlib is kept unless LZMA beats it by more than
    :data:`ZLIB_MARGIN` — zlib inflates several times faster, which the
    query path pays on every Capsule the Locator could not filter — and
    zlib is still tried above its window.  At preset 0 it means the
    caller wants the bytes queryable *now* (the hot tail): zlib-1 and no
    LZMA probe, which would roughly double the encode latency.
    """
    size = len(buf)
    codec, payload = CODEC_RAW, buf
    if size >= RAW_BELOW:
        hot_tail = speed_tier and preset == 0
        if speed_tier or size < LZMA_ONLY_FROM:
            codec, payload = CODEC_ZLIB, zlib.compress(buf, 1 if hot_tail else 6)
        if size >= ZLIB_ONLY_BELOW and not hot_tail:
            # The incumbent is zlib's payload, or the buffer itself where
            # zlib was not tried (then the margin is 1.0).
            lzma_payload = _lzma_compress(buf, preset)
            margin = ZLIB_MARGIN if speed_tier else 1.0
            if len(lzma_payload) < margin * len(payload):
                codec, payload = CODEC_LZMA, lzma_payload
        if len(payload) >= size:
            codec, payload = CODEC_RAW, buf
    name = CODEC_NAMES[codec]
    _CODEC_CAPSULES.inc(codec=name)
    _CODEC_BYTES_IN.inc(size, codec=name)
    _CODEC_BYTES_OUT.inc(len(payload), codec=name)
    return codec, payload
