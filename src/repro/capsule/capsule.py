"""Capsules: the fine-grained compressed storage unit (paper §4.2, §5.2).

A Capsule stores one column of values — a sub-variable vector, an outlier
vector, a dictionary vector or an index vector — compressed independently
(the paper's Packer uses LZMA for its high ratio; here a size-keyed rule,
:func:`_choose_codec`, picks raw, zlib or LZMA per Capsule).

Before the codec, a buffer of at least :data:`RAW_BELOW` bytes whose every
byte is a decimal digit (or the NUL pad), or every byte a hex digit of one
case, is stored in a packed *form*: two characters per byte, the nibbles
of ``binascii.unhexlify``.  Most stored bytes are such columns, and the
codec then runs on half the bytes.  :meth:`Capsule.plain` undoes the
packing, so everything above it sees the padded ASCII buffer.

Two payload layouts exist:

* **fixed** — every value padded with NUL to the Capsule's width.  This is
  the paper's design: the row of a hit is ``position // width`` (O(1)), hit
  rows can be checked directly in a second Capsule, and a pattern region of
  a dictionary can be reached by the Σ count·width jump.
* **variable** — values separated by NUL.  This exists only for the
  ``w/o fixed`` ablation (§6.3) and for LogGrep-SP; recovering a hit's row
  means counting separators, which is what the paper's padding avoids.

The packers lay UTF-8 cells out in one buffer and read the stamp's class
mask and the form off one class pass over it.  Values must not contain
NUL; log lines are text, so the packer enforces it.
"""

from __future__ import annotations

import binascii
import lzma
import struct
import zlib
from enum import Enum
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from ..common import chartypes
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

#: Forms: how the plain buffer is laid out before the codec.  The low two
#: bits name the alphabet of a buffer stored two characters per byte;
#: ``FORM_ODD`` marks an odd-length one, whose last nibble is filler.  The
#: stored codec byte carries the form in its high nibble (docs/FORMAT.md).
FORM_ASCII = 0  # one character per byte, as the packer built it
FORM_DIGITS = 1  # 0-9 and the NUL pad, the pad stored as nibble f
FORM_HEX = 2  # 0-9a-f, no NUL
FORM_HEX_UPPER = 3  # 0-9A-F, no NUL, lowered before packing
FORM_ODD = 4

FORM_NAMES = {
    FORM_ASCII: "ascii", FORM_DIGITS: "digits", FORM_HEX: "hex",
    FORM_HEX_UPPER: "hex_upper",
}
#: Every form a reader accepts: an alphabet, with or without the odd flag.
FORMS = frozenset([FORM_ASCII]) | frozenset(
    alphabet | odd
    for alphabet in (FORM_DIGITS, FORM_HEX, FORM_HEX_UPPER)
    for odd in (0, FORM_ODD)
)

#: The alphabet of a buffer by the classes it holds besides digits.
_ALPHABET_OF_LETTERS = {
    0: FORM_DIGITS, chartypes.HEX_LOWER: FORM_HEX, chartypes.HEX_UPPER: FORM_HEX_UPPER
}
#: Per alphabet: the translation into hex digits before ``unhexlify`` and
#: back after ``hexlify`` (None: already lowercase hex).
_TO_HEX = {
    FORM_DIGITS: bytes.maketrans(b"\x00", b"f"),
    FORM_HEX: None,
    FORM_HEX_UPPER: bytes.maketrans(b"ABCDEF", b"abcdef"),
}
_FROM_HEX = {
    FORM_DIGITS: bytes.maketrans(b"f", b"\x00"),
    FORM_HEX: None,
    FORM_HEX_UPPER: bytes.maketrans(b"abcdef", b"ABCDEF"),
}


#: What the packers take: a UTF-8 cell, or a str they encode once.
Cell = Union[str, bytes]


class CodecRequest(Enum):
    """What a packer asks of the codec rule."""

    SMALLEST = "smallest"  # the size-keyed rule, keeping the smaller payload
    SPEED = "speed"  # the same rule with zlib's ZLIB_MARGIN (codec_speed_tier)


#: Size bands of the codec rule, keyed on the stored length: a digit or
#: hex column is measured packed two characters per byte.  Measured on the
#: Capsule buffers of the 37 specs at 8 000 lines and 128 KiB blocks (4 362
#: buffers) and of the perfbench ``ingest-encode`` corpora at seed 11 (847);
#: the table is in docs/ARCHITECTURE.md §Packer:
#:
#: * under 32 B nothing pays for its own header — raw;
#: * under 2 KiB zlib-6 is the smaller codec on 2 950 of the specs' 3 290
#:   buffers at preset 1 and 2 856 at preset 9, inflates about 4x faster
#:   and needs no match-finder tables, so no LZMA encoder is constructed;
#: * from 2 KiB up to deflate's 32 KiB window LZMA is smaller on 68 of 423
#:   buffers at preset 1 and 137 at preset 9 (on ``ingest-encode`` none
#:   of 87 at preset 1, 18 at preset 9), so both may run and the smaller
#:   is kept — at the fast presets only where zlib's ratio admits a trial
#:   (:data:`LZMA_TRIAL_ZLIB_RATIO`);
#: * from 32 KiB LZMA is kept without a zlib probe, so paper-scale Capsules
#:   keep the paper's codec: it can still reference what deflate's window
#:   has dropped (smaller on 18 of 22 such buffers at 16 000 lines and
#:   256 KiB blocks at preset 1, 19 at preset 9).
RAW_BELOW = 32
ZLIB_ONLY_BELOW = 2 * 1024
LZMA_ONLY_FROM = 32 * 1024

#: liblzma's fast presets (0-3: "fast" mode with hash-chain match
#: finders; the default preset is 1).  Only these gate their LZMA trials.
LZMA_FAST_PRESET_MAX = 3

#: LZMA trial gate: at the fast presets a buffer zlib has already run on is
#: tried with LZMA only when zlib shrank it to at most this share of its
#: length.  The zlib ratio at which LZMA still wins a band buffer rises
#: with the block size: over the 37 specs at preset 1 it is at most 0.729
#: at 8 000 lines and 128 KiB blocks (spec seeds shifted by 0, 1 and 2),
#: 0.845 at 16 000 lines and 256 KiB, 0.856 at 512 KiB and 0.859 at 2 MiB,
#: the same at presets 0, 2 and 3.  So archives are byte-identical up to
#: 256 KiB blocks, under either codec request, and only Log T grows beyond:
#: 38 B (0.003 %) at 512 KiB, 1 611 B (0.036 %) at 2 MiB.  (A gate at 0.75,
#: fitted to 128 KiB, cost up to 0.98 % at 256 KiB and 9.8 % at 512 KiB.)
#: On the perfbench ``ingest-encode`` corpora (seed 11) it skips 44 of 87
#: band trials, none of which LZMA wins: packed digit columns at ratios of
#: 0.851-0.866 and packed hex that zlib cannot shrink.  At preset 9 LZMA
#: wins band buffers up to a ratio of 0.849 at 128 KiB, so the slower
#: presets keep the full trial.
LZMA_TRIAL_ZLIB_RATIO = 0.85

#: Speed-tier margin: with ``CodecRequest.SPEED`` zlib is kept when
#: ``len(lzma) >= ZLIB_MARGIN * len(zlib)`` — i.e. LZMA shrinks the payload
#: less than 10% beyond zlib — instead of only when zlib is no larger.
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

#: Cells sliced (or padded) per ``struct`` call in :func:`_split_fixed`
#: (:func:`_pad_fixed`).
_SPLIT_CHUNK = 4096

_CODEC_CAPSULES = get_registry().counter(
    "loggrep_capsule_codec_total", "Capsules packed, by chosen codec and form"
)
_CODEC_BYTES_IN = get_registry().counter(
    "loggrep_capsule_codec_bytes_in_total",
    "Plain Capsule bytes, before any packing, by chosen codec and form",
)
_CODEC_BYTES_OUT = get_registry().counter(
    "loggrep_capsule_codec_bytes_out_total",
    "Capsule payload bytes stored, by chosen codec and form",
)
_LZMA_TRIALS = get_registry().counter(
    "loggrep_capsule_lzma_trials_total",
    "Codec decisions where zlib ran on a buffer of 2 KiB or more, by whether"
    " LZMA was tried and kept (won), tried and not kept (lost) or not tried"
    " because zlib's ratio ruled it out (skipped)",
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

    ``codec`` is the entropy codec of the payload and ``form`` the layout
    of the buffer it decodes to (``FORM_*``); :meth:`plain` undoes both.
    """

    __slots__ = (
        "layout", "width", "count", "stamp", "codec", "preset", "form",
        "expected_crc", "_payload", "_source", "_extent", "_plain",
        "_offsets",
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
        form: int = FORM_ASCII,
    ):
        if payload is None and (source is None or extent is None):
            raise ValueError("capsule needs a payload or a (source, extent)")
        self.layout = layout
        self.width = width
        self.count = count
        self.stamp = stamp
        self.codec = codec
        self.preset = preset
        self.form = form
        #: CRC32 recorded at serialization time (None for in-memory
        #: capsules); checked by :meth:`verify_payload`, not on the hot
        #: read path.
        self.expected_crc: Optional[int] = None
        self._payload: Optional[bytes] = payload
        self._source: Optional["BlobSource"] = source
        self._extent: Optional[Tuple[int, int]] = extent
        self._plain: Optional[bytes] = None
        self._offsets: Optional[List[int]] = None

    @classmethod
    def stored(
        cls,
        layout: int,
        width: int,
        count: int,
        stamp: CapsuleStamp,
        codec: int,
        preset: int,
        form: int,
        source: "BlobSource",
        extent: Tuple[int, int],
        crc: int,
    ) -> "Capsule":
        """A Capsule of a stored box: its payload stays at *extent* of
        *source* until first access.  A box open builds one per Capsule
        table row, so this skips ``__init__``'s keyword handling."""
        capsule = cls.__new__(cls)
        capsule.layout = layout
        capsule.width = width
        capsule.count = count
        capsule.stamp = stamp
        capsule.codec = codec
        capsule.preset = preset
        capsule.form = form
        capsule.expected_crc = crc
        capsule._payload = None
        capsule._source = source
        capsule._extent = extent
        capsule._plain = None
        capsule._offsets = None
        return capsule

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
            and self.form == other.form
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
            f"codec={self.codec}, preset={self.preset}, form={self.form}, "
            f"{where})"
        )

    # ------------------------------------------------------------------
    # packing
    # ------------------------------------------------------------------
    @classmethod
    def pack_fixed(
        cls,
        values: Sequence[Cell],
        preset: int = 1,
        stamp: Optional[CapsuleStamp] = None,
        width: Optional[int] = None,
        codec: CodecRequest = CodecRequest.SMALLEST,
    ) -> "Capsule":
        """Pack *values* NUL-padded to a common width (§5.2)."""
        cells = _utf8(values)
        buf, width, value_bytes, longest = _pad_fixed(cells, width)
        _reject_nul(buf, len(buf) - value_bytes)
        return cls._pack(LAYOUT_FIXED, width, cells, buf, longest, preset, stamp, codec)

    @classmethod
    def pack_variable(
        cls,
        values: Sequence[Cell],
        preset: int = 1,
        stamp: Optional[CapsuleStamp] = None,
        codec: CodecRequest = CodecRequest.SMALLEST,
    ) -> "Capsule":
        """Pack *values* NUL-separated (the w/o-fixed ablation layout)."""
        cells = _utf8(values)
        buf = PAD.join(cells)
        _reject_nul(buf, max(len(cells) - 1, 0))
        longest = max(map(len, cells), default=0)
        return cls._pack(LAYOUT_VARIABLE, 0, cells, buf, longest, preset, stamp, codec)

    @classmethod
    def pack_regions(
        cls,
        regions: Sequence[Sequence[Cell]],
        widths: Sequence[int],
        preset: int = 1,
        stamp: Optional[CapsuleStamp] = None,
        codec: CodecRequest = CodecRequest.SMALLEST,
    ) -> "Capsule":
        """Pack a dictionary vector: concatenated per-pattern padded regions.

        Each region's values are padded to that region's own width, so the
        start byte of region *j* is ``Σ_{i<j} count_i · width_i`` — exactly
        the direct-locating formula of §5.2.
        """
        parts: List[bytes] = []
        cells: List[bytes] = []
        value_bytes = longest = 0
        for region, width in zip(regions, widths):
            region_cells = _utf8(region)
            part, _, region_bytes, region_longest = _pad_fixed(region_cells, width)
            parts.append(part)
            value_bytes += region_bytes
            longest = max(longest, region_longest)
            cells.extend(region_cells)
        buf = b"".join(parts)
        _reject_nul(buf, len(buf) - value_bytes)
        return cls._pack(LAYOUT_REGION, 0, cells, buf, longest, preset, stamp, codec)

    @classmethod
    def _pack(
        cls,
        layout: int,
        width: int,
        cells: Sequence[bytes],
        buf: bytes,
        longest: int,
        preset: int,
        stamp: Optional[CapsuleStamp],
        codec: CodecRequest,
    ) -> "Capsule":
        """The Capsule of *cells* laid out in *buf*: one class pass gives
        the stamp's mask and the form.  *longest* (in bytes) is the stamp's
        length when *buf* is ASCII; otherwise the cells decode to count."""
        mask = chartypes.type_mask_of_buffer(buf)
        if stamp is None:
            if not buf.isascii():
                longest = max(map(len, map(bytes.decode, cells)))
            stamp = CapsuleStamp(mask, longest)
        stored, form, payload = _encode(buf, preset, codec, mask)
        return cls(layout, width, len(cells), stamp, stored, preset, payload, form=form)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def plain(self) -> bytes:
        """The decompressed payload in its packer's one-character-per-byte
        layout (cached after the first call).

        Corrupt payloads raise :class:`FormatError` — codec-specific
        exceptions never escape the storage layer.
        """
        if self._plain is None:
            try:
                if self.codec == CODEC_RAW:
                    data = self.payload
                elif self.codec == CODEC_LZMA:
                    data = _lzma_decompress(self.payload, self.preset)
                elif self.codec == CODEC_ZLIB:
                    data = zlib.decompress(self.payload)
                else:
                    raise FormatError(f"unknown codec {self.codec}")
            except (lzma.LZMAError, zlib.error) as exc:
                raise FormatError(f"corrupt capsule payload: {exc}") from exc
            form = self.form
            if form:
                data = binascii.hexlify(data)
                if form & FORM_ODD:
                    data = data[:-1]
                table = _FROM_HEX[form & ~FORM_ODD]
                if table is not None:
                    data = data.translate(table)
            self._plain = data
        return self._plain

    def values(self) -> List[str]:
        """All values, decoded from :meth:`cells` (so a payload whose
        shape disagrees with the metadata raises :class:`FormatError`)."""
        return [cell.rstrip(PAD).decode("utf-8") for cell in self.cells()]

    def cells(self, rows: Optional[Sequence[int]] = None) -> List[bytes]:
        """The raw cells of *rows* (every row when None), pad bytes kept.

        Every read of values goes through this accessor: a fixed-layout
        cell is one ``width``-byte slice of the decoded buffer, never
        stripped or decoded here — the caller joins whole rows and deletes
        the pad bytes in one pass.  A payload whose length is not
        ``count·width``, a variable payload whose separators do not make
        ``count`` values, or a row outside ``0..count-1`` raises
        :class:`FormatError`, so a misshapen payload can never yield
        silently wrong cells.
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


def _utf8(values: Sequence[Cell]) -> Sequence[bytes]:
    """*values* as UTF-8 cells: str values encoded, cells as they are."""
    if values and isinstance(values[0], str):
        return list(map(str.encode, values))  # type: ignore[arg-type]
    return values  # type: ignore[return-value]


def _pad_fixed(
    encoded: Sequence[bytes], width: Optional[int] = None
) -> Tuple[bytes, int, int, int]:
    """*encoded* NUL-padded to *width* bytes each (the longest value's
    length when None) and concatenated: ``(column, width, value bytes,
    longest value's bytes)``.

    The mirror of :func:`_split_fixed`: a column whose values all have
    the width is one join, any other one ``struct`` pack per
    :data:`_SPLIT_CHUNK` cells, so the padding happens in C rather than
    in one ``ljust`` per value.  A value longer than *width* raises
    :class:`CompressionError` (``struct`` would truncate it silently).
    """
    lengths = list(map(len, encoded))
    longest = max(lengths, default=0)
    if width is None:
        width = longest
    elif longest > width:
        value = next(e for e in encoded if len(e) > width)
        raise CompressionError(
            f"value {value.decode('utf-8')!r} is longer than the width {width}"
        )
    value_bytes = sum(lengths)
    if value_bytes == width * len(encoded):  # every value has the width
        return b"".join(encoded), width, value_bytes, longest
    parts = []
    for done in range(0, len(encoded), _SPLIT_CHUNK):
        chunk = encoded[done : done + _SPLIT_CHUNK]
        parts.append(struct.pack(b"%ds" % width * len(chunk), *chunk))
    return b"".join(parts), width, value_bytes, longest


def _reject_nul(buf: bytes, layout_nuls: int) -> None:
    """Raise unless *buf* holds exactly the NULs its layout put there
    (pad bytes or separators): any more came from inside a value."""
    if buf.count(PAD) != layout_nuls:
        raise CompressionError(NUL_IN_VALUE)


def _encode(
    buf: bytes, preset: int, codec: CodecRequest, mask: Optional[int] = None
) -> Tuple[int, int, bytes]:
    """The stored codec, form and payload of *buf* under the request
    *codec*: the buffer is packed into its form (:func:`_pack_form`) and
    the codec rule runs once, on the packed bytes.  *mask* is the
    buffer's class mask where the packer has it already; a ``plain()``
    buffer re-packs without it.
    """
    if mask is None:
        mask = chartypes.type_mask_of_buffer(buf)
    form, packed = _pack_form(buf, mask)
    stored, payload = _choose_codec(packed, preset, codec is CodecRequest.SPEED)
    labels = {"codec": CODEC_NAMES[stored], "form": FORM_NAMES[form & ~FORM_ODD]}
    _CODEC_CAPSULES.inc(**labels)
    _CODEC_BYTES_IN.inc(len(buf), **labels)
    _CODEC_BYTES_OUT.inc(len(payload), **labels)
    return stored, form, payload


def _pack_form(buf: bytes, mask: int) -> Tuple[int, bytes]:
    """``(form, packed)``: *buf* two characters per byte when it is at
    least :data:`RAW_BELOW` bytes and its class *mask* names one alphabet
    (digits and NUL; lowercase hex; uppercase hex), else *buf* as it is.

    Mixed-case hex and hex with a NUL stay one character per byte: nibble
    ``f`` stands for the pad only where ``f`` is not itself a character.
    """
    letters = mask & ~chartypes.DIGIT
    alphabet = _ALPHABET_OF_LETTERS.get(letters)
    if alphabet is None or len(buf) < RAW_BELOW or (letters and PAD in buf):
        return FORM_ASCII, buf
    table = _TO_HEX[alphabet]
    text = buf if table is None else buf.translate(table)
    if len(buf) & 1:
        return alphabet | FORM_ODD, binascii.unhexlify(text + b"0")
    return alphabet, binascii.unhexlify(text)


def _lzma_trial_skipped(size: int, zlib_len: int, preset: int) -> bool:
    """Whether the codec rule skips the LZMA trial on a buffer of *size*
    bytes that zlib shrank to *zlib_len*: from :data:`ZLIB_ONLY_BELOW` up,
    at the fast presets, where zlib left more than
    :data:`LZMA_TRIAL_ZLIB_RATIO` of it."""
    return (
        size >= ZLIB_ONLY_BELOW
        and preset <= LZMA_FAST_PRESET_MAX
        and zlib_len > LZMA_TRIAL_ZLIB_RATIO * size
    )


def _choose_codec(
    buf: bytes, preset: int, speed_tier: bool = False
) -> Tuple[int, bytes]:
    """Pick a codec for *buf* from its length (bands above), keeping the
    smaller payload where two codecs run and raw whenever compression
    does not shrink the buffer.

    *buf* is what is stored: for a packed Capsule the two-per-byte bytes
    of :func:`_pack_form`, so the bands key on the packed length.

    ``speed_tier`` (``CodecRequest.SPEED``, config ``codec_speed_tier``)
    follows the same rule with two differences: zlib is kept unless LZMA
    beats it by more than :data:`ZLIB_MARGIN` — zlib inflates several
    times faster, which the query path pays on every Capsule the Locator
    could not filter — and zlib is still tried above its window.

    Wherever zlib ran on a buffer of :data:`ZLIB_ONLY_BELOW` or more, at
    the fast presets LZMA is tried only if zlib's payload is at most
    :data:`LZMA_TRIAL_ZLIB_RATIO` of the buffer
    (:func:`_lzma_trial_skipped`); otherwise no LZMA encoder is
    constructed.  Each such decision is counted in
    ``loggrep_capsule_lzma_trials_total`` by outcome.
    """
    size = len(buf)
    codec, payload = CODEC_RAW, buf
    if size >= RAW_BELOW:
        zlib_first = speed_tier or size < LZMA_ONLY_FROM
        gated = False
        if zlib_first:
            codec, payload = CODEC_ZLIB, zlib.compress(buf, 6)
            gated = _lzma_trial_skipped(size, len(payload), preset)
        if size >= ZLIB_ONLY_BELOW and not gated:
            # The incumbent is zlib's payload, or the buffer itself where
            # zlib was not tried (then the margin is 1.0).
            lzma_payload = _lzma_compress(buf, preset)
            margin = ZLIB_MARGIN if speed_tier else 1.0
            if len(lzma_payload) < margin * len(payload):
                codec, payload = CODEC_LZMA, lzma_payload
        if len(payload) >= size:
            codec, payload = CODEC_RAW, buf
        if zlib_first and size >= ZLIB_ONLY_BELOW:
            if gated:
                outcome = "skipped"
            else:
                outcome = "won" if codec == CODEC_LZMA else "lost"
            _LZMA_TRIALS.inc(outcome=outcome)
    return codec, payload
