"""CapsuleBox: the on-disk unit holding one compressed log block (Fig 1).

A CapsuleBox contains every Capsule of a block plus the metadata needed to
query and reconstruct it: static patterns (templates), per-group entry line
ids, runtime patterns and Capsule stamps.

Layout::

    MAGIC "LGCB" | version u8 (=2) | flags u8 (=0) | header_len u16 (=32)
    | bloom_off u32 | bloom_len u32 | meta_off u32 | meta_len u32
    | payload_off u32 | payload_len u32
    | retired bloom section | zlib(meta) | payload blobs

The fixed 32-byte header is a table of contents: it records the byte
extent of every section, so a reader can fetch the metadata or one
capsule payload with an independent ranged read — nothing forces pulling
the whole blob.  Sections are contiguous and the header is validated
strictly (flags, lengths, contiguity, total size), so any single-byte
header corruption is detected before bytes are trusted.  The bloom
section is retired: the writer emits the one zero byte every v2 box
holds there and the reader never fetches it.

Version 2 is the only version read or written; any other version byte
is a :class:`FormatError` naming the version found.

Capsule payloads live *outside* the zlib'd metadata, referenced by
(offset, length) relative to the payload section.  Deserialized capsules
are **lazy**: they hold their extent plus a
:class:`~repro.blockstore.blobsource.BlobSource` and fetch bytes on first
access (or batched, via :meth:`CapsuleBox.prefetch`) — the
selective-decompression property of the paper extended down to
selective *fetching*.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..blockstore.blobsource import BlobSource, BytesBlobSource, coalesce_extents
from ..common.binio import BinaryWriter
from ..common.errors import FormatError
from ..runtime.merge import DictPattern
from ..runtime.pattern import Const, Element, RuntimePattern, SubVar
from ..staticparse.template import Template
from .assembler import (
    ENC_NOMINAL,
    ENC_PLAIN,
    ENC_REAL,
    EncodedVector,
    NominalEncodedVector,
    PlainEncodedVector,
    RealEncodedVector,
)
from .capsule import CODEC_NAMES, FORM_ASCII, FORMS, Capsule
from .stamp import CapsuleStamp

MAGIC = b"LGCB"
VERSION = 2

_HEADER_LEN = 32

#: The retired bloom section ("no filter"), written so v2 stays byte for
#: byte what it was; container v3 drops it and its two TOC words.
_RETIRED_BLOOM = b"\x00"

#: Payload extents closer than this are fetched as one ranged read: the
#: per-read fixed cost (seek / object-store request) dwarfs a few hundred
#: over-read bytes.
PREFETCH_GAP = 256


@dataclass(frozen=True)
class BoxTOC:
    """Parsed header: the byte extent of every section of a box."""

    bloom_off: int
    bloom_len: int
    meta_off: int
    meta_len: int
    payload_off: int
    payload_len: int

    @classmethod
    def read(cls, source: BlobSource) -> "BoxTOC":
        """Parse and strictly validate the header of *source*.

        Every field is checked against the others and against the blob
        size, so a flipped header byte raises :class:`FormatError` here —
        never a garbage slice downstream.
        """
        size = source.size()
        if size < 5:
            raise FormatError("truncated CapsuleBox header")
        head = source.read(0, min(_HEADER_LEN, size))
        if head[:4] != MAGIC:
            raise FormatError("not a CapsuleBox: bad magic")
        if head[4] != VERSION:
            raise FormatError(
                f"unsupported CapsuleBox version {head[4]} "
                f"(only version {VERSION} is supported)"
            )
        if size < _HEADER_LEN:
            raise FormatError("truncated CapsuleBox header")
        flags = head[5]
        header_len = int.from_bytes(head[6:8], "little")
        if flags:
            raise FormatError(f"unknown CapsuleBox flags 0x{flags:02x}")
        if header_len != _HEADER_LEN:
            raise FormatError(f"bad CapsuleBox header length {header_len}")
        bloom_off = int.from_bytes(head[8:12], "little")
        bloom_len = int.from_bytes(head[12:16], "little")
        meta_off = int.from_bytes(head[16:20], "little")
        meta_len = int.from_bytes(head[20:24], "little")
        payload_off = int.from_bytes(head[24:28], "little")
        payload_len = int.from_bytes(head[28:32], "little")
        # Sections must tile the blob exactly: contiguity pins every
        # offset to the lengths before it, and the final extent must end
        # at the end of the blob.
        if bloom_off != header_len:
            raise FormatError("CapsuleBox TOC: bloom section not contiguous")
        if meta_off != bloom_off + bloom_len:
            raise FormatError("CapsuleBox TOC: metadata section not contiguous")
        if payload_off != meta_off + meta_len:
            raise FormatError("CapsuleBox TOC: payload section not contiguous")
        if payload_off + payload_len != size:
            raise FormatError("CapsuleBox TOC: payload extent does not match blob size")
        return cls(
            bloom_off, bloom_len, meta_off, meta_len, payload_off, payload_len
        )


class GroupBox:
    """One group (static pattern + its encoded variable vectors).

    ``line_ids`` are the group's entry line ids within the block.  A
    group decoded from a box keeps them as the stored u32 deltas until
    first read: their prefix sum costs more than the rest of the
    group's metadata, and a query needs it only for the groups it
    reconstructs.
    """

    __slots__ = ("template", "vectors", "_line_ids", "_deltas")

    def __init__(
        self,
        template: Template,
        line_ids: Optional[List[int]],
        vectors: List[EncodedVector],
        deltas: Optional["array[int]"] = None,
    ):
        self.template = template
        self.vectors = vectors
        self._line_ids = line_ids
        self._deltas = deltas

    @property
    def line_ids(self) -> List[int]:
        line_ids = self._line_ids
        if line_ids is None:
            line_ids = self._line_ids = list(accumulate(self._deltas or ()))
        return line_ids

    @property
    def num_entries(self) -> int:
        if self._line_ids is None:
            return len(self._deltas or ())
        return len(self._line_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupBox):
            return NotImplemented
        return (self.template, self.line_ids, self.vectors) == (
            other.template, other.line_ids, other.vectors,
        )

    def __repr__(self) -> str:
        return (
            f"GroupBox(template={self.template!r}, "
            f"entries={self.num_entries}, vectors={len(self.vectors)})"
        )


@dataclass
class CapsuleBox:
    """All Capsules and metadata of one compressed log block."""

    block_id: int
    first_line_id: int
    num_lines: int
    padded: bool
    groups: List[GroupBox]

    def __post_init__(self) -> None:
        # The blob source capsules were loaded from (None for boxes built
        # in memory by the compressor); prefetch batches reads through it.
        self._source: Optional[BlobSource] = None
        # The query side's decoded vector state (repro.query.vectors
        # .box_readers), attached on first query: it lives exactly as
        # long as the box.
        self.readers: Optional[object] = None

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def serialize(self) -> bytes:
        """Serialize the box."""
        writer = BinaryWriter()
        blobs: List[bytes] = []
        offset = [0]

        writer.write_varint(self.block_id)
        writer.write_varint(self.first_line_id)
        writer.write_varint(self.num_lines)
        writer.write_u8(1 if self.padded else 0)
        writer.write_varint(len(self.groups))
        for group in self.groups:
            _write_template(writer, group.template)
            _write_line_ids(writer, group.line_ids)
            writer.write_varint(len(group.vectors))
            for vector in group.vectors:
                _write_vector(writer, vector, blobs, offset)

        meta = zlib.compress(writer.getvalue(), 6)
        payload = b"".join(blobs)
        bloom_off = _HEADER_LEN
        meta_off = bloom_off + len(_RETIRED_BLOOM)
        payload_off = meta_off + len(meta)
        toc = (
            _HEADER_LEN.to_bytes(2, "little")
            + bloom_off.to_bytes(4, "little")
            + len(_RETIRED_BLOOM).to_bytes(4, "little")
            + meta_off.to_bytes(4, "little")
            + len(meta).to_bytes(4, "little")
            + payload_off.to_bytes(4, "little")
            + len(payload).to_bytes(4, "little")
        )
        return MAGIC + bytes([VERSION, 0]) + toc + _RETIRED_BLOOM + meta + payload

    @classmethod
    def read_toc(cls, source: BlobSource) -> BoxTOC:
        """The parsed, validated header of a stored box."""
        return BoxTOC.read(source)

    @classmethod
    def deserialize(cls, data: bytes) -> "CapsuleBox":
        """Load a box from a fully-fetched blob."""
        return cls.open(BytesBlobSource(data, "<box>"))

    @classmethod
    def open(cls, source: BlobSource) -> "CapsuleBox":
        """Load a box through ranged reads: header + metadata only.

        Capsule payloads stay unfetched until first access; use
        :meth:`prefetch` to batch the ones a plan will need.
        """
        toc = BoxTOC.read(source)
        try:
            meta = zlib.decompress(source.read(toc.meta_off, toc.meta_len))
        except zlib.error as exc:
            raise FormatError(f"corrupt CapsuleBox metadata: {exc}") from exc
        try:
            box = _decode_meta(meta, source, toc)
        except (IndexError, struct.error) as exc:
            # The decoder indexes its buffer without bounds checks: a
            # read past the end of truncated metadata lands here.
            raise FormatError(_TRUNCATED) from exc
        except UnicodeDecodeError as exc:
            raise FormatError(f"corrupt CapsuleBox metadata: {exc}") from exc
        box._source = source
        return box

    # ------------------------------------------------------------------
    # payload prefetch
    # ------------------------------------------------------------------
    def prefetch(
        self,
        group_indices: Optional[Iterable[int]] = None,
        gap: int = PREFETCH_GAP,
    ) -> int:
        """Fetch the unfetched capsule payloads of the given groups (all
        groups when *group_indices* is None), coalescing adjacent extents
        into batched ranged reads.  Returns the bytes fetched.

        Reconstruction needs every vector of each hit group; fetching them
        one payload at a time would pay one store read per capsule, while
        the payloads of a group are adjacent by construction — one read
        per contiguous run covers them all.
        """
        source = self._source
        if source is None or isinstance(source, BytesBlobSource):
            # In-memory boxes have no extents; bytes-backed boxes already
            # hold the whole blob, so capsules slice it on demand.
            return 0
        groups = (
            self.groups
            if group_indices is None
            else [self.groups[i] for i in group_indices]
        )
        wanted: List[Capsule] = []
        for group in groups:
            for vector in group.vectors:
                for capsule in _capsules_of(vector):
                    if not capsule.is_fetched and capsule.payload_extent:
                        wanted.append(capsule)
        if not wanted:
            return 0
        extents = [c.payload_extent for c in wanted if c.payload_extent]
        runs = coalesce_extents(extents, gap=gap)
        buffers = [(off, source.read(off, length)) for off, length in runs]
        fetched = 0
        for capsule in wanted:
            extent = capsule.payload_extent
            if extent is None:  # pragma: no cover - filtered above
                continue
            off, length = extent
            for run_off, buf in buffers:
                if run_off <= off and off + length <= run_off + len(buf):
                    capsule.pin_payload(buf[off - run_off : off - run_off + length])
                    fetched += length
                    break
        return fetched

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def capsules(self) -> Iterator[Capsule]:
        """Every Capsule of the box, group by group, vector by vector."""
        for group in self.groups:
            for vector in group.vectors:
                yield from _capsules_of(vector)

    def capsule_count(self) -> int:
        return sum(1 for _ in self.capsules())

    def payload_bytes(self) -> int:
        # compressed_bytes comes from the extent for unfetched capsules,
        # so statistics never force a payload read.
        return sum(capsule.compressed_bytes for capsule in self.capsules())

    def codec_usage(self) -> Dict[str, Dict[str, int]]:
        """Capsules and stored payload bytes per codec name — what the
        size-keyed codec rule chose for this block — and, of those
        Capsules, how many are ``packed`` two characters per byte."""
        usage = {
            name: {"capsules": 0, "payload_bytes": 0, "packed": 0}
            for name in CODEC_NAMES.values()
        }
        for capsule in self.capsules():
            row = usage[CODEC_NAMES[capsule.codec]]
            row["capsules"] += 1
            row["payload_bytes"] += capsule.compressed_bytes
            row["packed"] += capsule.form != FORM_ASCII
        return usage

    def verify(self) -> List[str]:
        """Deep integrity check; returns a list of problems (empty = ok).

        Checks every Capsule's payload checksum, decompresses it, and
        validates the structural invariants (counts, widths).
        """
        problems: List[str] = []
        for group_idx, group in enumerate(self.groups):
            if len(group.line_ids) != group.num_entries:
                problems.append(f"group {group_idx}: line id count mismatch")
            for vector_idx, vector in enumerate(group.vectors):
                where = f"group {group_idx} vector {vector_idx}"
                for capsule in _capsules_of(vector):
                    if not capsule.verify_payload():
                        problems.append(f"{where}: payload checksum mismatch")
                        continue
                    try:
                        plain = capsule.plain()
                    except Exception as exc:  # corruption despite CRC
                        problems.append(f"{where}: undecodable payload ({exc})")
                        continue
                    if (
                        capsule.layout == 0
                        and capsule.width
                        and len(plain) != capsule.width * capsule.count
                    ):
                        problems.append(f"{where}: payload size mismatch")
        return problems


def _capsules_of(vector: EncodedVector) -> List[Capsule]:
    if isinstance(vector, RealEncodedVector):
        capsules = list(vector.subvar_capsules)
        if vector.outlier_capsule is not None:
            capsules.append(vector.outlier_capsule)
        return capsules
    if isinstance(vector, NominalEncodedVector):
        return [vector.dict_capsule, vector.index_capsule]
    return [vector.capsule]


# ----------------------------------------------------------------------
# templates
# ----------------------------------------------------------------------
def _write_template(writer: BinaryWriter, template: Template) -> None:
    writer.write_varint(template.template_id)
    writer.write_varint(len(template.tokens))
    for token in template.tokens:
        if token is None:
            writer.write_u8(1)
        else:
            writer.write_u8(0)
            writer.write_str(token)


def _write_line_ids(writer: BinaryWriter, line_ids: List[int]) -> None:
    # Strictly increasing within a group, so deltas are tiny and the u32
    # array's zero-heavy bytes vanish under the metadata zlib pass; parsing
    # back is C-speed, which keeps box loading off the query's critical
    # path (it dominated latency when these were per-entry varints).
    prev = 0
    deltas = []
    for line_id in line_ids:
        deltas.append(line_id - prev)
        prev = line_id
    writer.write_u32_array(deltas)


# ----------------------------------------------------------------------
# capsules with out-of-band payloads
# ----------------------------------------------------------------------
def _write_capsule(
    writer: BinaryWriter,
    capsule: Capsule,
    blobs: List[bytes],
    offset: List[int],
) -> None:
    writer.write_u8(capsule.layout)
    writer.write_varint(capsule.width)
    writer.write_varint(capsule.count)
    capsule.stamp.write(writer)
    # The codec byte: the entropy codec in the low nibble, the form
    # (alphabet and odd flag, FORM_*) in the high one.
    writer.write_u8(capsule.codec | capsule.form << 4)
    writer.write_u8(capsule.preset)
    writer.write_varint(offset[0])
    writer.write_varint(len(capsule.payload))
    # Payloads sit outside the zlib'd (self-checking) metadata stream, so
    # they carry their own checksum for `loggrep verify` / `CapsuleBox.
    # verify()`.  RAW-codec payloads would otherwise corrupt silently.
    writer.write_u32(zlib.crc32(capsule.payload))
    blobs.append(capsule.payload)
    offset[0] += len(capsule.payload)


# ----------------------------------------------------------------------
# encoded vectors
# ----------------------------------------------------------------------
def _write_vector(
    writer: BinaryWriter,
    vector: EncodedVector,
    blobs: List[bytes],
    offset: List[int],
) -> None:
    writer.write_u8(vector.tag)
    if isinstance(vector, RealEncodedVector):
        vector.pattern.write(writer)
        writer.write_varint(len(vector.subvar_capsules))
        for capsule in vector.subvar_capsules:
            _write_capsule(writer, capsule, blobs, offset)
        if vector.outlier_capsule is not None:
            writer.write_u8(1)
            _write_line_ids(writer, vector.outlier_rows)
            _write_capsule(writer, vector.outlier_capsule, blobs, offset)
        else:
            writer.write_u8(0)
        writer.write_varint(vector.num_rows)
    elif isinstance(vector, NominalEncodedVector):
        writer.write_varint(len(vector.dict_patterns))
        for dp in vector.dict_patterns:
            dp.pattern.write(writer)
            writer.write_varint(dp.count)
            writer.write_varint(dp.width)
            writer.write_u32_list(dp.subvar_masks)
            writer.write_u32_list(dp.subvar_maxlens)
        _write_capsule(writer, vector.dict_capsule, blobs, offset)
        _write_capsule(writer, vector.index_capsule, blobs, offset)
        writer.write_varint(vector.index_width)
        writer.write_varint(vector.num_rows)
        writer.write_varint(vector.dict_size)
    elif isinstance(vector, PlainEncodedVector):
        _write_capsule(writer, vector.capsule, blobs, offset)
        writer.write_varint(vector.num_rows)
    else:  # pragma: no cover - exhaustive over EncodedVector
        raise FormatError(f"unknown vector type {type(vector)!r}")


# ----------------------------------------------------------------------
# the decoder
# ----------------------------------------------------------------------
_TRUNCATED = "truncated CapsuleBox metadata: read past end of buffer"
_U32 = struct.Struct("<I")

def _decode_meta(data: bytes, source: BlobSource, toc: BoxTOC) -> CapsuleBox:
    """Build a box from its inflated LGCB v2 metadata in one pass.

    The read state is a local ``(data, pos)``: a u8 is one index, a
    varint takes :func:`_varint`'s one-byte branch, and Capsule, stamp
    and pattern objects are built straight from the fields.  Nothing
    here bounds-checks a single-byte read: past the end it raises
    ``IndexError`` (``struct.error`` for a u32), which
    :meth:`CapsuleBox.open` reports as a :class:`FormatError`.
    """
    stamps: Dict[Tuple[int, int], CapsuleStamp] = {}
    block_id, pos = _varint(data, 0)
    first_line_id, pos = _varint(data, pos)
    num_lines, pos = _varint(data, pos)
    padded = data[pos] == 1
    num_groups, pos = _varint(data, pos + 1)
    groups: List[GroupBox] = []
    for _ in range(num_groups):
        template_id, pos = _varint(data, pos)
        num_tokens, pos = _varint(data, pos)
        tokens: List[Optional[str]] = []
        for _ in range(num_tokens):
            pos += 1
            if data[pos - 1] == 1:
                tokens.append(None)
            else:
                start, pos = _span(data, pos)
                tokens.append(data[start:pos].decode())
        deltas, pos = _deltas_at(data, pos)
        num_vectors, pos = _varint(data, pos)
        vectors: List[EncodedVector] = []
        for _ in range(num_vectors):
            tag = data[pos]
            pos += 1
            vector: EncodedVector
            if tag == ENC_REAL:
                pattern, pos = _pattern_at(data, pos)
                num_capsules, pos = _varint(data, pos)
                capsules: List[Capsule] = []
                for _ in range(num_capsules):
                    capsule, pos = _capsule_at(data, pos, source, toc, stamps)
                    capsules.append(capsule)
                outlier: Optional[Capsule] = None
                outlier_rows: List[int] = []
                pos += 1
                if data[pos - 1] == 1:
                    outlier_deltas, pos = _deltas_at(data, pos)
                    outlier_rows = list(accumulate(outlier_deltas))
                    outlier, pos = _capsule_at(data, pos, source, toc, stamps)
                num_rows, pos = _varint(data, pos)
                vector = RealEncodedVector(
                    pattern, capsules, outlier, outlier_rows, num_rows
                )
            elif tag == ENC_NOMINAL:
                num_patterns, pos = _varint(data, pos)
                dict_patterns: List[DictPattern] = []
                for _ in range(num_patterns):
                    pattern, pos = _pattern_at(data, pos)
                    count, pos = _varint(data, pos)
                    width, pos = _varint(data, pos)
                    masks, pos = _varints_at(data, pos)
                    maxlens, pos = _varints_at(data, pos)
                    dict_patterns.append(
                        DictPattern(pattern, count, width, masks, maxlens)
                    )
                dict_capsule, pos = _capsule_at(data, pos, source, toc, stamps)
                index_capsule, pos = _capsule_at(data, pos, source, toc, stamps)
                index_width, pos = _varint(data, pos)
                num_rows, pos = _varint(data, pos)
                dict_size, pos = _varint(data, pos)
                vector = NominalEncodedVector(
                    dict_patterns, dict_capsule, index_capsule, index_width,
                    num_rows, dict_size,
                )
            elif tag == ENC_PLAIN:
                capsule, pos = _capsule_at(data, pos, source, toc, stamps)
                num_rows, pos = _varint(data, pos)
                vector = PlainEncodedVector(capsule, num_rows)
            else:
                raise FormatError(f"unknown encoded-vector tag {tag}")
            vectors.append(vector)
        groups.append(GroupBox(Template(template_id, tokens), None, vectors, deltas))
    return CapsuleBox(block_id, first_line_id, num_lines, padded, groups)


def _varint(data: bytes, pos: int) -> Tuple[int, int]:
    """``(value, end)`` of the varint at *pos*.  Nearly every metadata
    varint is one byte, and that case returns on the first branch."""
    byte = data[pos]
    if byte < 0x80:
        return byte, pos + 1
    value = shift = 0
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise FormatError("varint too long")


def _span(data: bytes, pos: int) -> Tuple[int, int]:
    """``(start, end)`` of the length-prefixed bytes at *pos*; a slice
    never fails on its own, so the length is checked here."""
    length, start = _varint(data, pos)
    end = start + length
    if end > len(data):
        raise FormatError(_TRUNCATED)
    return start, end


def _varints_at(data: bytes, pos: int) -> Tuple[List[int], int]:
    """A count-prefixed list of varints (``BinaryWriter.write_u32_list``)."""
    count, pos = _varint(data, pos)
    out: List[int] = []
    for _ in range(count):
        value, pos = _varint(data, pos)
        out.append(value)
    return out, pos


def _deltas_at(data: bytes, pos: int) -> Tuple["array[int]", int]:
    """The u32 deltas of a line-id list (see :func:`_write_line_ids`)."""
    start, end = _span(data, pos)
    if (end - start) % 4:
        raise FormatError("line-id array is not a whole number of u32s")
    deltas = array("I")
    deltas.frombytes(memoryview(data)[start:end])
    return deltas, end


def _pattern_at(data: bytes, pos: int) -> Tuple[RuntimePattern, int]:
    """A runtime-pattern record: ``(pattern, end)``.

    Elements are kept as stored, not re-normalized, so a re-serialized
    box is byte-identical to the one read."""
    count, pos = _varint(data, pos)
    elements: List[Element] = []
    for _ in range(count):
        pos += 1
        if data[pos - 1] == 0:
            text_start, pos = _span(data, pos)
            elements.append(Const(data[text_start:pos].decode()))
        else:
            index, pos = _varint(data, pos)
            elements.append(SubVar(index))
    pattern = RuntimePattern.__new__(RuntimePattern)
    pattern.elements = elements
    return pattern, pos


def _capsule_at(
    data: bytes,
    pos: int,
    source: BlobSource,
    toc: BoxTOC,
    stamps: Dict[Tuple[int, int], CapsuleStamp],
) -> Tuple[Capsule, int]:
    """One capsule record (see :func:`_write_capsule`).  Stamps are
    shared through *stamps*: a box repeats few distinct ones."""
    layout = data[pos]
    width, pos = _varint(data, pos + 1)
    count, pos = _varint(data, pos)
    mask = data[pos]
    max_len, pos = _varint(data, pos + 1)
    stamp = stamps.get((mask, max_len))
    if stamp is None:
        stamp = stamps[mask, max_len] = CapsuleStamp(mask, max_len)
    codec = data[pos] & 0x0F
    form = data[pos] >> 4
    if form not in FORMS:
        raise FormatError(f"unknown capsule form {form}")
    preset = data[pos + 1]
    pos += 2
    off, pos = _varint(data, pos)
    length, pos = _varint(data, pos)
    (crc,) = _U32.unpack_from(data, pos)
    # Validate the extent against the TOC *now*: a corrupt offset must be
    # a FormatError at load time, not a failed ranged read at first use.
    if off + length > toc.payload_len:
        raise FormatError("capsule payload out of range")
    capsule = Capsule(
        layout, width, count, stamp, codec, preset,
        source=source, extent=(toc.payload_off + off, length), form=form,
    )
    capsule.expected_crc = crc
    return capsule, pos + 4
