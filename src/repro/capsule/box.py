"""CapsuleBox: the on-disk unit holding one compressed log block (Fig 1).

A CapsuleBox contains every Capsule of a block plus the metadata needed to
query and reconstruct it: static patterns (templates), the group of every
line, runtime patterns and Capsule stamps.

Layout (LGCB v3)::

    MAGIC "LGCB" | version u8 (=3) | flags u8 (=0) | header_len u16 (=16)
    | meta_len u32 | payload_len u32
    | zlib(meta) | payload blobs

The fixed 16-byte header is a table of contents: the metadata follows it
and the payload section follows the metadata, so a reader can fetch the
metadata or one capsule payload with an independent ranged read — nothing
forces pulling the whole blob.  The header is validated strictly (flags,
header length, total size), so any single-byte header corruption is
detected before bytes are trusted.

The metadata holds the block's **group-id column** — one u8 cell per line
(u16 above 255 groups, u32 above 65 535) naming the group the line
belongs to — in place of per-group line-id arrays: a group's entry count
is the count of its id in the column, and its line ids are the positions
of its id, found with one C-level pass over the column the first time
that group's are read.  Every Capsule record sits in one columnar
**Capsule table** at the end of the metadata, decoded with one
``struct`` call; payload offsets are the prefix sums of the stored
lengths.

Opening a box *skims* its metadata (:func:`_skim_meta`): it decodes the
header, the group-id column, each group's template and the Capsule table
(kept as the raw fields of one ``struct`` call), and walks every vector
record once to validate it against the table and the column and to note
its offset, its Capsules and its vector stamp (:func:`vector_stamp`).
A vector's objects — pattern, outlier rows, dictionary patterns and
Capsules — are built on first use (:class:`_Skim`), so a query pays for
the records it reads, and the stamp gate of Match needs none built.
Nearly every varint and span length in the metadata is below 0x80, so
those are read inline as one byte, and the varint and span helpers run
only for multi-byte values; every span end is still checked against the
buffer.

Version 3 is the only version read or written; any other version byte
(the retired 13-byte-header v1 and 32-byte-header v2 included) is a
:class:`FormatError` naming the version found.

Capsule payloads live *outside* the zlib'd metadata, at the offsets the
Capsule table implies.  Deserialized capsules are **lazy**: they hold
their extent plus a :class:`~repro.blockstore.blobsource.BlobSource` and
fetch bytes on first access (or batched, via :meth:`CapsuleBox.prefetch`)
— the selective-decompression property of the paper extended down to
selective *fetching*.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, compress
from typing import (
    Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union,
    overload,
)

from ..blockstore.blobsource import BlobSource, BytesBlobSource, coalesce_extents
from ..common.binio import BinaryWriter
from ..common.chartypes import fragment_mask
from ..common.errors import FormatError
from ..obs import ledger as ledger_channel
from ..obs.metrics import get_registry
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
VERSION = 3

#: ``MAGIC | version | flags | header_len | meta_len | payload_len``.
_HEADER = struct.Struct("<4sBBHII")
_HEADER_LEN = _HEADER.size

#: Payload extents closer than this are fetched as one ranged read: the
#: per-read fixed cost (seek / object-store request) dwarfs a few hundred
#: over-read bytes.
PREFETCH_GAP = 256

#: The Capsule table's columns, in stored order: layout, width, count,
#: stamp mask, stamp max_len, codec | form << 4, preset, payload length,
#: payload CRC32.  Each column holds one cell per Capsule.
_TABLE_CODES = "BIIBIBBII"

#: Every codec byte a reader accepts: any codec nibble under a known form.
_CODEC_BYTES = frozenset(codec | form << 4 for form in FORMS for codec in range(16))

#: A group-id cell: the narrowest unsigned type whose all-ones value is
#: not a group id (it marks an unassigned line while the column is built).
_CELL_TYPES = ((255, "B"), (65535, "H"), (0xFFFFFFFF, "I"))

#: A group-id column: ``bytes`` for u8 cells, an ``array`` for wider ones.
Column = Union[bytes, "array[int]"]

_VECTORS_BUILT = get_registry().counter(
    "loggrep_box_vectors_built_total",
    "Vector records of opened boxes built into vector and Capsule objects",
)


@dataclass(frozen=True)
class BoxTOC:
    """Parsed header: the byte extent of every section of a box."""

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
        _, _, flags, header_len, meta_len, payload_len = _HEADER.unpack(head)
        if flags:
            raise FormatError(f"unknown CapsuleBox flags 0x{flags:02x}")
        if header_len != _HEADER_LEN:
            raise FormatError(f"bad CapsuleBox header length {header_len}")
        # The two sections follow the header back to back and must end
        # exactly at the end of the blob.
        if header_len + meta_len + payload_len != size:
            raise FormatError(
                "CapsuleBox TOC: section lengths do not match blob size"
            )
        return cls(header_len, meta_len, header_len + meta_len, payload_len)


#: A vector stamp: ``(type mask, max value length, Capsules owned)``.
VectorStamp = Tuple[int, int, int]


class GroupBox:
    """One group (static pattern + its encoded variable vectors).

    ``line_ids`` are the group's entry line ids within the block.  A
    group decoded from a box holds only its entry count until its line
    ids are first read; they are then the positions of its id in the
    box's group-id column (:func:`_positions`), found once, since a
    query needs them only for the groups it reconstructs.  Its
    ``vectors`` are built record by record on first use (see
    :class:`_Skim`), and its ``stamps`` come from the skim.
    """

    __slots__ = (
        "template", "vectors", "num_entries", "_line_ids", "_column", "_index",
        "_stamps",
    )

    def __init__(
        self,
        template: Template,
        line_ids: List[int],
        vectors: List[EncodedVector],
    ):
        self.template = template
        self.vectors: Sequence[EncodedVector] = vectors
        self.num_entries = len(line_ids)
        self._line_ids: Optional[List[int]] = line_ids
        self._column: Optional[Column] = None
        self._index = 0
        self._stamps: Optional[Sequence[VectorStamp]] = None

    @classmethod
    def _decoded(
        cls,
        template: Template,
        vectors: "_Vectors",
        column: Column,
        index: int,
        num_entries: int,
        stamps: Sequence[VectorStamp],
    ) -> "GroupBox":
        group = cls.__new__(cls)
        group.template = template
        group.vectors = vectors
        group.num_entries = num_entries
        group._line_ids = None
        group._column = column
        group._index = index
        group._stamps = stamps
        return group

    @property
    def line_ids(self) -> List[int]:
        line_ids = self._line_ids
        if line_ids is None:
            assert self._column is not None
            line_ids = self._line_ids = _positions(self._column, self._index)
        return line_ids

    @property
    def stamps(self) -> Sequence[VectorStamp]:
        """The :func:`vector_stamp` of each vector: read off the skim for
        a decoded group, so no vector is built for it."""
        stamps = self._stamps
        if stamps is None:
            stamps = self._stamps = [vector_stamp(v) for v in self.vectors]
        return stamps

    def vector_tag(self, var_idx: int) -> int:
        """The encoding tag (``ENC_*``) of a vector, read off a decoded
        group's skimmed record without building the vector."""
        vectors = self.vectors
        if isinstance(vectors, _Vectors):
            return vectors.tag(var_idx)
        return vectors[var_idx].tag

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


@dataclass(frozen=True)
class BoxLayout:
    """Where the bytes of one stored box go (``loggrep stats``).

    ``meta_bytes`` is the stored (zlib'd) metadata section; the column
    and the Capsule table are measured inside it before zlib, where each
    has an exact size.
    """

    meta_bytes: int
    meta_inflated_bytes: int
    column_bytes: int
    capsule_table_bytes: int
    payload_bytes: int


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
        # The stored group-id column of a decoded box (None for boxes
        # built in memory, whose groups hold their line ids).
        self._column: Optional[Column] = None
        # The query side's decoded vector state (repro.query.vectors
        # .box_readers), attached on first query: it lives exactly as
        # long as the box.
        self.readers: Optional[object] = None

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def _group_column(self) -> Column:
        """One group id per line of the block (see the module docstring).

        A decoded box returns its stored column; a box built in memory
        derives it from its groups' line ids, which must partition
        ``range(num_lines)`` in increasing order within each group.
        """
        if self._column is not None:
            return self._column
        unset, typecode = _cell_type(len(self.groups))
        column: Union[bytearray, "array[int]"] = (
            bytearray(b"\xff") * self.num_lines
            if typecode == "B"
            else array(typecode, [unset]) * self.num_lines
        )
        total = 0
        for group_idx, group in enumerate(self.groups):
            line_ids = group.line_ids
            if any(vector.num_rows != len(line_ids) for vector in group.vectors):
                raise FormatError(
                    f"group {group_idx}: a vector's row count is not the "
                    f"group's {len(line_ids)} entries"
                )
            if line_ids and (
                line_ids[0] < 0
                or line_ids[-1] >= self.num_lines
                or line_ids != sorted(line_ids)
            ):
                raise FormatError(
                    f"group {group_idx}: line ids are not increasing "
                    f"within [0, {self.num_lines})"
                )
            for line_id in line_ids:
                column[line_id] = group_idx
            total += len(line_ids)
        if total != self.num_lines or unset in column:
            raise FormatError(
                f"group line ids do not cover the block's {self.num_lines} "
                "lines exactly once"
            )
        return bytes(column) if isinstance(column, bytearray) else column

    def serialize(self) -> bytes:
        """Serialize the box (LGCB v3)."""
        capsules = list(self.capsules())
        writer = BinaryWriter()
        writer.write_varint(self.block_id)
        writer.write_varint(self.first_line_id)
        writer.write_varint(self.num_lines)
        writer.write_u8(1 if self.padded else 0)
        writer.write_varint(len(self.groups))
        writer.write_varint(len(capsules))
        writer.write_bytes(_little_endian(self._group_column()))
        for group in self.groups:
            _write_template(writer, group.template)
            writer.write_varint(len(group.vectors))
            for vector in group.vectors:
                _write_vector(writer, vector)
        payloads = [capsule.payload for capsule in capsules]
        _write_capsule_table(writer, capsules, payloads)
        meta = zlib.compress(writer.getvalue(), 6)
        payload = b"".join(payloads)
        header = _HEADER.pack(
            MAGIC, VERSION, 0, _HEADER_LEN, len(meta), len(payload)
        )
        return header + meta + payload

    @classmethod
    def deserialize(cls, data: bytes) -> "CapsuleBox":
        """Load a box from a fully-fetched blob."""
        return cls.open(BytesBlobSource(data, "<box>"))

    @classmethod
    def open(cls, source: BlobSource) -> "CapsuleBox":
        """Load a box through ranged reads: header + metadata only.

        The metadata is skimmed (:func:`_skim_meta`): every vector record
        is validated, but its objects are built on first use.  Capsule
        payloads stay unfetched until first access; use :meth:`prefetch`
        to batch the ones a plan will need.
        """
        toc = BoxTOC.read(source)
        meta = _inflate(source.read(toc.meta_off, toc.meta_len))
        try:
            box = _skim_meta(meta, source, toc)
        except _DECODER_FAULTS as exc:
            raise _format_error(exc) from exc
        box._source = source
        return box

    @classmethod
    def layout(cls, data: bytes) -> BoxLayout:
        """Byte accounting of the stored box *data*, section by section."""
        toc = BoxTOC.read(BytesBlobSource(data, "<box>"))
        meta = _inflate(data[toc.meta_off : toc.meta_off + toc.meta_len])
        try:
            prefix = _MetaPrefix.read(meta)
        except (IndexError, struct.error) as exc:
            raise FormatError(_TRUNCATED) from exc
        return BoxLayout(
            meta_bytes=toc.meta_len,
            meta_inflated_bytes=len(meta),
            column_bytes=prefix.column_end - prefix.column_start,
            capsule_table_bytes=_table_struct(prefix.num_capsules).size,
            payload_bytes=toc.payload_len,
        )

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
        """Every Capsule of the box, group by group, vector by vector —
        the order of the Capsule table and of the payload section."""
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


def vector_stamp(vector: EncodedVector) -> VectorStamp:
    """The stamp of a whole vector: every character class and the
    longest length any of its values can have, and the number of
    Capsules a search of it considers (all of the vector's own).

    A real vector's pattern-matched value is its constants and one value
    of each sub-variable Capsule, so the classes are the union of theirs
    and the length at most the constants' lengths plus each Capsule's
    ``max_len``; an outlier adds its Capsule's stamp.  Every value of a
    nominal vector is a dictionary entry, so the dictionary Capsule's
    stamp covers it, and a plain vector's Capsule is its stamp.  A
    literal fragment whose classes or length fall outside this stamp
    occurs in no value: the Locator would reject every Capsule.
    :func:`_skim_meta` computes the same triple from the stored record.
    """
    if isinstance(vector, RealEncodedVector):
        mask = length = 0
        capsules = vector.subvar_capsules
        for element in vector.pattern.elements:
            if isinstance(element, Const):
                mask |= fragment_mask(element.text)
                length += len(element.text)
            else:
                stamp = capsules[element.index].stamp
                mask |= stamp.type_mask
                length += stamp.max_len
        outlier = vector.outlier_capsule
        if outlier is None:
            return mask, length, len(capsules)
        stamp = outlier.stamp
        return mask | stamp.type_mask, max(length, stamp.max_len), len(capsules) + 1
    if isinstance(vector, NominalEncodedVector):
        stamp = vector.dict_capsule.stamp
        return stamp.type_mask, stamp.max_len, 2
    stamp = vector.capsule.stamp
    return stamp.type_mask, stamp.max_len, 1


# ----------------------------------------------------------------------
# fixed-width columns
# ----------------------------------------------------------------------
def _cell_type(num_groups: int) -> Tuple[int, str]:
    """``(unset, typecode)`` of a group-id cell for *num_groups* groups:
    the cell's all-ones value, never a group id, and its array type."""
    for unset, typecode in _CELL_TYPES:
        if num_groups <= unset:
            return unset, typecode
    raise FormatError(f"{num_groups} groups do not fit a group-id column")


def _little_endian(column: Column) -> bytes:
    if isinstance(column, bytes):
        return column
    if sys.byteorder == "big":  # pragma: no cover - big-endian hosts
        column = array(column.typecode, column)
        column.byteswap()
    return column.tobytes()


@lru_cache(maxsize=256)
def _table_struct(count: int) -> struct.Struct:
    """The Capsule table of *count* Capsules: one column per field."""
    return struct.Struct("<" + "".join(f"{count}{code}" for code in _TABLE_CODES))


def _write_capsule_table(
    writer: BinaryWriter, capsules: Sequence[Capsule], payloads: Sequence[bytes]
) -> None:
    # Payloads sit outside the zlib'd (self-checking) metadata stream, so
    # they carry their own checksum for `loggrep verify` / `CapsuleBox.
    # verify()`.  RAW-codec payloads would otherwise corrupt silently.
    writer.write_raw(
        _table_struct(len(capsules)).pack(
            *(capsule.layout for capsule in capsules),
            *(capsule.width for capsule in capsules),
            *(capsule.count for capsule in capsules),
            *(capsule.stamp.type_mask for capsule in capsules),
            *(capsule.stamp.max_len for capsule in capsules),
            # The entropy codec in the low nibble, the form (alphabet and
            # odd flag, FORM_*) in the high one.
            *(capsule.codec | capsule.form << 4 for capsule in capsules),
            *(capsule.preset for capsule in capsules),
            *map(len, payloads),
            *map(zlib.crc32, payloads),
        )
    )


# ----------------------------------------------------------------------
# templates and encoded vectors
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


def _write_vector(writer: BinaryWriter, vector: EncodedVector) -> None:
    """A vector record; its Capsules are rows of the Capsule table."""
    writer.write_u8(vector.tag)
    if isinstance(vector, RealEncodedVector):
        vector.pattern.write(writer)
        writer.write_varint(len(vector.subvar_capsules))
        if vector.outlier_capsule is not None:
            writer.write_u8(1)
            # Strictly increasing, so deltas are tiny and the u32 array's
            # zero-heavy bytes vanish under the metadata zlib pass.
            writer.write_u32_array(
                [b - a for a, b in zip([0, *vector.outlier_rows], vector.outlier_rows)]
            )
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
        writer.write_varint(vector.index_width)
        writer.write_varint(vector.num_rows)
        writer.write_varint(vector.dict_size)
    elif isinstance(vector, PlainEncodedVector):
        writer.write_varint(vector.num_rows)
    else:  # pragma: no cover - exhaustive over EncodedVector
        raise FormatError(f"unknown vector type {type(vector)!r}")


# ----------------------------------------------------------------------
# the decoder
# ----------------------------------------------------------------------
_TRUNCATED = "truncated CapsuleBox metadata: read past end of buffer"


def _inflate(packed: bytes) -> bytes:
    try:
        return zlib.decompress(packed)
    except zlib.error as exc:
        raise FormatError(f"corrupt CapsuleBox metadata: {exc}") from exc


class _MetaPrefix(NamedTuple):
    """The fields at the head of the inflated metadata, up to the end of
    the group-id column."""

    block_id: int
    first_line_id: int
    num_lines: int
    padded: bool
    num_groups: int
    num_capsules: int
    column_start: int
    column_end: int

    @classmethod
    def read(cls, data: bytes) -> "_MetaPrefix":
        block_id, pos = _varint(data, 0)
        first_line_id, pos = _varint(data, pos)
        num_lines, pos = _varint(data, pos)
        padded = data[pos] == 1
        num_groups = data[pos + 1]
        if num_groups < 0x80:
            pos += 2
        else:
            num_groups, pos = _varint(data, pos + 1)
        num_capsules = data[pos]
        if num_capsules < 0x80:
            pos += 1
        else:
            num_capsules, pos = _varint(data, pos)
        start, end = _span(data, pos)
        return cls(
            block_id, first_line_id, num_lines, padded, num_groups,
            num_capsules, start, end,
        )


def _skim_meta(data: bytes, source: BlobSource, toc: BoxTOC) -> CapsuleBox:
    """Open a box from its inflated LGCB v3 metadata, building no vector.

    The skim decodes the prefix, the group-id column, each group's
    template and the Capsule table (one ``struct`` call, kept as raw
    rows), then walks every vector record once: it checks the record
    against the table and the column exactly as a full decode would, and
    keeps the record's offset, its first Capsule and its
    :func:`vector_stamp`, all read off the record and the table.  The
    vector's objects are built by :class:`_Skim` on first use.

    The read state is a local ``(data, pos)``: a u8 is one index, and so
    is a varint or a span length below 0x80 — nearly every one in a box —
    read inline, with :func:`_varint` / :func:`_span` called only for a
    multi-byte value.  Every span end is checked against the buffer,
    inline or not.  Nothing here bounds-checks a single-byte read: past
    the end it raises ``IndexError`` (``struct.error`` for a fixed-width
    field), which :meth:`CapsuleBox.open` reports as a
    :class:`FormatError`.
    """
    head = _MetaPrefix.read(data)
    column, counts = _column_at(data, head)
    n = head.num_capsules
    table = _table_struct(n)
    table_off = len(data) - table.size
    if table_off < head.column_end:
        raise FormatError(_TRUNCATED)
    fields = table.unpack_from(data, table_off)
    columns = [fields[i * n : (i + 1) * n] for i in range(len(_TABLE_CODES))]
    _, _, _, masks, max_lens, codecs, _, lengths, _ = columns
    # Validate the extents against the TOC *now*: a corrupt length must be
    # a FormatError at open, not a failed ranged read at first use.
    offsets = list(accumulate(lengths, initial=toc.payload_off))
    if offsets[-1] != toc.payload_off + toc.payload_len:
        raise FormatError(
            f"Capsule table: payload lengths sum to "
            f"{offsets[-1] - toc.payload_off}, the payload section holds "
            f"{toc.payload_len}"
        )
    if not _CODEC_BYTES.issuperset(codecs):
        form = next(c >> 4 for c in codecs if c not in _CODEC_BYTES)
        raise FormatError(f"unknown capsule form {form}")
    records: List[int] = []
    firsts: List[int] = []
    stamps: List[VectorStamp] = []
    consts: Dict[bytes, Tuple[int, int]] = {}
    skim = _Skim(data, list(zip(*columns, offsets)), source, records, firsts)
    end = len(data)
    pos = head.column_end
    taken = 0
    groups: List[GroupBox] = []
    for group_idx in range(head.num_groups):
        template_id = data[pos]
        if template_id < 0x80:
            pos += 1
        else:
            template_id, pos = _varint(data, pos)
        num_tokens = data[pos]
        if num_tokens < 0x80:
            pos += 1
        else:
            num_tokens, pos = _varint(data, pos)
        tokens: List[Optional[str]] = []
        for _ in range(num_tokens):
            if data[pos] == 1:
                pos += 1
                tokens.append(None)
                continue
            length = data[pos + 1]
            if length < 0x80:
                start = pos + 2
                pos = start + length
                if pos > end:
                    raise FormatError(_TRUNCATED)
            else:
                start, pos = _span(data, pos + 1)
            tokens.append(data[start:pos].decode())
        num_vectors = data[pos]
        if num_vectors < 0x80:
            pos += 1
        else:
            num_vectors, pos = _varint(data, pos)
        count_here = counts[group_idx]
        low = len(records)
        for _ in range(num_vectors):
            records.append(pos)
            firsts.append(taken)
            tag = data[pos]
            pos += 1
            stamp: VectorStamp
            if tag == ENC_REAL:
                # The pattern, read for its stamp: its constants' classes
                # and lengths here, its sub-variables' below, once their
                # count is known.
                mask = length = 0
                subvars = []
                num_elements = data[pos]
                if num_elements < 0x80:
                    pos += 1
                else:
                    num_elements, pos = _varint(data, pos)
                for _ in range(num_elements):
                    value = data[pos + 1]
                    if value < 0x80:
                        kind = data[pos]
                        pos += 2
                    else:
                        kind = data[pos]
                        value, pos = _varint(data, pos + 1)
                    if kind:
                        subvars.append(value)
                        continue
                    start = pos
                    pos += value
                    if pos > end:
                        raise FormatError(_TRUNCATED)
                    raw = data[start:pos]
                    const = consts.get(raw)
                    if const is None:
                        text = raw.decode()
                        const = consts[raw] = (fragment_mask(text), len(text))
                    mask |= const[0]
                    length += const[1]
                num_subvars = data[pos]
                if num_subvars < 0x80:
                    pos += 1
                else:
                    num_subvars, pos = _varint(data, pos)
                first = taken
                taken += num_subvars
                pos += 1
                outlier = data[pos - 1] == 1
                if outlier:
                    start, pos = _span(data, pos)
                    if (pos - start) % 4:
                        raise FormatError(
                            "outlier-row array is not a whole number of u32s"
                        )
                    taken += 1
                num_rows = data[pos]
                if num_rows < 0x80:
                    pos += 1
                else:
                    num_rows, pos = _varint(data, pos)
                for index in subvars:
                    if index < num_subvars:
                        mask |= masks[first + index]
                        length += max_lens[first + index]
                    elif num_rows:  # an empty vector stores no sub-variable
                        raise FormatError(
                            f"a runtime pattern names sub-variable {index} "
                            f"of a vector of {num_subvars}"
                        )
                if outlier:
                    mask |= masks[taken - 1]
                    length = max(length, max_lens[taken - 1])
                stamp = (mask, length, taken - first)
            elif tag == ENC_NOMINAL:
                # Dictionary patterns, counts, widths and sub-variable
                # stamps are passed over: the vector's stamp is its
                # dictionary Capsule's.
                num_patterns, pos = _varint(data, pos)
                for _ in range(num_patterns):
                    pos = _skip_pattern(data, pos)
                    pos = _skip_varints(data, pos, 2)  # count, width
                    pos = _skip_list(data, pos)  # sub-variable masks
                    pos = _skip_list(data, pos)  # sub-variable max lengths
                pos = _skip_varints(data, pos, 1)  # index width
                num_rows, pos = _varint(data, pos)
                pos = _skip_varints(data, pos, 1)  # dictionary size
                stamp = (masks[taken], max_lens[taken], 2)
                taken += 2
            elif tag == ENC_PLAIN:
                num_rows = data[pos]
                if num_rows < 0x80:
                    pos += 1
                else:
                    num_rows, pos = _varint(data, pos)
                stamp = (masks[taken], max_lens[taken], 1)
                taken += 1
            else:
                raise FormatError(f"unknown encoded-vector tag {tag}")
            if num_rows != count_here:
                raise FormatError(
                    f"group {group_idx}: a vector holds {num_rows} rows, "
                    f"the group-id column {count_here}"
                )
            stamps.append(stamp)
        groups.append(
            GroupBox._decoded(
                Template(template_id, tokens),
                _Vectors(skim, low, len(records)),
                column, group_idx, count_here, stamps[low:],
            )
        )
    if pos != table_off or taken != n:
        raise FormatError(
            "CapsuleBox metadata: the vector records and the Capsule "
            "table disagree"
        )
    firsts.append(taken)
    box = CapsuleBox(
        head.block_id, head.first_line_id, head.num_lines, head.padded, groups
    )
    box._column = column
    return box


class _Skim:
    """What a box open keeps of the metadata to build vectors later: the
    inflated bytes, the Capsule table's rows (each with its payload
    offset), and per vector record its offset and first Capsule (the
    Capsules of record *k* are ``firsts[k]`` up to ``firsts[k + 1]``).

    A record is built — its pattern objects, outlier rows, dictionary
    patterns and Capsules — by :meth:`build` or :meth:`vectors` and
    published with one atomic ``dict.setdefault``: of two threads racing
    to build it one object is kept, every caller gets that one, and only
    its publisher counts it.
    """

    __slots__ = ("data", "table", "source", "records", "firsts", "built",
                 "consts")

    def __init__(
        self,
        data: bytes,
        table: List[Tuple[int, ...]],
        source: BlobSource,
        records: List[int],
        firsts: List[int],
    ):
        self.data = data
        self.table = table
        self.source = source
        self.records = records
        self.firsts = firsts
        self.built: Dict[int, EncodedVector] = {}
        # The box's pattern constants by stored bytes: one object serves
        # every repeat, as in _pattern_at.
        self.consts: Dict[bytes, Const] = {}

    def build(self, k: int) -> EncodedVector:
        """The vector of record *k*, which no caller has seen built."""
        vector, made = self._publish(k)
        if made:
            _count_built(1)
        return vector

    def vectors(self, start: int, stop: int) -> List[EncodedVector]:
        """The vectors of records ``start`` up to ``stop``, each built
        on first use; the builds are counted once per call."""
        built = self.built
        out = []
        made_here = 0
        for k in range(start, stop):
            vector = built.get(k)
            if vector is None:
                vector, made = self._publish(k)
                made_here += made
            out.append(vector)
        if made_here:
            _count_built(made_here)
        return out

    def _publish(self, k: int) -> Tuple[EncodedVector, bool]:
        """Build record *k*: the published vector, and whether this
        call published it."""
        try:
            made = self._build(k)
        except _DECODER_FAULTS as exc:
            raise _format_error(exc) from exc
        vector = self.built.setdefault(k, made)
        return vector, vector is made

    def _build(self, k: int) -> EncodedVector:
        """The vector of record *k*, whose structure the skim checked: a
        count it also has (Capsules, rows) is skipped, not decoded."""
        data = self.data
        pos = self.records[k] + 1
        source = self.source
        stored = Capsule.stored
        capsules = [
            stored(
                layout, width, count, _stamp(mask, max_len), codec & 0x0F,
                preset, codec >> 4, source, (offset, length), crc,
            )
            for layout, width, count, mask, max_len, codec, preset, length, crc, offset
            in self.table[self.firsts[k] : self.firsts[k + 1]]
        ]
        tag = data[pos - 1]
        if tag == ENC_REAL:
            pattern, pos = _pattern_at(data, pos, self.consts)
            while data[pos] >= 0x80:  # the sub-variable count
                pos += 1
            if data[pos + 1] == 1:
                deltas, pos = _deltas_at(data, pos + 2)
                outlier: Optional[Capsule] = capsules.pop()
                outlier_rows = list(accumulate(deltas))
            else:
                pos += 2
                outlier = None
                outlier_rows = []
            num_rows = data[pos]
            return RealEncodedVector(
                pattern, capsules, outlier, outlier_rows,
                num_rows if num_rows < 0x80 else _varint(data, pos)[0],
            )
        if tag == ENC_NOMINAL:
            num_patterns, pos = _varint(data, pos)
            dict_patterns: List[DictPattern] = []
            for _ in range(num_patterns):
                pattern, pos = _pattern_at(data, pos, self.consts)
                count, pos = _varint(data, pos)
                width, pos = _varint(data, pos)
                masks, pos = _varints_at(data, pos)
                maxlens, pos = _varints_at(data, pos)
                dict_patterns.append(
                    DictPattern(pattern, count, width, masks, maxlens)
                )
            index_width, pos = _varint(data, pos)
            num_rows, pos = _varint(data, pos)
            dict_size, pos = _varint(data, pos)
            return NominalEncodedVector(
                dict_patterns, capsules[0], capsules[1], index_width,
                num_rows, dict_size,
            )
        return PlainEncodedVector(capsules[0], _varint(data, pos)[0])


class _Vectors(Sequence[EncodedVector]):
    """A decoded group's vectors: records ``start`` up to ``stop`` of its
    box's :class:`_Skim`, each built when it is first indexed."""

    __slots__ = ("_skim", "_start", "_stop")

    def __init__(self, skim: _Skim, start: int, stop: int):
        self._skim = skim
        self._start = start
        self._stop = stop

    def __len__(self) -> int:
        return self._stop - self._start

    @overload
    def __getitem__(self, index: int) -> EncodedVector: ...

    @overload
    def __getitem__(self, index: slice) -> List[EncodedVector]: ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        size = self._stop - self._start
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("vector index out of range")
        k = self._start + index
        return self._skim.built.get(k) or self._skim.build(k)

    def __iter__(self) -> Iterator[EncodedVector]:
        return iter(self._skim.vectors(self._start, self._stop))

    def tag(self, index: int) -> int:
        """The encoding tag of vector *index*: its record's first byte."""
        return self._skim.data[self._skim.records[self._start + index]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]


#: What the decoder raises on malformed metadata: it indexes its buffer
#: without bounds checks, so a read past the end of truncated metadata
#: raises ``IndexError`` (``struct.error`` for a fixed-width field), and
#: invalid UTF-8 raises ``UnicodeDecodeError``.
_DECODER_FAULTS = (IndexError, struct.error, UnicodeDecodeError)


def _count_built(count: int) -> None:
    _VECTORS_BUILT.inc(count)
    ledger_channel.charge_vectors_built(count)


def _format_error(exc: Exception) -> FormatError:
    """The :class:`FormatError` reporting a decoder fault (the caller
    chains *exc* as its cause)."""
    if isinstance(exc, UnicodeDecodeError):
        return FormatError(f"corrupt CapsuleBox metadata: {exc}")
    return FormatError(_TRUNCATED)


def _positions(column: Column, group: int) -> List[int]:
    """The line ids of *group*: the positions of its id in *column*.

    A u8 column is one C-level pass: ``translate`` maps the id to 1 and
    every other byte to 0, and ``compress`` picks the matching entries of
    a shared tuple of line numbers, so no int is built per line."""
    if isinstance(column, bytes):
        mask = column.translate(bytes(group) + b"\x01" + bytes(255 - group))
        numbers: Sequence[int] = _LINE_NUMBERS
        if len(column) > len(numbers):
            numbers = range(len(column))
        return list(compress(numbers, mask))
    return [line_id for line_id, cell in enumerate(column) if cell == group]


#: 0, 1, 2, ...: ``compress`` over these picks line ids without building
#: an int per line; a longer column counts with a ``range``.
_LINE_NUMBERS = tuple(range(1 << 14))


def _column_at(data: bytes, head: _MetaPrefix) -> Tuple[Column, List[int]]:
    """The group-id column and each group's entry count, validated: one
    cell per line, and every cell a group id below the group count."""
    if head.num_groups > len(data):
        # Every group record takes bytes of its own: a count this large
        # is corruption, and would only size the tallies below.
        raise FormatError(_TRUNCATED)
    cells = data[head.column_start : head.column_end]
    _, typecode = _cell_type(head.num_groups)
    width = array(typecode).itemsize
    if len(cells) != head.num_lines * width:
        raise FormatError(
            f"group-id column is {len(cells)} byte(s); the block's "
            f"{head.num_lines} lines need {head.num_lines * width}"
        )
    column: Column
    if typecode == "B":
        column = cells
        counts = [cells.count(group) for group in range(head.num_groups)]
    else:
        column = array(typecode)
        column.frombytes(cells)
        if sys.byteorder == "big":  # pragma: no cover - big-endian hosts
            column.byteswap()
        tally = Counter(column)
        counts = [tally[group] for group in range(head.num_groups)]
    if sum(counts) != head.num_lines:
        raise FormatError(
            f"group-id column holds a group id >= the group count {head.num_groups}"
        )
    return column, counts


#: Stamps are immutable, so box opens share one per ``(mask, max_len)``:
#: boxes repeat few distinct ones.
_stamp = lru_cache(maxsize=4096)(CapsuleStamp)


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
    """A count-prefixed list of varints (``BinaryWriter.write_u32_list``);
    one-byte values are read inline."""
    count, pos = _varint(data, pos)
    out: List[int] = []
    for _ in range(count):
        value = data[pos]
        if value < 0x80:
            pos += 1
        else:
            value, pos = _varint(data, pos)
        out.append(value)
    return out, pos


def _skip_varints(data: bytes, pos: int, count: int) -> int:
    """The end of *count* varints at *pos*."""
    for _ in range(count):
        if data[pos] < 0x80:
            pos += 1
        else:
            pos = _varint(data, pos)[1]
    return pos


def _skip_list(data: bytes, pos: int) -> int:
    """The end of a count-prefixed list of varints
    (``BinaryWriter.write_u32_list``)."""
    count = data[pos]
    if count < 0x80:
        pos += 1
    else:
        count, pos = _varint(data, pos)
    return _skip_varints(data, pos, count)


def _deltas_at(data: bytes, pos: int) -> Tuple["array[int]", int]:
    """The u32 deltas of an outlier row list."""
    start, end = _span(data, pos)
    if (end - start) % 4:
        raise FormatError("outlier-row array is not a whole number of u32s")
    deltas = array("I")
    deltas.frombytes(memoryview(data)[start:end])
    return deltas, end


def _pattern_at(
    data: bytes, pos: int, consts: Dict[bytes, Const]
) -> Tuple[RuntimePattern, int]:
    """A runtime-pattern record: ``(pattern, end)``.

    Elements are kept as stored, not re-normalized, so a re-serialized
    box is byte-identical to the one read.  Elements are immutable, so
    one object serves every repeat: *consts* holds a box's constants by
    their stored bytes, and :data:`_SUBVARS` the common sub-variables.
    One-byte counts, lengths and indices are read inline."""
    count = data[pos]
    if count < 0x80:
        pos += 1
    else:
        count, pos = _varint(data, pos)
    elements: List[Element] = []
    for _ in range(count):
        kind = data[pos]
        value = data[pos + 1]
        if value < 0x80:
            pos += 2
        else:
            value, pos = _varint(data, pos + 1)
        if kind == 0:
            # value is the constant's byte length
            text_start = pos
            pos += value
            if pos > len(data):
                raise FormatError(_TRUNCATED)
            raw = data[text_start:pos]
            const = consts.get(raw)
            if const is None:
                const = consts[raw] = Const(raw.decode())
            elements.append(const)
        else:
            # value is the sub-variable's index
            elements.append(_SUBVARS[value] if value < len(_SUBVARS) else SubVar(value))
    pattern = RuntimePattern.__new__(RuntimePattern)
    pattern.elements = elements
    return pattern, pos


def _skip_pattern(data: bytes, pos: int) -> int:
    """The end of the runtime-pattern record at *pos* (see
    :func:`_pattern_at`)."""
    count = data[pos]
    if count < 0x80:
        pos += 1
    else:
        count, pos = _varint(data, pos)
    for _ in range(count):
        kind = data[pos]
        value = data[pos + 1]
        if value < 0x80:
            pos += 2
        else:
            value, pos = _varint(data, pos + 1)
        if kind == 0:
            pos += value
            if pos > len(data):
                raise FormatError(_TRUNCATED)
    return pos


_SUBVARS = tuple(SubVar(index) for index in range(32))
