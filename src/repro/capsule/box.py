"""CapsuleBox: the on-disk unit holding one compressed log block (Fig 1).

A CapsuleBox contains every Capsule of a block plus the metadata needed to
query and reconstruct it: static patterns (templates), the group of every
line, runtime patterns and Capsule stamps.

Layout (LGCB v4)::

    MAGIC "LGCB" | version u8 (=4) | flags u8 (=0) | header_len u16 (=16)
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
belongs to: a group's entry count is the count of its id, and its line
ids are the positions of its id, found with one C-level pass the first
time they are read.  Every template's tokens are one **template text**.
A **directory** holds one entry per vector record — its length, a code
naming its kind and the Capsules it owns, and a real vector's pattern
constants' ``(mask, total length)`` — and the records follow it.  Every
Capsule record sits in one columnar **Capsule table** at the end of the
metadata; payload offsets are the prefix sums of its lengths.

Opening a box (:func:`_open_meta`) reads no record: the prefix, the
column, the templates, the directory (one ``bytes`` slice per column
when every varint is one byte, as nearly all are) and the table (one
``struct`` call) are checked against each other, and each vector's
stamp (:func:`vector_stamp`) is its directory pair combined with its
Capsules' table stamps.  A vector's objects are built from its record on
first use (:class:`_Skim`), which checks the record against its
directory entry, so a query pays for the records it reads.

Version 4 is the only version read or written; any other version byte
(the retired v1, v2 and v3 included) is a :class:`FormatError` naming
the version found.

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
from itertools import accumulate, compress, repeat
from operator import and_, rshift
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
VERSION = 4

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

#: A directory code is ``owned << 2 | kind``: the Capsules the vector
#: owns, and its kind — the ``ENC_*`` tag, or :data:`_OUTLIERS` for a
#: real vector whose last Capsule holds its outliers.
_OUTLIERS = 3
#: The encoding tag of each kind, and the kind of each one-byte code.
_TAGS = (ENC_REAL, ENC_NOMINAL, ENC_PLAIN, ENC_REAL)
_KINDS = bytes(code & 3 for code in range(256))

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
    :class:`_Skim`), and its ``stamps`` come from the box's directory.
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
        """The :func:`vector_stamp` of each vector: read off the
        directory for a decoded group, so no vector is built for it."""
        stamps = self._stamps
        if stamps is None:
            stamps = self._stamps = [vector_stamp(v) for v in self.vectors]
        return stamps

    def vector_tag(self, var_idx: int) -> int:
        """The encoding tag (``ENC_*``) of a vector, read off a decoded
        group's directory without building the vector."""
        vectors = self.vectors
        if isinstance(vectors, _Vectors):
            return vectors.tag(var_idx)
        return vectors[var_idx].tag

    def patterns(self, var_idx: int) -> List[RuntimePattern]:
        """The runtime patterns of a vector: a real vector's own, a
        nominal vector's dictionary patterns, none for a plain one.  A
        decoded group's are read off the vector's record, which builds
        no vector."""
        vectors = self.vectors
        if isinstance(vectors, _Vectors):
            return vectors.patterns(var_idx)
        vector = vectors[var_idx]
        if isinstance(vector, NominalEncodedVector):
            return [dp.pattern for dp in vector.dict_patterns]
        return [vector.pattern] if isinstance(vector, RealEncodedVector) else []

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

    ``meta_bytes`` is the stored (zlib'd) metadata section; the column,
    the Capsule table and the directory are measured inside it before
    zlib, where each has an exact size.
    """

    meta_bytes: int
    meta_inflated_bytes: int
    column_bytes: int
    capsule_table_bytes: int
    directory_bytes: int
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
            slots = group.template.num_variables
            if len(group.vectors) != slots:
                raise FormatError(
                    f"group {group_idx}: {len(group.vectors)} vectors for "
                    f"{slots} variable slots"
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
        """Serialize the box (LGCB v4)."""
        capsules = list(self.capsules())
        writer = BinaryWriter()
        writer.write_varint(self.block_id)
        writer.write_varint(self.first_line_id)
        writer.write_varint(self.num_lines)
        writer.write_u8(1 if self.padded else 0)
        writer.write_varint(len(self.groups))
        writer.write_varint(len(capsules))
        writer.write_bytes(_little_endian(self._group_column()))
        _write_templates(writer, [group.template for group in self.groups])
        _write_vectors(writer, [v for group in self.groups for v in group.vectors])
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

        The open reads the directory, not the records
        (:func:`_open_meta`); each vector is built from its record, and
        the record checked, on first use.  Capsule payloads stay
        unfetched until first access; use :meth:`prefetch` to batch the
        ones a plan will need.
        """
        toc = BoxTOC.read(source)
        meta = _inflate(source.read(toc.meta_off, toc.meta_len))
        try:
            box = _open_meta(meta, source, toc)
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
            head = _MetaPrefix.read(meta)
            templates, start = _templates_at(meta, head)
            directory = _directory_at(meta, start, templates)
        except _DECODER_FAULTS as exc:
            raise _format_error(exc) from exc
        return BoxLayout(
            meta_bytes=toc.meta_len,
            meta_inflated_bytes=len(meta),
            column_bytes=head.column_end - head.column_start,
            capsule_table_bytes=_table_struct(head.num_capsules).size,
            directory_bytes=directory.end - start,
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
    occurs in no value: the Locator would reject every Capsule.  A box
    open computes the same triple from its directory.
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
def _markers(first: int) -> Tuple[str, str, str]:
    """The template text's token separator, template separator and
    variable-slot token: the code points *first* to ``first + 2``."""
    return chr(first), chr(first + 1), chr(first + 2)


def _write_templates(writer: BinaryWriter, templates: Sequence[Template]) -> None:
    """The templates: the first marker code point (:func:`_markers`), the
    template ids, then every template's tokens as one text.  The writer
    takes the lowest markers that no constant token holds, so the text
    splits back exactly."""
    chars = set("".join(token for t in templates for token in t.tokens if token))
    first = 0
    while not chars.isdisjoint(_markers(first)):
        first += 1
    separator, group_separator, slot = _markers(first)
    texts = []
    for template in templates:
        if not template.tokens:
            raise FormatError(f"template {template.template_id} has no tokens")
        texts.append(separator.join(
            slot if token is None else token for token in template.tokens
        ))
    writer.write_varint(first)
    for template in templates:
        writer.write_varint(template.template_id)
    writer.write_str(group_separator.join(texts))


def _vector_entry(vector: EncodedVector) -> Tuple[bytes, int, Optional[Tuple[int, int]]]:
    """The record of *vector*, its directory code and, for a real
    vector, its pattern constants' ``(mask, total length)``.  A record
    holds only what the directory, the Capsule table and the group-id
    column do not: no tag, no row count, no Capsule count."""
    writer = BinaryWriter()
    if isinstance(vector, RealEncodedVector):
        vector.pattern.write(writer)
        owned, kind = len(vector.subvar_capsules), ENC_REAL
        if vector.outlier_capsule is not None:
            # The record ends with the outlier rows: strictly increasing,
            # so deltas are tiny and the u32 array's zero-heavy bytes
            # vanish under the metadata zlib pass.
            rows = vector.outlier_rows
            writer.write_raw(
                array("I", [b - a for a, b in zip([0, *rows], rows)]).tobytes()
            )
            owned, kind = owned + 1, _OUTLIERS
        text = vector.pattern.constant_text()
        return writer.getvalue(), owned << 2 | kind, (fragment_mask(text), len(text))
    if isinstance(vector, NominalEncodedVector):
        writer.write_varint(len(vector.dict_patterns))
        for dp in vector.dict_patterns:
            dp.pattern.write(writer)
            writer.write_varint(dp.count)
            writer.write_varint(dp.width)
            writer.write_u32_list(dp.subvar_masks)
            writer.write_u32_list(dp.subvar_maxlens)
        writer.write_varint(vector.index_width)
        writer.write_varint(vector.dict_size)
        return writer.getvalue(), 2 << 2 | ENC_NOMINAL, None
    if isinstance(vector, PlainEncodedVector):
        return b"", 1 << 2 | ENC_PLAIN, None
    raise FormatError(f"unknown vector type {type(vector)!r}")  # pragma: no cover


def _write_vectors(writer: BinaryWriter, vectors: Sequence[EncodedVector]) -> None:
    """The directory — four columns: each vector's code and record
    length, then each real vector's constant mask (one byte) and
    constant length — and then the records."""
    records, codes, consts = zip(*map(_vector_entry, vectors)) if vectors else ((),) * 3
    real = [const for const in consts if const is not None]
    for value in (*codes, *map(len, records)):
        writer.write_varint(value)
    writer.write_raw(bytes(mask for mask, _ in real))
    for _, length in real:
        writer.write_varint(length)
    writer.write_raw(b"".join(records))


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
        num_groups, pos = _varint(data, pos + 1)
        num_capsules, pos = _varint(data, pos)
        start, end = _span(data, pos)
        return cls(
            block_id, first_line_id, num_lines, padded, num_groups,
            num_capsules, start, end,
        )


def _templates_at(data: bytes, head: _MetaPrefix) -> Tuple[List[Template], int]:
    """The templates after the group-id column, and where they end: one
    ``decode``, then per template one ``split`` and one ``list.index``
    per variable slot, so no Python step runs per token.  A marker past
    the last code point, or inside a token, raises ``ValueError``."""
    first, pos = _varint(data, head.column_end)
    ids, pos = _varints(data, pos, head.num_groups)
    start, pos = _span(data, pos)
    separator, group_separator, slot = _markers(first)
    text = data[start:pos].decode()
    texts = text.split(group_separator) if text or head.num_groups else []
    if len(texts) != head.num_groups:
        raise FormatError(f"{len(texts)} templates for {head.num_groups} groups")
    templates = []
    for template_id, part in zip(ids, texts):
        tokens = part.split(separator)
        positions = []
        index = -1
        for _ in range(part.count(slot)):
            index = tokens.index(slot, index + 1)
            tokens[index] = None
            positions.append(index)
        templates.append(Template(template_id, tokens, positions))
    return templates, pos


class _Directory(NamedTuple):
    """The directory's columns (:func:`_write_vectors`), each vector's
    kind, and where the directory ends."""

    codes: Sequence[int]
    kinds: bytes
    lengths: Sequence[int]
    const_masks: bytes
    const_lengths: Sequence[int]
    end: int


def _directory_at(data: bytes, pos: int, templates: Sequence[Template]) -> _Directory:
    """The directory at *pos*: one entry per variable slot of
    *templates*, each of a known code."""
    num_vectors = sum(template.num_variables for template in templates)
    codes, pos = _varints(data, pos, num_vectors)
    lengths, pos = _varints(data, pos, num_vectors)
    if isinstance(codes, bytes):
        kinds = codes.translate(_KINDS)
    else:  # a code of two or more bytes
        kinds = bytes(map(and_, codes, repeat(3)))
    # A nominal vector owns 2 Capsules, a plain one 1, and a real one
    # with outliers at least its outlier Capsule.
    if (
        codes.count(2 << 2 | ENC_NOMINAL) != kinds.count(ENC_NOMINAL)
        or codes.count(1 << 2 | ENC_PLAIN) != kinds.count(ENC_PLAIN)
        or _OUTLIERS in codes
    ):
        raise FormatError("unknown encoded-vector code in the directory")
    num_real = kinds.count(ENC_REAL) + kinds.count(_OUTLIERS)
    const_masks = data[pos : pos + num_real]
    if len(const_masks) != num_real:
        raise FormatError(_TRUNCATED)
    const_lengths, pos = _varints(data, pos + num_real, num_real)
    return _Directory(codes, kinds, lengths, const_masks, const_lengths, pos)


def _open_meta(data: bytes, source: BlobSource, toc: BoxTOC) -> CapsuleBox:
    """Open a box from its inflated LGCB v4 metadata, reading no record.

    The directory is checked against the table (its Capsules), the
    templates (a vector per variable slot) and the record section (the
    lengths), and each vector's :func:`vector_stamp` is its directory
    pair combined with its Capsules' table stamps.  Nothing here
    bounds-checks a single-byte read: past the end it raises
    ``IndexError`` (``struct.error`` for a fixed-width field), which
    :meth:`CapsuleBox.open` reports as a :class:`FormatError`.
    """
    head = _MetaPrefix.read(data)
    column, counts = _column_at(data, head)
    templates, pos = _templates_at(data, head)
    directory = _directory_at(data, pos, templates)
    n = head.num_capsules
    table = _table_struct(n)
    table_off = len(data) - table.size
    records = list(accumulate(directory.lengths, initial=directory.end))
    if records[-1] != table_off:
        raise FormatError(
            f"CapsuleBox directory: record lengths sum to "
            f"{records[-1] - directory.end}, the record section holds "
            f"{table_off - directory.end}"
        )
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
    firsts = list(accumulate(map(rshift, directory.codes, repeat(2)), initial=0))
    if firsts[-1] != n:
        raise FormatError(
            f"CapsuleBox directory: the vectors own {firsts[-1]} Capsules, "
            f"the Capsule table holds {n}"
        )
    stamps: List[VectorStamp] = []
    consts = zip(directory.const_masks, directory.const_lengths)
    first = 0
    for kind, stop in zip(directory.kinds, firsts[1:]):
        if kind == ENC_NOMINAL or kind == ENC_PLAIN:
            stamps.append((masks[first], max_lens[first], stop - first))
        else:
            mask, length = next(consts)
            end = stop - (kind == _OUTLIERS)
            for capsule in range(first, end):
                mask |= masks[capsule]
                length += max_lens[capsule]
            if end < stop:
                mask |= masks[end]
                length = max(length, max_lens[end])
            stamps.append((mask, length, stop - first))
        first = stop
    rows: List[int] = []
    skim = _Skim(
        data, list(zip(*columns, offsets)), source, records, firsts,
        directory.kinds, rows,
    )
    groups: List[GroupBox] = []
    start = 0
    for group_idx, template in enumerate(templates):
        stop = start + template.num_variables
        count = counts[group_idx]
        rows += [count] * (stop - start)
        groups.append(
            GroupBox._decoded(
                template, _Vectors(skim, start, stop), column, group_idx, count,
                stamps[start:stop],
            )
        )
        start = stop
    box = CapsuleBox(
        head.block_id, head.first_line_id, head.num_lines, head.padded, groups
    )
    box._column = column
    return box


class _Skim:
    """What a box open keeps to build vectors later: the inflated
    metadata, the Capsule table's rows (each with its payload offset),
    and per record its offset, first Capsule (record *k* owns
    ``firsts[k]`` up to ``firsts[k + 1]``), kind and row count.

    A record is built — its pattern objects, outlier rows, dictionary
    patterns and Capsules — by :meth:`build` or :meth:`vectors` and
    published with one atomic ``dict.setdefault``: of two threads racing
    to build it one object is kept, every caller gets that one, and only
    its publisher counts it.
    """

    __slots__ = ("data", "table", "source", "records", "firsts", "kinds",
                 "rows", "built", "consts")

    def __init__(
        self,
        data: bytes,
        table: List[Tuple[int, ...]],
        source: BlobSource,
        records: List[int],
        firsts: List[int],
        kinds: bytes,
        rows: List[int],
    ):
        self.data = data
        self.table = table
        self.source = source
        self.records = records
        self.firsts = firsts
        self.kinds = kinds
        self.rows = rows
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
        """The vector of record *k*.  Its fields must end where the
        directory says the record does, and a real one may name no
        sub-variable it does not store."""
        data = self.data
        start, end = self.records[k], self.records[k + 1]
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
        kind = self.kinds[k]
        rows = self.rows[k]
        vector: EncodedVector
        pos = start
        if kind == ENC_PLAIN:
            vector = PlainEncodedVector(capsules[0], rows)
        elif kind == ENC_NOMINAL:
            dict_patterns, pos = self._dict_patterns(pos)
            index_width, pos = _varint(data, pos)
            dict_size, pos = _varint(data, pos)
            vector = NominalEncodedVector(
                dict_patterns, capsules[0], capsules[1], index_width, rows, dict_size
            )
        else:
            pattern, pos, named = _pattern_at(data, pos, self.consts)
            outlier: Optional[Capsule] = None
            outlier_rows: List[int] = []
            if kind == _OUTLIERS:
                # The outlier rows' u32 deltas fill the rest of the record.
                if pos > end or (end - pos) % 4:
                    raise FormatError("outlier-row array is not a whole number of u32s")
                deltas = array("I")
                deltas.frombytes(memoryview(data)[pos:end])
                outlier_rows = list(accumulate(deltas))
                outlier = capsules.pop()
                pos = end
            if rows and named > len(capsules):  # an empty vector stores none
                raise FormatError(
                    f"a runtime pattern names sub-variable {named - 1} "
                    f"of a vector of {len(capsules)}"
                )
            vector = RealEncodedVector(pattern, capsules, outlier, outlier_rows, rows)
        if pos != end:
            raise FormatError(
                f"vector record {k} is {end - start} bytes, its fields take {pos - start}"
            )
        return vector

    def _dict_patterns(self, pos: int) -> Tuple[List[DictPattern], int]:
        """The dictionary patterns of the nominal record at *pos*, and
        where they end."""
        data = self.data
        num_patterns, pos = _varint(data, pos)
        dict_patterns: List[DictPattern] = []
        for _ in range(num_patterns):
            pattern, pos, _ = _pattern_at(data, pos, self.consts)
            count, pos = _varint(data, pos)
            width, pos = _varint(data, pos)
            masks, pos = _varints_at(data, pos)
            maxlens, pos = _varints_at(data, pos)
            dict_patterns.append(DictPattern(pattern, count, width, masks, maxlens))
        return dict_patterns, pos


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
        # _record inlined: a query indexes built vectors on its hot path.
        size = self._stop - self._start
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("vector index out of range")
        k = self._start + index
        return self._skim.built.get(k) or self._skim.build(k)

    def _record(self, index: int) -> int:
        return self._start + range(self._stop - self._start)[index]

    def __iter__(self) -> Iterator[EncodedVector]:
        return iter(self._skim.vectors(self._start, self._stop))

    def tag(self, index: int) -> int:
        """The encoding tag of vector *index*, read off its directory."""
        return _TAGS[self._skim.kinds[self._record(index)]]

    def patterns(self, index: int) -> List[RuntimePattern]:
        """The runtime patterns of vector *index*, decoded from its
        record (:meth:`GroupBox.patterns`)."""
        skim, k = self._skim, self._record(index)
        kind, start = skim.kinds[k], skim.records[k]
        try:
            if kind == ENC_NOMINAL:
                return [dp.pattern for dp in skim._dict_patterns(start)[0]]
            return [] if kind == ENC_PLAIN else [_pattern_at(skim.data, start, skim.consts)[0]]
        except _DECODER_FAULTS as exc:
            raise _format_error(exc) from exc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]


#: What the decoder raises on malformed metadata: it indexes its buffer
#: without bounds checks, so a read past the end of truncated metadata
#: raises ``IndexError`` (``struct.error`` for a fixed-width field), and
#: invalid UTF-8 or a bad template marker raises ``ValueError``.
_DECODER_FAULTS = (IndexError, struct.error, ValueError)


def _count_built(count: int) -> None:
    _VECTORS_BUILT.inc(count)
    ledger_channel.charge_vectors_built(count)


def _format_error(exc: Exception) -> FormatError:
    """The :class:`FormatError` reporting a decoder fault (the caller
    chains *exc* as its cause)."""
    if isinstance(exc, ValueError):
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


def _varints(data: bytes, pos: int, count: int) -> Tuple[Sequence[int], int]:
    """*count* varints at *pos*, and where they end.  When all are one
    byte, as nearly always, they are the ``bytes`` slice itself, checked
    with one ``isascii``; otherwise they are read one by one."""
    end = pos + count
    cells = data[pos:end]
    if len(cells) == count and cells.isascii():
        return cells, end
    values = []
    for _ in range(count):
        value, pos = _varint(data, pos)
        values.append(value)
    return values, pos


def _varints_at(data: bytes, pos: int) -> Tuple[List[int], int]:
    """A count-prefixed list of varints (``BinaryWriter.write_u32_list``)."""
    count, pos = _varint(data, pos)
    values, pos = _varints(data, pos, count)
    return list(values), pos


def _pattern_at(
    data: bytes, pos: int, consts: Dict[bytes, Const]
) -> Tuple[RuntimePattern, int, int]:
    """A runtime-pattern record: ``(pattern, end, named)``, *named* one
    past the largest sub-variable index it names (0 for none).

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
    named = 0
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
            if value >= named:
                named = value + 1
    pattern = RuntimePattern.__new__(RuntimePattern)
    pattern.elements = elements
    return pattern, pos, named


_SUBVARS = tuple(SubVar(index) for index in range(32))
