"""CapsuleBox: the on-disk unit holding one compressed log block (Fig 1).

A CapsuleBox contains every Capsule of a block plus the metadata needed to
query and reconstruct it: static patterns (templates), per-group entry line
ids, runtime patterns and Capsule stamps.

Layout::

    MAGIC "LGCB" | version u8 (=2) | flags u8 (=0) | header_len u16 (=32)
    | bloom_off u32 | bloom_len u32 | meta_off u32 | meta_len u32
    | payload_off u32 | payload_len u32
    | bloom section | zlib(meta) | payload blobs

The fixed 32-byte header is a table of contents: it records the byte
extent of every section, so a reader can fetch the Bloom filter, the
metadata, or one capsule payload with an independent ranged read —
nothing forces pulling the whole blob.  Sections are contiguous and the
header is validated strictly (flags, lengths, contiguity, total size), so
any single-byte header corruption is detected before bytes are trusted.

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

import zlib
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterable, Iterator, List, Optional

from ..blockstore.blobsource import BlobSource, BytesBlobSource, coalesce_extents
from ..common.binio import BinaryReader, BinaryWriter
from ..common.bloom import BloomFilter
from ..common.errors import FormatError
from ..runtime.merge import DictPattern
from ..runtime.pattern import RuntimePattern
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
from .capsule import CODEC_NAMES, Capsule
from .stamp import CapsuleStamp

MAGIC = b"LGCB"
VERSION = 2

#: Flag bit 0x01: the box references cross-archive shared content —
#: templates are stored as content ids and every capsule record carries a
#: location byte (0 = inline payload exactly as today, 1 = shared payload
#: by content id).  Reading such a box requires a
#: :class:`~repro.blockstore.shared.TemplateResolver`.
FLAG_SHARED_TEMPLATES = 0x01
_KNOWN_FLAGS = FLAG_SHARED_TEMPLATES

_HEADER_LEN = 32

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
    flags: int = 0

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
        if flags & ~_KNOWN_FLAGS:
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
            bloom_off, bloom_len, meta_off, meta_len, payload_off,
            payload_len, flags,
        )


@dataclass
class GroupBox:
    """One group (static pattern + its encoded variable vectors)."""

    template: Template
    line_ids: List[int]
    vectors: List[EncodedVector]

    @property
    def num_entries(self) -> int:
        return len(self.line_ids)


@dataclass
class CapsuleBox:
    """All Capsules and metadata of one compressed log block."""

    block_id: int
    first_line_id: int
    num_lines: int
    padded: bool
    groups: List[GroupBox]
    #: Optional block-level trigram Bloom filter (extension): lets a query
    #: skip the whole box without decompressing its metadata.
    bloom: Optional[BloomFilter] = None

    def __post_init__(self) -> None:
        # The blob source capsules were loaded from (None for boxes built
        # in memory by the compressor); prefetch batches reads through it.
        self._source: Optional[BlobSource] = None

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def serialize(self, shared=None) -> bytes:
        """Serialize the box.

        With *shared* (a
        :class:`~repro.blockstore.shared.SharedTemplateStore`) the box is
        written in the flag-0x01 shared format: templates become content
        ids, and nominal dictionary capsule payloads move into the shared
        store — stored once globally, referenced here by id.  Without it
        the output is byte-identical to earlier versions.
        """
        # The Bloom filter sits uncompressed before the metadata section so
        # the bloom-only read path can prune a block without touching zlib.
        bloom_writer = BinaryWriter()
        if self.bloom is not None:
            bloom_writer.write_u8(1)
            self.bloom.write(bloom_writer)
        else:
            bloom_writer.write_u8(0)
        bloom_bytes = bloom_writer.getvalue()

        writer = BinaryWriter()
        blobs: List[bytes] = []
        offset = [0]

        writer.write_varint(self.block_id)
        writer.write_varint(self.first_line_id)
        writer.write_varint(self.num_lines)
        writer.write_u8(1 if self.padded else 0)
        writer.write_varint(len(self.groups))
        for group in self.groups:
            _write_template(writer, group.template, shared)
            _write_line_ids(writer, group.line_ids)
            writer.write_varint(len(group.vectors))
            for vector in group.vectors:
                _write_vector(writer, vector, blobs, offset, shared)

        meta = zlib.compress(writer.getvalue(), 6)
        payload = b"".join(blobs)
        bloom_off = _HEADER_LEN
        meta_off = bloom_off + len(bloom_bytes)
        payload_off = meta_off + len(meta)
        toc = (
            _HEADER_LEN.to_bytes(2, "little")
            + bloom_off.to_bytes(4, "little")
            + len(bloom_bytes).to_bytes(4, "little")
            + meta_off.to_bytes(4, "little")
            + len(meta).to_bytes(4, "little")
            + payload_off.to_bytes(4, "little")
            + len(payload).to_bytes(4, "little")
        )
        flags = FLAG_SHARED_TEMPLATES if shared is not None else 0
        return MAGIC + bytes([VERSION, flags]) + toc + bloom_bytes + meta + payload

    @classmethod
    def read_toc(cls, source: BlobSource) -> BoxTOC:
        """The parsed, validated header of a stored box."""
        return BoxTOC.read(source)

    @classmethod
    def open_bloom(cls, source: BlobSource) -> Optional[BloomFilter]:
        """Read only the Bloom filter, via ranged reads (cheap pruning).

        Costs the header plus the bloom section — never the metadata or
        any payload.
        """
        toc = BoxTOC.read(source)
        reader = BinaryReader(source.read(toc.bloom_off, toc.bloom_len))
        if reader.read_u8() == 0:
            return None
        return BloomFilter.read(reader)

    @classmethod
    def deserialize(cls, data: bytes, templates=None) -> "CapsuleBox":
        """Load a box from a fully-fetched blob."""
        return cls.open(BytesBlobSource(data, "<box>"), templates)

    @classmethod
    def open(cls, source: BlobSource, templates=None) -> "CapsuleBox":
        """Load a box through ranged reads: header + bloom + metadata only.

        Capsule payloads stay unfetched until first access; use
        :meth:`prefetch` to batch the ones a plan will need.  A box in
        the shared format (flag 0x01) needs *templates* — a
        :class:`~repro.blockstore.shared.TemplateResolver` — to map its
        content ids back to template tokens and shared capsule payloads;
        without one, opening it is a :class:`FormatError`.
        """
        toc = BoxTOC.read(source)
        resolver = None
        if toc.flags & FLAG_SHARED_TEMPLATES:
            if templates is None:
                raise FormatError(
                    "shared-template CapsuleBox (flag 0x01) requires a "
                    "template resolver to open"
                )
            resolver = templates
        bloom_reader = BinaryReader(source.read(toc.bloom_off, toc.bloom_len))
        bloom = BloomFilter.read(bloom_reader) if bloom_reader.read_u8() else None
        try:
            meta = zlib.decompress(source.read(toc.meta_off, toc.meta_len))
        except zlib.error as exc:
            raise FormatError(f"corrupt CapsuleBox metadata: {exc}") from exc
        reader = BinaryReader(meta)

        block_id = reader.read_varint()
        first_line_id = reader.read_varint()
        num_lines = reader.read_varint()
        padded = reader.read_u8() == 1
        groups: List[GroupBox] = []
        for _ in range(reader.read_varint()):
            template = _read_template(reader, resolver)
            line_ids = _read_line_ids(reader)
            vectors = [
                _read_vector(reader, source, toc, resolver)
                for _ in range(reader.read_varint())
            ]
            groups.append(GroupBox(template, line_ids, vectors))
        box = cls(block_id, first_line_id, num_lines, padded, groups, bloom)
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
    def _capsules(self) -> Iterator[Capsule]:
        for group in self.groups:
            for vector in group.vectors:
                yield from _capsules_of(vector)

    def capsule_count(self) -> int:
        return sum(1 for _ in self._capsules())

    def payload_bytes(self) -> int:
        # compressed_bytes comes from the extent for unfetched capsules,
        # so statistics never force a payload read.
        return sum(capsule.compressed_bytes for capsule in self._capsules())

    def codec_usage(self) -> Dict[str, Dict[str, int]]:
        """Capsules and stored payload bytes per codec name — what the
        size-keyed codec rule chose for this block."""
        usage = {
            name: {"capsules": 0, "payload_bytes": 0}
            for name in CODEC_NAMES.values()
        }
        for capsule in self._capsules():
            row = usage[CODEC_NAMES[capsule.codec]]
            row["capsules"] += 1
            row["payload_bytes"] += capsule.compressed_bytes
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
def _write_template(
    writer: BinaryWriter, template: Template, shared=None
) -> None:
    writer.write_varint(template.template_id)
    if shared is not None:
        # Shared format: the token list lives once in the shared store,
        # referenced here by its content id (hash of the tokens alone —
        # never the per-archive template_id).
        writer.write_str(shared.add_template(template))
        return
    writer.write_varint(len(template.tokens))
    for token in template.tokens:
        if token is None:
            writer.write_u8(1)
        else:
            writer.write_u8(0)
            writer.write_str(token)


def _read_template(reader: BinaryReader, resolver=None) -> Template:
    template_id = reader.read_varint()
    if resolver is not None:
        cid = reader.read_str()
        return Template(template_id, list(resolver.resolve_template(cid)))
    tokens: List[Optional[str]] = []
    for _ in range(reader.read_varint()):
        if reader.read_u8() == 1:
            tokens.append(None)
        else:
            tokens.append(reader.read_str())
    return Template(template_id, tokens)


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


def _read_line_ids(reader: BinaryReader) -> List[int]:
    return list(accumulate(reader.read_u32_array()))


# ----------------------------------------------------------------------
# capsules with out-of-band payloads
# ----------------------------------------------------------------------
def _write_capsule(
    writer: BinaryWriter,
    capsule: Capsule,
    blobs: List[bytes],
    offset: List[int],
    shared=None,
    externalize: bool = False,
) -> None:
    writer.write_u8(capsule.layout)
    writer.write_varint(capsule.width)
    writer.write_varint(capsule.count)
    capsule.stamp.write(writer)
    writer.write_u8(capsule.codec)
    writer.write_u8(capsule.preset)
    if shared is not None:
        # Shared format: a location byte on every capsule record — 0 is
        # the inline layout below, 1 replaces (offset, length) with the
        # payload's content id in the shared store.
        if externalize:
            writer.write_u8(1)
            writer.write_str(shared.add_payload(capsule.payload))
            writer.write_varint(len(capsule.payload))
            writer.write_u32(zlib.crc32(capsule.payload))
            return
        writer.write_u8(0)
    writer.write_varint(offset[0])
    writer.write_varint(len(capsule.payload))
    # Payloads sit outside the zlib'd (self-checking) metadata stream, so
    # they carry their own checksum for `loggrep verify` / `CapsuleBox.
    # verify()`.  RAW-codec payloads would otherwise corrupt silently.
    writer.write_u32(zlib.crc32(capsule.payload))
    blobs.append(capsule.payload)
    offset[0] += len(capsule.payload)


def _read_capsule(
    reader: BinaryReader, source: BlobSource, toc: BoxTOC, resolver=None
) -> Capsule:
    layout = reader.read_u8()
    width = reader.read_varint()
    count = reader.read_varint()
    stamp = CapsuleStamp.read(reader)
    codec = reader.read_u8()
    preset = reader.read_u8()
    if resolver is not None and reader.read_u8() == 1:
        cid = reader.read_str()
        length = reader.read_varint()
        crc = reader.read_u32()
        payload = resolver.resolve_payload(cid)
        if len(payload) != length:
            raise FormatError(
                f"shared capsule payload {cid!r}: stored length "
                f"{len(payload)} != referenced length {length}"
            )
        capsule = Capsule(
            layout, width, count, stamp, codec, preset, payload=payload
        )
        capsule.expected_crc = crc
        return capsule
    off = reader.read_varint()
    length = reader.read_varint()
    crc = reader.read_u32()
    # Validate the extent against the TOC *now*: a corrupt offset must be
    # a FormatError at load time, not a failed ranged read at first use.
    if off + length > toc.payload_len:
        raise FormatError("capsule payload out of range")
    capsule = Capsule(
        layout, width, count, stamp, codec, preset,
        source=source, extent=(toc.payload_off + off, length),
    )
    capsule.expected_crc = crc
    return capsule


# ----------------------------------------------------------------------
# encoded vectors
# ----------------------------------------------------------------------
def _write_vector(
    writer: BinaryWriter,
    vector: EncodedVector,
    blobs: List[bytes],
    offset: List[int],
    shared=None,
) -> None:
    writer.write_u8(vector.tag)
    if isinstance(vector, RealEncodedVector):
        vector.pattern.write(writer)
        writer.write_varint(len(vector.subvar_capsules))
        for capsule in vector.subvar_capsules:
            _write_capsule(writer, capsule, blobs, offset, shared)
        if vector.outlier_capsule is not None:
            writer.write_u8(1)
            _write_line_ids(writer, vector.outlier_rows)
            _write_capsule(writer, vector.outlier_capsule, blobs, offset, shared)
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
        # Only the nominal dictionary is externalized: dictionaries hold
        # the repeated variable *values* (cross-archive redundancy);
        # index/REAL/PLAIN capsules are per-archive row data and stay
        # inline where ranged reads reach them.
        _write_capsule(writer, vector.dict_capsule, blobs, offset, shared,
                       externalize=shared is not None)
        _write_capsule(writer, vector.index_capsule, blobs, offset, shared)
        writer.write_varint(vector.index_width)
        writer.write_varint(vector.num_rows)
        writer.write_varint(vector.dict_size)
    elif isinstance(vector, PlainEncodedVector):
        _write_capsule(writer, vector.capsule, blobs, offset, shared)
        writer.write_varint(vector.num_rows)
    else:  # pragma: no cover - exhaustive over EncodedVector
        raise FormatError(f"unknown vector type {type(vector)!r}")


def _read_vector(
    reader: BinaryReader, source: BlobSource, toc: BoxTOC, resolver=None
) -> EncodedVector:
    tag = reader.read_u8()
    if tag == ENC_REAL:
        pattern = RuntimePattern.read(reader)
        subvar_capsules = [
            _read_capsule(reader, source, toc, resolver)
            for _ in range(reader.read_varint())
        ]
        outlier_capsule = None
        outlier_rows: List[int] = []
        if reader.read_u8() == 1:
            outlier_rows = _read_line_ids(reader)
            outlier_capsule = _read_capsule(reader, source, toc, resolver)
        num_rows = reader.read_varint()
        return RealEncodedVector(
            pattern, subvar_capsules, outlier_capsule, outlier_rows, num_rows
        )
    if tag == ENC_NOMINAL:
        dict_patterns: List[DictPattern] = []
        for _ in range(reader.read_varint()):
            pattern = RuntimePattern.read(reader)
            count = reader.read_varint()
            width = reader.read_varint()
            masks = reader.read_u32_list()
            maxlens = reader.read_u32_list()
            dict_patterns.append(DictPattern(pattern, count, width, masks, maxlens))
        dict_capsule = _read_capsule(reader, source, toc, resolver)
        index_capsule = _read_capsule(reader, source, toc, resolver)
        index_width = reader.read_varint()
        num_rows = reader.read_varint()
        dict_size = reader.read_varint()
        return NominalEncodedVector(
            dict_patterns, dict_capsule, index_capsule, index_width, num_rows, dict_size
        )
    if tag == ENC_PLAIN:
        capsule = _read_capsule(reader, source, toc, resolver)
        num_rows = reader.read_varint()
        return PlainEncodedVector(capsule, num_rows)
    raise FormatError(f"unknown encoded-vector tag {tag}")
