"""Per-archive prune index: the always-resident synopsis sidecar.

The paper's stamps prove most Capsules irrelevant without decompressing
them (§3.4) — but checking a stamp still required reading the block's
metadata section.  This module lifts the same synopses out of the blocks
into one tiny per-archive sidecar, written at compress/commit time and
loaded once when the archive is opened, so block-level pruning (Bloom
*and* charset-mask) runs with **zero** store reads for pruned blocks.

Per block the index records:

* the block-level trigram Bloom filter bits (when compiled in),
* the **block charset mask**: the union of the template constant-token
  masks, every capsule stamp mask, and the runtime-pattern constant
  masks.  The engine matches keyword fragments *within* rendered tokens
  (template constants, or variable values rendered from capsule values
  and pattern constants), so a fragment whose character classes are not
  subsumed by this union cannot occur in any line of the block — the
  §5.1 stamp check hoisted to block granularity,
* per-vector stamp summaries (group, mask ∪ over the vector's capsules,
  max value length, row count) and the block's line count, for
  diagnostics and future vector-level planning,
* the block's **wall-clock range** (min/max leading timestamp of its raw
  lines): blocks are written in arrival order, so a
  ``from_time``/``to_time`` query window prunes whole blocks before any
  Bloom or stamp check — zero store reads for out-of-window blocks.

The sidecar is *derived* data: it lives outside the block namespace (an
auxiliary blob, see :meth:`ArchiveStore.put_aux`), does not count toward
stored bytes, and is rebuilt on the fly for archives that predate it.
An index that disagrees with the archive can only ever cause a missed
prune or a rebuild — never a wrong query result, because pruning is
validated against the same masks the engine enforces exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..common import chartypes
from ..common.binio import BinaryReader, BinaryWriter
from ..common.bloom import BloomFilter
from ..common.errors import FormatError

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a hard cycle)
    from ..capsule.box import CapsuleBox

#: Auxiliary-blob name of the serialized index within an archive.
INDEX_AUX_NAME = "index.lgix"

MAGIC = b"LGIX"
#: The only version read or written; a sidecar of any other version
#: fails to parse and, being derived data, is rebuilt from the blocks.
VERSION = 2

#: Timestamps travel as non-negative varint milliseconds; a sentinel u8
#: flag marks blocks with no parseable timestamps.
_TS_SCALE = 1000.0


@dataclass(frozen=True)
class VectorSummary:
    """Stamp synopsis of one encoded vector."""

    group: int
    type_mask: int
    max_len: int
    rows: int


@dataclass
class BlockSummary:
    """Everything block-level pruning needs to know about one block."""

    block_id: int
    first_line_id: int
    num_lines: int
    #: Union of template-constant, capsule-stamp and pattern-constant
    #: masks: the character classes that can occur anywhere in the block.
    type_mask: int
    bloom: Optional[BloomFilter] = None
    vectors: List[VectorSummary] = field(default_factory=list)
    #: Wall-clock range of the block's raw lines (epoch seconds); None
    #: when no line had a parseable timestamp (the block is then never
    #: time-pruned).
    min_ts: Optional[float] = None
    max_ts: Optional[float] = None

    def in_time_range(
        self, from_time: Optional[float], to_time: Optional[float]
    ) -> bool:
        """Could any line of this block fall inside [from_time, to_time]?

        Unknown ranges conservatively overlap everything — pruning may
        only ever skip blocks *proven* disjoint from the window.
        """
        if self.min_ts is None or self.max_ts is None:
            return True
        if from_time is not None and self.max_ts < from_time:
            return False
        if to_time is not None and self.min_ts > to_time:
            return False
        return True

    @classmethod
    def from_box(
        cls, box: "CapsuleBox", lines: Optional[List[str]] = None
    ) -> "BlockSummary":
        from ..capsule.assembler import NominalEncodedVector, RealEncodedVector
        from ..capsule.box import _capsules_of
        from ..runtime.pattern import Const

        mask = 0
        vectors: List[VectorSummary] = []
        for group_idx, group in enumerate(box.groups):
            for token in group.template.tokens:
                if token is not None:
                    mask |= chartypes.type_mask(token)
            for vector in group.vectors:
                vmask = 0
                vmax = 0
                for capsule in _capsules_of(vector):
                    vmask |= capsule.stamp.type_mask
                    vmax = max(vmax, capsule.stamp.max_len)
                if isinstance(vector, RealEncodedVector):
                    consts = 0
                    for element in vector.pattern.elements:
                        if isinstance(element, Const):
                            vmask |= chartypes.type_mask(element.text)
                            consts += len(element.text)
                    # Rendered values concatenate sub-variable values with
                    # the pattern constants.
                    vmax = max(
                        vmax,
                        consts
                        + sum(c.stamp.max_len for c in vector.subvar_capsules),
                    )
                elif isinstance(vector, NominalEncodedVector):
                    for dp in vector.dict_patterns:
                        for element in dp.pattern.elements:
                            if isinstance(element, Const):
                                vmask |= chartypes.type_mask(element.text)
                mask |= vmask
                vectors.append(
                    VectorSummary(group_idx, vmask, vmax, vector.num_rows)
                )
        min_ts: Optional[float] = None
        max_ts: Optional[float] = None
        if lines is not None:
            from ..common.timeparse import time_range_of

            min_ts, max_ts = time_range_of(lines)
        return cls(
            box.block_id, box.first_line_id, box.num_lines, mask,
            box.bloom, vectors, min_ts, max_ts,
        )

    def write(self, writer: BinaryWriter) -> None:
        writer.write_varint(self.block_id)
        writer.write_varint(self.first_line_id)
        writer.write_varint(self.num_lines)
        writer.write_u8(self.type_mask)
        if self.bloom is not None:
            writer.write_u8(1)
            self.bloom.write(writer)
        else:
            writer.write_u8(0)
        writer.write_varint(len(self.vectors))
        for vector in self.vectors:
            writer.write_varint(vector.group)
            writer.write_u8(vector.type_mask)
            writer.write_varint(vector.max_len)
            writer.write_varint(vector.rows)
        # Pre-epoch timestamps cannot ride a varint; treat them as
        # unknown (they only cost a missed prune, never correctness).
        if (
            self.min_ts is not None
            and self.max_ts is not None
            and self.min_ts >= 0.0
        ):
            writer.write_u8(1)
            writer.write_varint(int(self.min_ts * _TS_SCALE))
            writer.write_varint(int(self.max_ts * _TS_SCALE))
        else:
            writer.write_u8(0)

    @classmethod
    def read(cls, reader: BinaryReader) -> "BlockSummary":
        block_id = reader.read_varint()
        first_line_id = reader.read_varint()
        num_lines = reader.read_varint()
        type_mask = reader.read_u8()
        bloom = BloomFilter.read(reader) if reader.read_u8() else None
        vectors = [
            VectorSummary(
                reader.read_varint(),
                reader.read_u8(),
                reader.read_varint(),
                reader.read_varint(),
            )
            for _ in range(reader.read_varint())
        ]
        min_ts: Optional[float] = None
        max_ts: Optional[float] = None
        if reader.read_u8():
            min_ts = reader.read_varint() / _TS_SCALE
            max_ts = reader.read_varint() / _TS_SCALE
        return cls(
            block_id, first_line_id, num_lines, type_mask, bloom, vectors,
            min_ts, max_ts,
        )


class ArchiveIndex:
    """Block-name → :class:`BlockSummary` map with a wire format."""

    def __init__(self) -> None:
        self.blocks: Dict[str, BlockSummary] = {}

    def add(self, name: str, summary: BlockSummary) -> None:
        self.blocks[name] = summary

    def get(self, name: str) -> Optional[BlockSummary]:
        return self.blocks.get(name)

    def discard(self, name: str) -> None:
        self.blocks.pop(name, None)

    def __len__(self) -> int:
        return len(self.blocks)

    def __contains__(self, name: str) -> bool:
        return name in self.blocks

    def serialize(self) -> bytes:
        writer = BinaryWriter()
        writer.write_varint(len(self.blocks))
        for name in sorted(self.blocks):
            writer.write_str(name)
            self.blocks[name].write(writer)
        return MAGIC + bytes([VERSION]) + writer.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "ArchiveIndex":
        if data[:4] != MAGIC:
            raise FormatError("not an archive index: bad magic")
        if len(data) < 5:
            raise FormatError("truncated archive index")
        if data[4] != VERSION:
            raise FormatError(
                f"unsupported archive index version {data[4]} "
                f"(only version {VERSION} is supported)"
            )
        reader = BinaryReader(data[5:])
        index = cls()
        for _ in range(reader.read_varint()):
            name = reader.read_str()
            index.add(name, BlockSummary.read(reader))
        return index

    @classmethod
    def build(cls, store: object, templates: object = None) -> "ArchiveIndex":
        """Rebuild the index from the blocks of *store* (legacy archives).

        Pays one full read per block — exactly what opening a legacy
        archive cost before; every later query then prunes for free.
        *templates* is the resolver for shared-format (flag 0x01) boxes.
        """
        from ..capsule.box import CapsuleBox

        index = cls()
        for name in store.names():  # type: ignore[attr-defined]
            box = CapsuleBox.deserialize(
                store.get(name), templates=templates  # type: ignore[attr-defined]
            )
            index.add(name, BlockSummary.from_box(box))
        return index


def load_index(store: object) -> Optional[ArchiveIndex]:
    """The stored sidecar index of *store*, or None when absent/corrupt."""
    try:
        if not store.aux_exists(INDEX_AUX_NAME):  # type: ignore[attr-defined]
            return None
        data = store.get_aux(INDEX_AUX_NAME)  # type: ignore[attr-defined]
    except (AttributeError, OSError):
        return None
    try:
        return ArchiveIndex.deserialize(data)
    except Exception:
        # A corrupt sidecar is never fatal: it is derived data, so the
        # caller simply rebuilds it from the blocks.
        return None


def save_index(store: object, index: ArchiveIndex) -> None:
    store.put_aux(INDEX_AUX_NAME, index.serialize())  # type: ignore[attr-defined]
