"""Per-archive prune index: the always-resident synopsis sidecar.

Block-level pruning runs on one tiny per-archive sidecar, written at
compress/commit time and loaded once when the archive is opened, so a
time-window query skips out-of-window blocks with **zero** store reads.

Per block the index records:

* the block's line count and first line id,
* the block's **wall-clock range** (min/max leading timestamp of its
  lines), read off the parse's columns rather than the raw lines: a
  constant date token 0 is checked once per group and its clock column
  by C-speed ``min``/``max``
  (:func:`~repro.common.timeparse.time_range`).  Blocks are written in
  arrival order, so a ``from_time``/``to_time`` query window prunes
  whole blocks before any box is opened.

The sidecar lives outside the block namespace (an auxiliary blob, see
:meth:`ArchiveStore.put_aux`), does not count toward stored bytes, and
is rebuilt on the fly, equal to the one a commit writes, for archives
without a readable one.  Its summaries are
derived data: a summary that disagrees with its block can only ever
cause a missed prune or a rebuild — never a wrong query result, because
a block of unknown range is never pruned.

Its name set is the commit point of a lifecycle rewrite, which writes
new names, saves the sidecar and only then deletes what it replaced:
:func:`live_names` turns a store listing into the blocks a reader
serves, and :func:`sync_index` folds a newer sidecar into an index.  A
name the sidecar lists that the store lacks is a lost block
(:func:`missing_names`): readers raise
:class:`~repro.common.errors.BlockMissingError` for it rather than
answer without it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from ..common.binio import BinaryReader, BinaryWriter
from ..common.errors import FormatError
from ..common.timeparse import time_range
from .blobsource import StoreBlobSource
from .block import parse_block_name

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a hard cycle)
    from ..capsule.box import CapsuleBox
    from ..staticparse.parser import ParsedBlock

#: Auxiliary-blob name of the serialized index within an archive.
INDEX_AUX_NAME = "index.lgix"

MAGIC = b"LGIX"
#: The one version read and written.  A sidecar of any other version
#: fails to parse and, being derived data, is rebuilt from the blocks
#: (:meth:`ArchiveIndex.build`), time ranges and live set included.
VERSION = 4

#: Timestamps travel as non-negative varint milliseconds; a sentinel u8
#: flag marks blocks with no parseable timestamps.
_TS_SCALE = 1000.0


@dataclass
class BlockSummary:
    """Everything block-level pruning needs to know about one block."""

    block_id: int
    first_line_id: int
    num_lines: int
    #: Wall-clock range of the block's lines (epoch seconds); None
    #: when no line had a parseable timestamp (the block is then never
    #: pruned).
    min_ts: Optional[float] = None
    max_ts: Optional[float] = None

    @classmethod
    def from_box(
        cls, box: "CapsuleBox", parsed: Optional["ParsedBlock"] = None
    ) -> "BlockSummary":
        """The summary of *box*.  Its time range comes from *parsed*,
        the parse it was encoded from, or else from the box's vectors
        (those of template positions 0 and 1 at most are decoded)."""
        if parsed is None:
            from ..query.vectors import make_reader

            min_ts, max_ts = time_range(
                (g.template.tokens, g.num_entries,
                 lambda k, g=g: make_reader(g.vectors[k]).values(None))
                for g in box.groups
            )
        else:
            min_ts, max_ts = time_range(
                (g.template.tokens, g.num_entries, g.variable_vectors.__getitem__)
                for g in parsed.groups
            )
        return cls(box.block_id, box.first_line_id, box.num_lines, min_ts, max_ts)

    def write(self, writer: BinaryWriter) -> None:
        writer.write_varint(self.block_id)
        writer.write_varint(self.first_line_id)
        writer.write_varint(self.num_lines)
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
        min_ts: Optional[float] = None
        max_ts: Optional[float] = None
        if reader.read_u8():
            min_ts = reader.read_varint() / _TS_SCALE
            max_ts = reader.read_varint() / _TS_SCALE
        return cls(block_id, first_line_id, num_lines, min_ts, max_ts)


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

    def next_ids(self) -> Tuple[int, int]:
        """``(block id, first line id)`` an append continues from: one
        past the last block (``(0, 0)`` for an empty archive).  A cold
        merge leaves gaps in the block ids, so this is not the block
        count."""
        if not self.blocks:
            return 0, 0
        last = max(self.blocks.values(), key=lambda summary: summary.block_id)
        return last.block_id + 1, last.first_line_id + last.num_lines

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
        version = data[4]
        if version != VERSION:
            raise FormatError(
                f"unsupported archive index version {version} "
                f"(only version {VERSION} is supported)"
            )
        reader = BinaryReader(data[5:])
        index = cls()
        for _ in range(reader.read_varint()):
            name = reader.read_str()
            index.add(name, BlockSummary.read(reader))
        return index

    @classmethod
    def build(cls, store: object) -> "ArchiveIndex":
        """Rebuild the index from the blocks of *store*.

        Pays one read and one clock-vector decode per block; every later
        query then prunes for free.  The index lists only the blocks
        :func:`once_each` keeps, so a crashed rewrite's output, or a
        block a rewrite replaced but did not delete, is never served
        beside the block holding the same lines.
        """
        index = cls()
        index.summarize(store, store.names())  # type: ignore[attr-defined]
        kept = once_each(index.blocks)
        for name in list(index.blocks):
            if name not in kept:
                index.discard(name)
        return index

    def summarize(self, store: object, names: List[str]) -> bool:
        """Add a summary, read from its block, for each of *names* the
        index lacks; True when it added one.  A writer runs this over
        the live names before it writes, so its ids continue after
        blocks another writer committed without saving the sidecar.
        Each block is opened with ranged reads: its metadata, and the
        payloads of the vectors its time range reads."""
        from ..capsule.box import CapsuleBox

        added = False
        for name in names:
            if name not in self.blocks:
                box = CapsuleBox.open(StoreBlobSource(store, name))
                self.add(name, BlockSummary.from_box(box))
                added = True
        return added


#: A cover of blocks: ``((lines, -epochs), names)``, the names a linked
#: list of ``(name, rest)`` pairs.
_Cover = Tuple[Tuple[int, int], Optional[tuple]]


def once_each(summaries: Dict[str, BlockSummary]) -> Set[str]:
    """The names of the blocks a rebuilt index serves: of the sets of
    blocks holding each line id at most once (by each block's
    ``(first_line_id, num_lines)``), one covering the most lines, and
    among those the one of the lowest epochs (the blocks a crashed
    rewrite had not replaced yet).  A weighted interval schedule over
    the blocks in order of their last line."""
    spans = sorted(
        (s.first_line_id + s.num_lines, s.first_line_id, s.num_lines, name)
        for name, s in summaries.items()
    )
    ends = [span[0] for span in spans]
    # best[j]: the best cover of spans[:j].
    best: List[_Cover] = [((0, 0), None)]
    for j, (_, first, lines, name) in enumerate(spans):
        (covered, epochs), names = best[bisect_right(ends, first, 0, j)]
        epoch = (parse_block_name(name) or (0, 0))[1]
        take: _Cover = ((covered + lines, epochs - epoch), (name, names))
        best.append(max(best[j], take, key=itemgetter(0)))
    kept: Set[str] = set()
    names = best[-1][1]
    while names is not None:
        kept.add(names[0])
        names = names[1]
    return kept


def live_names(
    names: List[str], sidecar: Optional[ArchiveIndex]
) -> List[str]:
    """The names of a store listing a reader serves.

    A listed name is live when the sidecar lists it, or when its block
    id is above every id the sidecar lists: an append whose writer has
    not saved the sidecar yet (served unpruned).  Any other listed name
    is a rewrite's unpublished output or a block a published rewrite
    replaced, and is not served.  With no readable sidecar every listed
    name is live.
    """
    if not sidecar:
        return list(names)
    top = sidecar.next_ids()[0] - 1
    return [
        name
        for name, parsed in zip(names, map(parse_block_name, names))
        if name in sidecar or (parsed is not None and parsed[0] > top)
    ]


def missing_names(
    store: object, listed: Iterable[str], listing: List[str]
) -> List[str]:
    """The names of *listed* (a sidecar's or an index's) that the store
    holds no block for: in neither the store listing *listing* nor the
    store itself (a block written after the listing is there).  A
    sidecar names a block only once it is written and until a rewrite
    has published its replacement, so a name here is a block deleted
    outside any rewrite, which a reader must report, never skip."""
    present = set(listing)
    return [
        name
        for name in listed
        if name not in present and not store.exists(name)  # type: ignore[attr-defined]
    ]


def stored_live_names(store: object) -> List[str]:
    """The live names of *store* under its stored sidecar or, without a
    readable one, under the index a rebuild makes (not saved)."""
    sidecar = load_index(store)
    if sidecar is None:
        sidecar = ArchiveIndex.build(store)
    return live_names(store.names(), sidecar)  # type: ignore[attr-defined]


def sync_index(
    store: object, index: ArchiveIndex, names: Optional[List[str]] = None
) -> List[str]:
    """Fold the stored sidecar into *index* in place (a stream shares
    it); return the live names of the listing *names* (listed when None).

    A listing equal to the index's names comes back as is, with no
    sidecar read.  Otherwise the sidecar's entries replace the index's,
    and an entry it lacks stays only above its top id (an append not
    saved yet): any other was replaced by a rewrite.
    """
    if names is None:
        names = store.names()  # type: ignore[attr-defined]
    if index.blocks.keys() == set(names):
        return names
    sidecar = load_index(store)
    if sidecar:
        top = sidecar.next_ids()[0] - 1
        for name, summary in list(index.blocks.items()):
            if summary.block_id <= top and name not in sidecar:
                index.discard(name)
        index.blocks.update(sidecar.blocks)
    return live_names(names, sidecar)


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


def open_index(store: object) -> ArchiveIndex:
    """The stored sidecar of *store*; for an archive without a readable
    one, rebuilt from the blocks (one full pass) and persisted, so every
    later open and query prunes without touching the store."""
    index = load_index(store)
    if index is not None:
        return index
    if not store.names():  # type: ignore[attr-defined]
        return ArchiveIndex()
    index = ArchiveIndex.build(store)
    if hasattr(store, "put_aux"):
        save_index(store, index)
    return index


def save_index(store: object, index: ArchiveIndex) -> None:
    store.put_aux(INDEX_AUX_NAME, index.serialize())  # type: ignore[attr-defined]
