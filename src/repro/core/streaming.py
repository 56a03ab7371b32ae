"""Streaming ingestion with block compression and a hot tail.

The paper's §8 calls compression speed "important to ingest raw logs at a
high speed".  In production, Alibaba's applications append raw text to the
current 64 MB block while *previous* blocks compress in the background
(§2).  :class:`StreamingCompressor` runs on the
:class:`~repro.core.schedule.CompressionScheduler` and follows the rule
batch compression uses: with ``pipeline_depth`` ≥ 2 a full block is
parsed in order (template warm-start) and its CPU-bound encode stage is
handed to the scheduler's worker pool, so appends keep flowing; at depth
1 (the default unless ``config.compress_parallelism`` says otherwise)
there is no thread, and the ``append`` that fills a block parses,
encodes and commits it before it returns.  That is the one trade-off:
the sealing append blocks for one block's encode, and a caller who
wants appends to keep flowing passes ``pipeline_depth=2``.  Under the
GIL a lone encode worker adds no throughput, since the encode is Python
except for the codec, while every blocking call of a concurrent tail
count waits for the worker to hand back the GIL.  ``flush``/``close``
drain the pipeline.  Because the scheduler is deterministic, streaming
produces byte-identical archives to batch compression for the same
config, at any depth.

    with StreamingCompressor(store=ArchiveStore(path)) as stream:
        for line in tail_f(...):
            stream.append(line)
    # all blocks compressed and persisted

**The hot tail.**  A line is queryable the moment ``append`` returns —
not when its block seals.  ``open_reader(tail=True)`` yields a LogGrep
whose box source presents ``sealed ∪ tail``: the committed store blocks,
one in-memory box per *pending* block (sealed and handed to the
scheduler's pool, not yet committed — only at depth ≥ 2) and one for the
append buffer.  At any instant a line lives in exactly one of those
three places, and the snapshot that decides block membership is taken
atomically under the ingest lock, so no line is double-counted or
dropped across the seal race.

A pending block's box is encoded once, from the parse the scheduler made
at submit, and kept until the block commits.  Only the buffer's box is
rebuilt, once per tail version, and its parse is *incremental*: every
``append`` assigns its line against the templates the stream has already
mined (the batch parser's ``TemplateMatcher``), so a build only
transposes the assigned rows and mines the small residual no known
template matched.  Tail boxes are scanned, never stored, so they are
encoded in ``encode_parsed``'s ``scan_only`` mode: plain vectors (no
vector is classified), raw Capsules that never enter the codec rule,
and permissive stamps.  The prune operators skip them because the
source serves them as already-open boxes.  Line ids start at each
block's own ``first_line_id`` — what sealing assigns — so a
tail-inclusive grep is byte-for-byte equal to the same grep after
``flush()``.

Every reader of the stream shares one Query Cache, keyed like any
other by ``(generation, box name, term)``.  A pending box's name
fronts one content until its commit, and the buffer's name carries its
tail version, so a tail count matches only the boxes that changed
since the last count.  A commit only adds a block name — the scheduler
refuses to write over one — so it bumps no generation, and the entries
of every unchanged block survive it.  The stream also holds the box of
its newest committed block (the encoder's, one at most) and serves it
under the block's name, so the first count after a seal matches the
new block without reading the store.  Only a lifecycle rewrite bumps
the generation; a reader then stops serving a held box committed under
an older one, and the stream folds the rewriter's sidecar into its
prune index.  The readers do not share a ``BoxCache``: a shared box
could outlive a foreign warm demote that rewrote its block under the
same name.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..blockstore.block import LogBlock
from ..blockstore.index import ArchiveIndex, load_index, open_index
from ..blockstore.store import ArchiveStore, MemoryStore
from ..capsule.box import CapsuleBox
from ..common.tokenizer import tokenize
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..query.executor import StoreBoxSource
from ..query.cache import QueryCache, load_generation
from ..staticparse.cache import TemplateCache
from ..staticparse.matcher import TemplateMatcher
from ..staticparse.parser import BlockParser, Group, ParsedBlock
from ..staticparse.template import Template
# parse_block is unused here but stays bound: perfbench/tracing.py wraps
# it by name in this module.
from .compressor import encode_parsed, parse_block  # noqa: F401
from .config import LogGrepConfig
from .loggrep import CompressionReport, LogGrep
from .schedule import CompressionScheduler

_VISIBLE_SECONDS = get_registry().gauge(
    "loggrep_ingest_visible_seconds",
    "Append-to-queryable latency: seconds to build the last hot-tail box "
    "a query needed",
)
_TAIL_LINES = get_registry().counter(
    "loggrep_tail_lines_encoded_total",
    "Lines encoded into hot-tail boxes, by kind (pending block or buffer)",
)


#: One template's share of the append buffer: the template, the
#: buffer-local line ids assigned to it, and those lines' token rows.
_TailRows = Tuple[Template, List[int], List[List[str]]]


def _tail_name(block_id: int, version: Optional[int] = None) -> str:
    # "tail-" sorts after "block-" and the padded block ids sort in line
    # order, so tail boxes are the last entries of the query plan's name
    # order and line ids stay monotonic.  The buffer's name also carries
    # the tail version: its lines change with every append.
    suffix = "" if version is None else f"-{version:012d}"
    return f"tail-{block_id:012d}{suffix}.lgcb"


@dataclass(frozen=True)
class TailSnapshot:
    """One atomic observation of the not-yet-committed ingest state."""

    version: int
    sealed_names: List[str]
    #: Blocks sealed but not committed, oldest first, each with the
    #: parse the scheduler made at submit.
    pending: List[Tuple[LogBlock, ParsedBlock]]
    #: The append buffer, and the block id and first line id it will
    #: seal with.
    lines: List[str]
    block_id: int
    first_line_id: int
    #: The buffer's incremental parse: rows appends assigned to known
    #: templates, and ``(local_line_id, line)`` pairs no known template
    #: matched — mined when the buffer's box is built.
    rows: List[_TailRows]
    residual: List[Tuple[int, str]]
    #: Tail box name -> block id, in line order: one per pending block,
    #: then the buffer's when it holds lines.
    tail_names: Dict[str, int]

    def buffer_groups(self) -> List[Group]:
        """The buffer's template-assigned lines as groups."""
        return [
            Group.from_rows(template, line_ids, rows)
            for template, line_ids, rows in self.rows
        ]


class StreamingCompressor:
    """Append-oriented ingestion: blocks seal on the appending thread at
    ``pipeline_depth`` 1 and encode on a worker pool at depth ≥ 2."""

    def __init__(
        self,
        store: Optional[ArchiveStore] = None,
        config: Optional[LogGrepConfig] = None,
        pipeline_depth: Optional[int] = None,
    ):
        self.config = config or LogGrepConfig()
        if pipeline_depth is None:
            pipeline_depth = self.config.compress_parallelism
        if pipeline_depth <= 0:
            raise ValueError("pipeline depth must be positive")
        self.pipeline_depth = pipeline_depth
        self.store = store if store is not None else MemoryStore()
        # The generation the index reflects, read before it: a rewrite
        # in between re-syncs (see _sync_index).
        self._generation = load_generation(self.store)
        self._index = open_index(self.store)
        # One reentrant lock serializes everything the tail snapshot
        # depends on: the append buffer, the scheduler's pending deque
        # and the store commits it performs.  Snapshots taken under it
        # are atomic across the seal race.
        self._lock = threading.RLock()
        self._tail_version = 0
        # Built tail boxes by name: pending blocks' until they commit,
        # and the buffer's latest version (``_buffer_name``).
        self._tail_boxes: Dict[str, CapsuleBox] = {}
        self._buffer_name = ""
        # The newest committed block: (name, its box, the generation read
        # before its commit).  Replaced at every commit.
        self._held: Optional[Tuple[str, CapsuleBox, int]] = None
        # The Query Cache every reader shares (see the module docstring).
        self._fragments = QueryCache(self.config.cache_capacity)
        self._template_cache = TemplateCache()
        self._scheduler = CompressionScheduler(
            self.store,
            self.config,
            template_cache=self._template_cache,
            parallelism=pipeline_depth,
            index=self._index,
            on_commit=self._on_commit,
        )
        self._lines: list = []
        self._buffered_bytes = 0
        # Appending to an existing archive continues after its last block.
        self._next_block_id, self._next_line_id = self._index.next_ids()
        self._start = time.perf_counter()
        self._closed = False
        # Incremental parse of the buffer (all under self._lock): the
        # matcher (rebuilt from the scheduler's cache at every seal) and
        # the buffer's accumulated per-template rows and residual.
        self._tail_matcher = TemplateMatcher()
        self._tail_rows: Dict[int, _TailRows] = {}
        self._tail_residual: List[Tuple[int, str]] = []
        self._refresh_tail_matcher()

    def _refresh_tail_matcher(self) -> None:
        """Rebuild the append-time template matcher from the stream's
        warm-start cache (called under the lock at init and after every
        seal, when the scheduler's ordered parse has just learned the
        sealed block's templates)."""
        self._tail_matcher = TemplateMatcher(self._template_cache.templates())

    def _assign_tail_line(self, line: str, local_id: int) -> None:
        """Incrementally parse one appended line (under the lock): the
        batch parser's assignment rule against the cache snapshot;
        unmatched lines land in the residual, which the tail build mines
        on demand."""
        tokens = tokenize(line)
        template = self._tail_matcher.match(tokens)
        if template is None:
            self._tail_residual.append((local_id, line))
            return
        entry = self._tail_rows.get(template.template_id)
        if entry is None:
            entry = self._tail_rows[template.template_id] = (template, [], [])
        entry[1].append(local_id)
        entry[2].append(tokens)

    # ------------------------------------------------------------------
    def append(self, line: str) -> None:
        """Buffer one log line; hands full blocks to the pipeline.

        Block boundaries follow :func:`~repro.blockstore.block.split_lines`
        exactly (a block never exceeds the budget unless a single line
        does), so streaming produces byte-identical archives to batch
        compression.  The line is queryable through
        ``open_reader(tail=True)`` as soon as this returns.
        """
        if self._closed:
            raise RuntimeError("streaming compressor is closed")
        cost = len(line) + 1
        with self._lock:
            if self._lines and self._buffered_bytes + cost > self.config.block_bytes:
                self._submit_block()
            self._lines.append(line)
            self._buffered_bytes += cost
            self._assign_tail_line(line, len(self._lines) - 1)
            self._tail_version += 1

    def extend(self, lines) -> None:
        for line in lines:
            self.append(line)

    def _submit_block(self) -> None:
        if not self._lines:
            return
        with self._lock:
            if not self._lines:
                return
            block = LogBlock(self._next_block_id, self._next_line_id, self._lines)
            self._next_block_id += 1
            self._next_line_id += block.num_lines
            self._lines = []
            self._buffered_bytes = 0
            self._tail_rows = {}
            self._tail_residual = []
            # The buffer's box is dead: its lines are a sealed block now.
            self._tail_boxes.pop(self._buffer_name, None)
            # The scheduler parses in order (warm-start cache), then
            # encodes and commits inline at depth 1, or on its pool with
            # back-pressure at twice its worker depth — the producer
            # cannot outrun compression forever.
            with get_tracer().span(
                "ingest.seal", block=block.block_id, lines=block.num_lines
            ):
                self._sync_index()
                self._scheduler.submit(block)
            # The ordered parse just merged the sealed block's templates
            # into the cache; future appends should match against them.
            self._refresh_tail_matcher()

    def _on_commit(self, name: str, block: LogBlock, box: CapsuleBox) -> None:
        # The block's lines are in the store now: its tail box is dead,
        # and the box just committed serves its name instead.  Every
        # commit runs after a _sync_index, so _generation was read before
        # the block was written: a rewrite of it bumps past that.
        with self._lock:
            self._tail_boxes.pop(_tail_name(block.block_id), None)
            self._held = (name, box, self._generation)
            # Its shape too, so the block stays box-less warm (no
            # LoadBox) once the next commit replaces the held box.
            self._fragments.put_shape(
                self._generation,
                name,
                tuple(group.num_entries for group in box.groups),
            )

    def _sync_index(self) -> int:
        """Load the archive generation; when a lifecycle rewrite advanced
        it, fold the rewriter's sidecar into the stream's prune index (a
        cold merge reuses names for other lines) and drop the names it
        merged away.  The index object is shared with the scheduler and
        the readers, so it is updated in place.  Returns the generation.
        """
        with self._lock:
            generation = load_generation(self.store)
            if generation != self._generation:
                self._generation = generation
                fresh = load_index(self.store) or ArchiveIndex()
                summaries = {**self._index.blocks, **fresh.blocks}
                self._index.blocks = {
                    name: summaries[name]
                    for name in self.store.names()
                    if name in summaries
                }
            return generation

    # ------------------------------------------------------------------
    # the hot tail
    # ------------------------------------------------------------------
    def tail_snapshot(self) -> TailSnapshot:
        """Atomically observe every line not yet committed to the store.

        The tail is the scheduler's in-flight blocks (submitted, not yet
        committed) followed by the append buffer; ``sealed_names`` is the
        store listing *at the same instant*, so the union
        ``sealed ∪ tail`` is exactly the appended stream.
        """
        with self._lock:
            pending = self._scheduler.pending_blocks()
            tail_names = {
                _tail_name(block.block_id): block.block_id for block, _ in pending
            }
            if self._lines:
                name = _tail_name(self._next_block_id, self._tail_version)
                tail_names[name] = self._next_block_id
            return TailSnapshot(
                version=self._tail_version,
                sealed_names=list(self.store.names()),
                pending=pending,
                lines=list(self._lines),
                block_id=self._next_block_id,
                first_line_id=self._next_line_id,
                # The buffer's containers grow under appends: copy them.
                rows=[
                    (template, list(line_ids), list(rows))
                    for template, line_ids, rows in self._tail_rows.values()
                ],
                residual=list(self._tail_residual),
                tail_names=tail_names,
            )

    def total_appended(self) -> int:
        """Lines appended so far (sealed and unsealed)."""
        with self._lock:
            return self._next_line_id + len(self._lines)

    def _parse_buffer(self, snap: TailSnapshot) -> ParsedBlock:
        """The buffer's parse: the rows appends assigned to known
        templates, plus the residual mined here with the ordinary batch
        parser — a cold stream (empty matcher) mines the whole buffer.
        Templates are renumbered so ids stay unique across the two.
        """
        groups = snap.buffer_groups()
        if snap.residual:
            parser = BlockParser(
                sample_rate=self.config.sample_rate,
                similarity=self.config.similarity,
                seed=self.config.seed,
            )
            mined = parser.parse([line for _, line in snap.residual])
            for group in mined.groups:
                line_ids = [snap.residual[row][0] for row in group.line_ids]
                groups.append(Group(group.template, line_ids, group.variable_vectors))
        templates = [
            Template(i, list(group.template.tokens)) for i, group in enumerate(groups)
        ]
        return ParsedBlock(
            templates,
            [
                Group(template, group.line_ids, group.variable_vectors)
                for template, group in zip(templates, groups)
            ],
            len(snap.lines),
        )

    def _tail_box(self, snap: TailSnapshot, name: str) -> CapsuleBox:
        """The in-memory box *name* of *snap*, cached once built.

        A pending block's box is encoded from the parse the scheduler
        made at submit and kept until the block commits; the buffer's is
        kept for its tail version, which its name carries.  Line ids
        start at the block's own ``first_line_id`` — what sealing
        assigns — which is what makes tail-inclusive grep results
        byte-for-byte equal to post-flush results.
        """
        with self._lock:
            box = self._tail_boxes.get(name)
        if box is not None:
            return box
        block_id = snap.tail_names[name]
        buffer = block_id == snap.block_id
        if buffer:
            block = LogBlock(block_id, snap.first_line_id, snap.lines)
        else:
            block, parsed = next(
                entry for entry in snap.pending if entry[0].block_id == block_id
            )
        kind = "buffer" if buffer else "pending"
        start = time.perf_counter()
        with get_tracer().span(
            "ingest.tail_build",
            kind=kind,
            lines=block.num_lines,
            mined=len(snap.residual) if buffer else 0,
        ):
            if buffer:
                parsed = self._parse_buffer(snap)
            # Scan-only: plain vectors, raw Capsules and permissive stamps
            # make the encode latency (the append→queryable window) a
            # fraction of a real block compression while reconstructing
            # the exact same lines.
            box = encode_parsed(block, parsed, self.config, scan_only=True)
        _VISIBLE_SECONDS.set(time.perf_counter() - start)
        _TAIL_LINES.inc(block.num_lines, kind=kind)
        with self._lock:
            if buffer:
                # Only the latest version is worth keeping; a query
                # against an older snapshot rebuilds from it.
                self._tail_boxes.pop(self._buffer_name, None)
                self._buffer_name = name
                self._tail_boxes[name] = box
            elif any(
                entry.block_id == block_id
                for entry, _ in self._scheduler.pending_blocks()
            ):
                # Still pending, so _on_commit will drop it; a box that
                # lost the race with its commit is not kept.
                self._tail_boxes[name] = box
        return box

    # ------------------------------------------------------------------
    # accounting (delegated to the scheduler)
    # ------------------------------------------------------------------
    @property
    def raw_bytes(self) -> int:
        return self._scheduler.raw_bytes

    @property
    def compressed_bytes(self) -> int:
        return self._scheduler.compressed_bytes

    @property
    def blocks(self) -> int:
        return self._scheduler.blocks

    @property
    def backlog(self) -> int:
        """Blocks submitted but not yet committed to the store."""
        return self._scheduler.backlog

    # ------------------------------------------------------------------
    def flush(self) -> CompressionReport:
        """Drain the pipeline (including the partial tail block).

        Reports are **cumulative**: every flush covers the whole stream
        so far — ``blocks``/``raw_bytes``/``compressed_bytes`` are totals
        since construction and ``elapsed`` is wall-clock since
        construction, so ``speed_mb_s`` is the average ingest throughput
        of the stream.  Repeated flushes never double-count; each later
        report only grows by the newly appended data.

        Note that flushing mid-stream seals the current partial block
        early, so archives produced with interim flushes may split
        blocks differently from one-shot batch compression.
        """
        with self._lock:
            with get_tracer().span("ingest.flush"):
                self._submit_block()
                # A foreign rewrite since the last seal must be folded in
                # before the drain persists the index as the sidecar.
                self._sync_index()
                self._scheduler.drain()
        elapsed = time.perf_counter() - self._start
        return CompressionReport(
            self.blocks, self.raw_bytes, self.compressed_bytes, elapsed
        )

    def close(self) -> CompressionReport:
        """Flush, release the worker pool, and reject further appends.

        The stream is closed and its pool released even when the flush
        raises (a failing store, say); the error still propagates.
        """
        try:
            return self.flush()
        finally:
            self._closed = True
            self._scheduler.close()

    def open_reader(self, tail: bool = False) -> LogGrep:
        """A LogGrep facade over the stream.

        With the default ``tail=False`` the reader sees everything
        committed so far (flush to make that everything appended).  With
        ``tail=True`` the reader sees ``sealed ∪ tail``: every appended
        line, including lines whose block has not sealed yet, with the
        same line ids they will carry after sealing.

        Every reader shares the stream's Query Cache (not its
        ``BoxCache``), so ``clear_query_cache()`` on one clears it for
        all of them, and serves the stream's newest committed block
        from the box the stream built for it.
        """
        reader = LogGrep(
            store=self.store,
            config=self.config,
            prune_index=self._index,
            fragments=self._fragments,
        )
        # Re-point the reader's one executor (a second one would read the
        # archive generation again), at the generation the stream's index
        # reflects: a rewrite since then re-syncs at the first query.
        reader.executor.source = _StreamBoxSource(
            self, reader._box_cache, self._index, tail
        )
        return reader

    def __enter__(self) -> "StreamingCompressor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _StreamBoxSource(StoreBoxSource):
    """Box source of a stream's readers: the store's blocks, the
    stream's newest committed box and, with ``tail``, ``sealed ∪ tail``.

    ``names()`` — the executor's once-per-query consistency point —
    takes one atomic tail snapshot: the sealed store listing plus one
    ``tail-*`` name per pending block and one for a non-empty buffer.
    Tail names answer ``cached()`` with an in-memory box, which makes the
    plan's TimePrune/BlockFilter/LoadBox operators skip them without any
    special-casing; Match/Aggregate then run over their vectors like any
    other block's.  So does the held box of the newest committed block,
    while the reader's generation is the one it was committed under.
    """

    def __init__(
        self,
        stream: StreamingCompressor,
        box_cache=None,
        index: Optional[ArchiveIndex] = None,
        tail: bool = True,
    ):
        super().__init__(stream.store, box_cache, index, stream._generation)
        self._stream = stream
        self._tail = tail
        # The latest few snapshots: concurrent queries may hold a few at
        # once, but only the latest few matter.
        self._snaps: List[TailSnapshot] = []

    def names(self) -> List[str]:
        if not self._tail:
            return super().names()
        snap = self._stream.tail_snapshot()
        self._snaps = self._snaps[-3:] + [snap]
        return snap.sealed_names + list(snap.tail_names)

    def cached(self, name: str) -> Optional[CapsuleBox]:
        for snap in reversed(self._snaps):
            if name in snap.tail_names:
                return self._stream._tail_box(snap, name)
        held = self._stream._held
        if held is not None and held[0] == name and held[2] == self.generation:
            return held[1]
        return super().cached(name)

    def invalidate(self) -> None:
        """A lifecycle rewrite: drop the boxes, and share the stream's
        prune index once it has folded in the rewriter's sidecar."""
        if self.box_cache is not None:
            self.box_cache.clear()
        self._stream._sync_index()
        self.index = self._stream._index

    def total_lines_hint(self) -> int:
        """Logical-clock extent including unsealed lines (timeseries)."""
        return self._stream.total_appended()
