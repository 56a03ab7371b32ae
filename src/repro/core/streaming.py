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
then one ``tail-*`` block per *pending* block (sealed and handed to the
scheduler's pool, not yet committed — only at depth ≥ 2) and one for the
append buffer.  At any instant a line lives in exactly one of those
three places, and the snapshot that decides block membership is taken
atomically under the ingest lock, so no line is double-counted or
dropped across the seal race.  Each tail name carries its block's lines,
so a run keeps its own view for as long as it runs.

The tail is raw text, as in the paper.  ``append`` only buffers the
line: counts and greps scan a tail block's lines
(:func:`~repro.query.engine.text_rows`), and an aggregate, EXPLAIN or
ROWS plan, ``fields()`` or ``load_box`` gets a box built on demand by
the ordinary pipeline (:meth:`StreamingCompressor._tail_box`) — a
pending block's from the parse the scheduler made at submit, which is
the box its commit writes, and the buffer's with ``compress_block``.
Neither is kept.  Line ids start at each block's own ``first_line_id``
— what sealing assigns — so a tail-inclusive grep is byte-for-byte
equal to the same grep after ``flush()``.

Every reader of the stream shares one Query Cache, keyed like any
other by ``(box name, term)``; tail rows never enter it.  A block name
is written once (a commit only adds one; a lifecycle rewrite writes new
names and deletes the ones it replaced), so a name's entries and boxes
stay right for as long as the name is served.  The stream also holds
the box of its newest committed block (the encoder's, one at most) and
serves it under the block's name, so the first count after a seal
matches the new block without reading the store.  The stream's prune
index is shared with its scheduler and its readers: opening the stream
summarizes into it the live blocks the sidecar does not list, and a
listing that shows a rewrite folds the rewriter's sidecar into it
(:func:`~repro.blockstore.index.sync_index`), as the scheduler does
before it saves the index.  Each reader keeps
its own ``BoxCache``: measured on a 2-core box, a ``BoxCache`` shared
across a stream's readers took tail counts to 0.77–0.85x of their time,
about what the one held box gives (0.82x), while holding up to 64 boxes
instead of one.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..blockstore.block import LogBlock
from ..blockstore.index import ArchiveIndex, live_names, open_index
from ..blockstore.store import ArchiveStore, MemoryStore
from ..capsule.box import CapsuleBox
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..query.executor import StoreBoxSource
from ..query.cache import QueryCache
from ..staticparse.cache import TemplateCache
from ..staticparse.parser import ParsedBlock
# parse_block is unused here but stays bound: perfbench/tracing.py wraps
# it by name in this module.
from .compressor import compress_block, encode_parsed, parse_block  # noqa: F401
from .config import LogGrepConfig
from .loggrep import CompressionReport, LogGrep
from .schedule import CompressionScheduler

_VISIBLE_SECONDS = get_registry().gauge(
    "loggrep_ingest_visible_seconds",
    "Seconds to build the last on-demand hot-tail box (aggregate, "
    "EXPLAIN, ROWS or fields over the tail)",
)
_TAIL_LINES = get_registry().counter(
    "loggrep_tail_lines_encoded_total",
    "Lines encoded into on-demand hot-tail boxes, by kind (pending block "
    "or buffer)",
)


class _TailName(str):
    """The name of one unstored tail block, carrying the block: its lines
    and, for a pending block, the parse the scheduler made at submit.

    A run holds the names it listed, so it holds its tail view until it
    ends, however many snapshots later runs take.  ``"tail-"`` sorts
    after ``"block-"`` and the padded ids sort in line order, so tail
    blocks are the last of the query plan's name order and line ids stay
    monotonic.
    """

    block: LogBlock
    parsed: Optional[ParsedBlock]

    def __new__(
        cls, block: LogBlock, parsed: Optional[ParsedBlock] = None
    ) -> "_TailName":
        name = super().__new__(cls, f"tail-{block.block_id:012d}.lgcb")
        name.block = block
        name.parsed = parsed
        return name


@dataclass(frozen=True)
class TailSnapshot:
    """One atomic observation of the not-yet-committed ingest state."""

    sealed_names: List[str]
    #: Blocks sealed but not committed, oldest first, each with the
    #: parse the scheduler made at submit.
    pending: List[Tuple[LogBlock, ParsedBlock]]
    #: The append buffer, and the block id and first line id it will
    #: seal with.
    lines: List[str]
    block_id: int
    first_line_id: int
    #: Tail name -> block id, in line order: one per pending block, then
    #: the buffer's when it holds lines.
    tail_names: Dict[str, int]


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
        self._index = open_index(self.store)
        # Append after commits a writer died before saving the sidecar for.
        self._index.summarize(self.store, live_names(self.store.names(), self._index))
        # One reentrant lock serializes everything the tail snapshot
        # depends on: the append buffer, the scheduler's pending deque
        # and the store commits it performs.  Snapshots taken under it
        # are atomic across the seal race.
        self._lock = threading.RLock()
        # The newest committed block: (name, its box).  Replaced at every
        # commit.
        self._held: Optional[Tuple[str, CapsuleBox]] = None
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
            # The scheduler parses in order (warm-start cache), then
            # encodes and commits inline at depth 1, or on its pool with
            # back-pressure at twice its worker depth — the producer
            # cannot outrun compression forever.
            with get_tracer().span(
                "ingest.seal", block=block.block_id, lines=block.num_lines
            ):
                self._scheduler.submit(block)

    def _on_commit(self, name: str, block: LogBlock, box: CapsuleBox) -> None:
        # The box just committed serves its block's name.
        with self._lock:
            self._held = (name, box)
            # Its shape too, so the block stays box-less warm (no
            # LoadBox) once the next commit replaces the held box.
            self._fragments.put_shape(
                name, tuple(group.num_entries for group in box.groups)
            )

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
            tail = [_TailName(block, parsed) for block, parsed in pending]
            lines = list(self._lines)
            if lines:
                tail.append(
                    _TailName(
                        LogBlock(self._next_block_id, self._next_line_id, lines)
                    )
                )
            return TailSnapshot(
                sealed_names=list(self.store.names()),
                pending=pending,
                lines=lines,
                block_id=self._next_block_id,
                first_line_id=self._next_line_id,
                tail_names={name: name.block.block_id for name in tail},
            )

    def total_appended(self) -> int:
        """Lines appended so far (sealed and unsealed)."""
        with self._lock:
            return self._next_line_id + len(self._lines)

    def _tail_box(self, name: _TailName) -> CapsuleBox:
        """Build the box of the tail block *name* on demand, for the plans
        that need one (aggregates, EXPLAIN, ROWS) and for ``fields()`` /
        ``load_box``; counts and greps scan the block's lines instead.

        A pending block's box is ``encode_parsed`` over the parse the
        scheduler made at submit — the box its commit writes; the
        buffer's is ``compress_block``.  Neither is kept.  Line ids start
        at the block's own ``first_line_id``, as sealing assigns them.
        """
        block = name.block
        kind = "buffer" if name.parsed is None else "pending"
        start = time.perf_counter()
        with get_tracer().span("ingest.tail_build", kind=kind, lines=block.num_lines):
            if name.parsed is None:
                box = compress_block(block, self.config)
            else:
                box = encode_parsed(block, name.parsed, self.config)
        _VISIBLE_SECONDS.set(time.perf_counter() - start)
        _TAIL_LINES.inc(block.num_lines, kind=kind)
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
        # Re-point the reader's one executor at the stream's source.
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
    ``tail-*`` name per pending block and one for a non-empty buffer,
    each carrying its block.  ``tail_block()`` hands the executor a tail
    block's lines to scan; ``cached()`` builds its box for the plans that
    need one, which makes the plan's BlockFilter/LoadBox operators
    skip it.  The held box of the newest committed block is
    served under its name.
    """

    def __init__(
        self,
        stream: StreamingCompressor,
        box_cache=None,
        index: Optional[ArchiveIndex] = None,
        tail: bool = True,
    ):
        super().__init__(stream.store, box_cache, index)
        self._stream = stream
        self._tail = tail

    def names(self) -> List[str]:
        if not self._tail:
            return super().names()
        snap = self._stream.tail_snapshot()
        return self.live(snap.sealed_names) + list(snap.tail_names)

    def tail_block(self, name: str) -> Optional[LogBlock]:
        return name.block if isinstance(name, _TailName) else None

    def cached(self, name: str) -> Optional[CapsuleBox]:
        if isinstance(name, _TailName):
            return self._stream._tail_box(name)
        held = self._stream._held
        if held is not None and held[0] == name:
            return held[1]
        return super().cached(name)

    def total_lines_hint(self) -> int:
        """Logical-clock extent including unsealed lines (timeseries)."""
        return self._stream.total_appended()
