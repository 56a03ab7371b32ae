"""Streaming ingestion with block compression and a hot tail.

The paper's §8 calls compression speed "important to ingest raw logs at a
high speed".  :class:`StreamingCompressor` runs on the
:class:`~repro.core.schedule.CompressionScheduler`, as batch compression
does: the ``append`` that fills a block parses it in order (template
warm-start), encodes it and commits it before it returns.  The sealing
append waits for one block's encode; there is no background encode,
because under the GIL a worker thread measured slower than the appending
thread doing the work itself (EXPERIMENTS.md §The encode pool on trial).
``flush``/``close`` seal the partial block and save the prune sidecar.
Because the scheduler is deterministic, streaming produces byte-identical
archives to batch compression for the same config.

    with StreamingCompressor(store=ArchiveStore(path)) as stream:
        for line in tail_f(...):
            stream.append(line)
    # all blocks compressed and persisted

**The hot tail.**  A line is queryable the moment ``append`` returns —
not when its block seals.  ``open_reader(tail=True)`` yields a LogGrep
whose box source presents ``sealed ∪ tail``: the committed store blocks,
then one ``tail-*`` block for the append buffer.  At any instant a line
lives in exactly one of those two places, and the snapshot that decides
block membership is taken atomically under the ingest lock, so no line
is double-counted or dropped across a seal.  The tail name carries the
buffer's lines, so a run keeps its own view for as long as it runs.

The tail is raw text, as in the paper.  ``append`` only buffers the
line: counts and greps scan the buffer's lines
(:func:`~repro.query.engine.text_rows`), and an aggregate, EXPLAIN or
ROWS plan, ``fields()`` or ``load_box`` gets a box built on demand by
the ordinary pipeline (:meth:`StreamingCompressor._tail_box`,
``compress_block``), which is not kept.  Line ids start at the buffer's
``first_line_id`` — what sealing assigns — so a tail-inclusive grep is
byte-for-byte equal to the same grep after ``flush()``.

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
# parse_block is unused here but stays bound: perfbench/tracing.py wraps
# it by name in this module.
from .compressor import compress_block, parse_block  # noqa: F401
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
    "Lines encoded into on-demand hot-tail boxes",
)


class _TailName(str):
    """The name of the unstored tail block, carrying the block (the
    append buffer's lines).

    A run holds the names it listed, so it holds its tail view until it
    ends, however many snapshots later runs take.  ``"tail-"`` sorts
    after ``"block-"``, so the tail block is the last of the query
    plan's name order and line ids stay monotonic.
    """

    block: LogBlock

    def __new__(cls, block: LogBlock) -> "_TailName":
        name = super().__new__(cls, f"tail-{block.block_id:012d}.lgcb")
        name.block = block
        return name


@dataclass(frozen=True)
class TailSnapshot:
    """One atomic observation of the not-yet-committed ingest state."""

    sealed_names: List[str]
    #: The append buffer, and the block id and first line id it will
    #: seal with.
    lines: List[str]
    block_id: int
    first_line_id: int
    #: Tail name -> block id: the buffer's when it holds lines, else
    #: empty.
    tail_names: Dict[str, int]


class StreamingCompressor:
    """Append-oriented ingestion: a full block seals, encodes and
    commits on the appending thread."""

    def __init__(
        self,
        store: Optional[ArchiveStore] = None,
        config: Optional[LogGrepConfig] = None,
        pipeline_depth: Optional[int] = None,
    ):
        # The depth is kept for callers that pass it: only 1 (seal on the
        # appending thread) exists.
        if pipeline_depth not in (None, 1):
            raise ValueError("pipeline_depth must be 1")
        self.config = config or LogGrepConfig()
        self.store = store if store is not None else MemoryStore()
        self._index = open_index(self.store)
        # Append after commits a writer died before saving the sidecar for.
        self._index.summarize(self.store, live_names(self.store.names(), self._index))
        # One reentrant lock serializes everything the tail snapshot
        # depends on: the append buffer and the store commits the
        # scheduler performs.  Snapshots taken under it are atomic across
        # a seal.
        self._lock = threading.RLock()
        # The newest committed block: (name, its box).  Replaced at every
        # commit.
        self._held: Optional[Tuple[str, CapsuleBox]] = None
        # The Query Cache every reader shares (see the module docstring).
        self._fragments = QueryCache()
        self._template_cache = TemplateCache()
        self._scheduler = CompressionScheduler(
            self.store,
            self.config,
            template_cache=self._template_cache,
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
        """Buffer one log line; seals the block it fills.

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
            # The scheduler parses in order (warm-start cache), encodes
            # and commits before it returns.
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

        The tail is the append buffer; ``sealed_names`` is the store
        listing *at the same instant*, so the union ``sealed ∪ tail`` is
        exactly the appended stream.
        """
        with self._lock:
            lines = list(self._lines)
            tail = (
                [_TailName(LogBlock(self._next_block_id, self._next_line_id, lines))]
                if lines
                else []
            )
            return TailSnapshot(
                sealed_names=list(self.store.names()),
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

        The box is ``compress_block``'s and is not kept.  Line ids start
        at the block's own ``first_line_id``, as sealing assigns them.
        """
        block = name.block
        start = time.perf_counter()
        with get_tracer().span("ingest.tail_build", lines=block.num_lines):
            box = compress_block(block, self.config)
        _VISIBLE_SECONDS.set(time.perf_counter() - start)
        _TAIL_LINES.inc(block.num_lines)
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

    # ------------------------------------------------------------------
    def flush(self) -> CompressionReport:
        """Seal the partial tail block and save the prune sidecar.

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
        """Flush and reject further appends.

        The stream is closed even when the flush raises (a failing store,
        say); the error still propagates.
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
    takes one atomic tail snapshot: the sealed store listing plus a
    ``tail-*`` name for a non-empty buffer, carrying its block.
    ``tail_block()`` hands the executor the tail block's lines to scan;
    ``cached()`` builds its box for the plans that need one, which makes
    the plan's BlockFilter/LoadBox operators skip it.  The held box of the newest committed block is
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
