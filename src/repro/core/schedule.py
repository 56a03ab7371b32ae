"""Parallel compression scheduler with cross-block template warm-start.

§8 calls compression speed what lets LogGrep "ingest raw logs at a high
speed", and §6 notes both compression and query execution parallelize
trivially across blocks.  This module is the ingest-side mirror of the
query executor's scheduler: batch and streaming compression submit blocks
here, and the scheduler pipelines them through three stages::

    parse  (ordered, submitting thread)   template warm-start cache
      │
    encode (worker thread pool)           classify + encapsulate + pack
      │                                   + serialize — pure CPU
    commit (ordered, submitting thread)   store.put + metrics + hooks

The *parse* stage stays on the submitting thread in block order because
it mutates the :class:`~repro.staticparse.cache.TemplateCache`: the
snapshot block *N* parses against is exactly the templates merged by
blocks ``0..N-1``, a pure function of the input stream.  The *encode*
stage is a pure function of ``(block, parsed, config)``, so fanning it
out cannot change bytes.  Commits happen in submission order.  Together
that yields the scheduler's determinism contract: **archives are
byte-identical to serial compression regardless of worker count**
(property-tested in ``tests/test_compress_equivalence``).

``config.compress_parallelism`` (or ``parallelism``) picks the worker
count of one thread pool.  Threads overlap the codec portions (zlib and
LZMA release the GIL) and keep encode spans and codec metrics in the
calling process.  With one worker the scheduler is the exact serial
path: ``submit`` parses, encodes and commits before it returns, and no
pool is ever created — a lone worker thread would add no throughput
under the GIL, only hand-offs.  Back-pressure bounds the in-flight
pipeline at twice the worker count, committing the oldest block when
full, so a producer can never outrun compression without bound.

A commit only ever adds a block: it refuses a name the store already
holds (another writer appended since this one read the archive).  A
lifecycle rewrite writes new names too, so the bytes behind a name
never change and caches keyed by block name survive every write.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Deque, List, NamedTuple, Optional, Tuple, Union

from ..blockstore.block import LogBlock, block_name
from ..blockstore.index import ArchiveIndex, BlockSummary, save_index, sync_index
from ..blockstore.store import ArchiveStore
from ..capsule.box import CapsuleBox
from ..common.errors import CompressionError
from ..obs.metrics import get_registry
from ..obs.trace import Span, get_tracer
from ..staticparse.cache import TemplateCache
from ..staticparse.parser import ParsedBlock
from .compressor import encode_parsed, parse_block
from .config import LogGrepConfig

_PARSE_SECONDS = get_registry().histogram(
    "loggrep_compress_parse_seconds",
    "Per-block wall-clock of the ordered parse stage",
)
_ENCODE_SECONDS = get_registry().histogram(
    "loggrep_compress_encode_seconds",
    "Per-block wall-clock of the encode+serialize stage",
)

#: Hook invoked after each block is persisted: (name, block, box), the
#: box being the encoder's in-memory one (what the bytes deserialize to).
CommitHook = Callable[[str, LogBlock, CapsuleBox], None]

#: What the encode stage returns: the encoded box, its serialized bytes,
#: the block's prune-index summary and its wall-clock.  The summary is
#: computed on the worker (it only walks stamps already in memory) so
#: commit stays cheap.
EncodeResult = Tuple[CapsuleBox, bytes, BlockSummary, float]


class _Pending(NamedTuple):
    """One submitted block waiting for its encode result."""

    name: str
    block: LogBlock
    #: The ordered parse, kept until commit so the streaming hot tail can
    #: encode the pending block without parsing it again.
    parsed: ParsedBlock
    span: Optional[Span]
    parse_seconds: float
    result: Union["Future[EncodeResult]", EncodeResult]


class CompressionScheduler:
    """Ordered-parse / fanned-encode / ordered-commit block pipeline."""

    def __init__(
        self,
        store: ArchiveStore,
        config: LogGrepConfig,
        template_cache: Optional[TemplateCache] = None,
        on_commit: Optional[CommitHook] = None,
        index: Optional[ArchiveIndex] = None,
        parallelism: Optional[int] = None,
    ) -> None:
        workers = parallelism if parallelism is not None else config.compress_parallelism
        if workers < 1:
            raise ValueError("compress parallelism must be positive")
        self.store = store
        self.config = config
        self.template_cache = template_cache
        self.on_commit = on_commit
        # Per-archive prune index updated at commit and persisted as a
        # store sidecar on drain/close (None = maintenance disabled).
        self.index = index
        self._index_dirty = False
        # Tracked on the instance — back-pressure must not reach into
        # executor privates (the configured depth is ours to know).
        self.workers = workers
        self.max_inflight = workers * 2
        self._async = workers > 1
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pending: Deque[_Pending] = deque()
        self.blocks = 0
        self.raw_bytes = 0
        self.compressed_bytes = 0
        self._closed = False

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, block: LogBlock) -> None:
        """Parse *block* now (ordered) and queue its encode stage.

        Blocks when the in-flight pipeline is full (back-pressure), by
        committing the oldest outstanding block first.
        """
        if self._closed:
            raise RuntimeError("compression scheduler is closed")
        tracer = get_tracer()
        name = block_name(block.block_id)
        raw_bytes = block.raw_bytes  # a pass over the lines: read it once
        self.raw_bytes += raw_bytes
        with tracer.span(
            "compress.block", block=name, raw_bytes=raw_bytes
        ) as bspan:
            parse_start = time.perf_counter()
            parsed, _ = parse_block(block, self.config, self.template_cache)
            parse_seconds = time.perf_counter() - parse_start
            if not self._async:
                # Serial fallback: encode inline so spans nest exactly
                # like the historical single-threaded pipeline.
                result: Union["Future[EncodeResult]", EncodeResult]
                result = self._encode_traced(block, parsed, None)
            else:
                result = self._ensure_pool().submit(
                    self._encode_traced, block, parsed, bspan
                )
        self._pending.append(_Pending(name, block, parsed, bspan, parse_seconds, result))
        if not self._async:
            self._commit_oldest()
            return
        while len(self._pending) > self.max_inflight:
            self._commit_oldest()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        return self._pool

    def _encode_traced(
        self, block: LogBlock, parsed: ParsedBlock, parent: Optional[Span]
    ) -> EncodeResult:
        """The encode stage, inline (serial) or on a pool thread.

        ``parent`` attaches the worker-thread spans to the block's span;
        on the serial path it is ``None`` and spans nest via the stack.
        """
        tracer = get_tracer()
        start = time.perf_counter()
        box = encode_parsed(block, parsed, self.config, parent=parent)
        with tracer.span("serialize", parent=parent):
            data = box.serialize()
        summary = BlockSummary.from_box(box, parsed)
        return box, data, summary, time.perf_counter() - start

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------
    def _commit_oldest(self) -> None:
        pending = self._pending.popleft()
        result = pending.result
        if isinstance(result, Future):
            box, data, summary, encode_seconds = result.result()
        else:
            box, data, summary, encode_seconds = result
        if self.store.exists(pending.name):
            # Another writer appended after this one read the archive;
            # writing over its block would lose its lines.
            raise CompressionError(
                f"block {pending.name} already exists: another writer "
                "appended to this archive"
            )
        self.store.put(pending.name, data)
        if self.index is not None:
            self.index.add(pending.name, summary)
            self._index_dirty = True
        self.blocks += 1
        self.compressed_bytes += len(data)
        if pending.span is not None:
            pending.span.set("compressed_bytes", len(data))
        _PARSE_SECONDS.observe(pending.parse_seconds)
        _ENCODE_SECONDS.observe(encode_seconds)
        if self.on_commit is not None:
            self.on_commit(pending.name, pending.block, box)

    @property
    def backlog(self) -> int:
        """Blocks submitted but not yet committed to the store."""
        return len(self._pending)

    def pending_blocks(self) -> List[Tuple[LogBlock, ParsedBlock]]:
        """The blocks submitted but not yet committed, oldest first, each
        with the parse made at submit.

        The hot-tail query path folds these into the tail snapshot: a
        line is in exactly one of (committed store, pending block, append
        buffer) at any instant, so the union is complete and duplicate-
        free across the seal race.
        """
        return [(pending.block, pending.parsed) for pending in self._pending]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Commit every outstanding block, in submission order, and
        persist the prune-index sidecar when it changed — after folding
        in a sidecar a lifecycle rewrite published meanwhile, whose names
        saving a stale index would unpublish."""
        while self._pending:
            self._commit_oldest()
        if self.index is not None and self._index_dirty:
            if hasattr(self.store, "put_aux"):
                sync_index(self.store, self.index)
                save_index(self.store, self.index)
            self._index_dirty = False

    def close(self) -> None:
        """Drain and release the worker pool.  Idempotent."""
        if self._closed:
            return
        try:
            self.drain()
        finally:
            self._closed = True
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __enter__(self) -> "CompressionScheduler":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
