"""Compression scheduler with cross-block template warm-start.

§8 calls compression speed what lets LogGrep "ingest raw logs at a high
speed".  Batch and streaming compression submit blocks here, and
``submit`` runs each one through three stages on the calling thread
before it returns::

    parse   template warm-start cache (ordered)
      │
    encode  classify + encapsulate + pack + serialize — pure CPU
      │
    commit  store.put + prune-index summary + metrics + hooks

The *parse* stage mutates the :class:`~repro.staticparse.cache.
TemplateCache`: the snapshot block *N* parses against is exactly the
templates merged by blocks ``0..N-1``, a pure function of the input
stream.  The *encode* stage is a pure function of ``(block, parsed,
config)``.  So archives depend only on the input and the config: batch
and streaming ingest of the same lines write the same bytes
(property-tested in ``tests/test_compress_equivalence``).

§6 says compression "can easily be parallelized" across blocks, but the
encode stage is Python holding the GIL except inside zlib and LZMA, so a
thread pool here measured slower than serial on every width tried
(EXPERIMENTS.md §The encode pool on trial).  Ingest has one thread.

A commit only ever adds a block: it refuses a name the store already
holds (another writer appended since this one read the archive).  A
lifecycle rewrite writes new names too, so the bytes behind a name
never change and caches keyed by block name survive every write.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..blockstore.block import LogBlock, block_name
from ..blockstore.index import ArchiveIndex, BlockSummary, save_index, sync_index
from ..blockstore.store import ArchiveStore
from ..capsule.box import CapsuleBox
from ..common.errors import CompressionError
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..staticparse.cache import TemplateCache
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


class CompressionScheduler:
    """Parse, encode and commit each submitted block, in order."""

    def __init__(
        self,
        store: ArchiveStore,
        config: LogGrepConfig,
        template_cache: Optional[TemplateCache] = None,
        on_commit: Optional[CommitHook] = None,
        index: Optional[ArchiveIndex] = None,
    ) -> None:
        self.store = store
        self.config = config
        self.template_cache = template_cache
        self.on_commit = on_commit
        # Per-archive prune index updated at commit and persisted as a
        # store sidecar on drain/close (None = maintenance disabled).
        self.index = index
        self._index_dirty = False
        self.blocks = 0
        self.raw_bytes = 0
        self.compressed_bytes = 0
        self._closed = False

    def submit(self, block: LogBlock) -> None:
        """Parse, encode and commit *block* before returning."""
        if self._closed:
            raise RuntimeError("compression scheduler is closed")
        tracer = get_tracer()
        name = block_name(block.block_id)
        raw_bytes = block.raw_bytes  # a pass over the lines: read it once
        self.raw_bytes += raw_bytes
        with tracer.span(
            "compress.block", block=name, raw_bytes=raw_bytes
        ) as bspan:
            start = time.perf_counter()
            parsed, _ = parse_block(block, self.config, self.template_cache)
            encode_start = time.perf_counter()
            box = encode_parsed(block, parsed, self.config)
            with tracer.span("serialize"):
                data = box.serialize()
            summary = BlockSummary.from_box(box, parsed)
            _PARSE_SECONDS.observe(encode_start - start)
            _ENCODE_SECONDS.observe(time.perf_counter() - encode_start)
        if self.store.exists(name):
            # Another writer appended after this one read the archive;
            # writing over its block would lose its lines.
            raise CompressionError(
                f"block {name} already exists: another writer "
                "appended to this archive"
            )
        self.store.put(name, data)
        bspan.set("compressed_bytes", len(data))
        if self.index is not None:
            self.index.add(name, summary)
            self._index_dirty = True
        self.blocks += 1
        self.compressed_bytes += len(data)
        if self.on_commit is not None:
            self.on_commit(name, block, box)

    def drain(self) -> None:
        """Persist the prune-index sidecar when it changed — after folding
        in a sidecar a lifecycle rewrite published meanwhile, whose names
        saving a stale index would unpublish."""
        if self.index is not None and self._index_dirty:
            if hasattr(self.store, "put_aux"):
                sync_index(self.store, self.index)
                save_index(self.store, self.index)
            self._index_dirty = False

    def close(self) -> None:
        """Drain and reject further submits.  Idempotent."""
        if self._closed:
            return
        try:
            self.drain()
        finally:
            self._closed = True

    def __enter__(self) -> "CompressionScheduler":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
