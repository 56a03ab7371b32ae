"""Streaming ingestion with pipelined block compression and a hot tail.

The paper's §8 calls compression speed "important to ingest raw logs at a
high speed".  In production, Alibaba's applications append raw text to the
current 64 MB block while *previous* blocks compress in the background
(§2).  :class:`StreamingCompressor` reproduces that pipeline on top of the
:class:`~repro.core.schedule.CompressionScheduler`: ``append`` never
blocks on compression — a full block is parsed in order (template
warm-start) and its CPU-bound encode stage is handed to the scheduler's
worker pool — and ``flush``/``close`` drain the pipeline.  Because the
scheduler is deterministic, streaming produces byte-identical archives to
batch compression for the same config, any worker count.

    with StreamingCompressor(store=ArchiveStore(path)) as stream:
        for line in tail_f(...):
            stream.append(line)
    # all blocks compressed and persisted

**The hot tail.**  A line is queryable the moment ``append`` returns —
not when its block seals.  ``open_reader(tail=True)`` yields a LogGrep
whose box source presents ``sealed ∪ tail``: the committed store blocks
plus one *synthetic* tail block holding every not-yet-committed line
(the scheduler's in-flight blocks and the append buffer).  At any
instant a line lives in exactly one of those three places, and the
snapshot that decides block membership is taken atomically under the
ingest lock, so no line is double-counted or dropped across the seal
race.

Parsing for the tail is *incremental*: every ``append`` assigns its line
against the templates already mined by the stream (the batch parser's
``TemplateMatcher``), so by the time a query arrives the parse is
already paid and materializing the tail block costs only the cheap
encode (plain vectors, preset 0, speed-tier codec, permissive stamps).
Lines no known template matches sit in a small residual that is mined
on demand at build time — cold streams degrade to exactly the old
build-time full parse.  The built box is cached per tail version; the
prune operators skip it automatically because the source serves it as
an already-open box.  Line ids are assigned positionally, identical to
what sealing will assign, so a tail-inclusive grep is byte-for-byte
equal to the same grep after ``flush()``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..blockstore.block import LogBlock
from ..blockstore.index import ArchiveIndex
from ..blockstore.store import ArchiveStore, MemoryStore
from ..capsule.box import CapsuleBox
from ..common.tokenizer import tokenize
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..query.executor import QueryExecutor, StoreBoxSource
from ..query.cache import bump_generation
from ..staticparse.cache import TemplateCache
from ..staticparse.matcher import TemplateMatcher
from ..staticparse.parser import BlockParser, Group, ParsedBlock
from ..staticparse.template import Template
from .compressor import encode_parsed, parse_block
from .config import LogGrepConfig
from .loggrep import CompressionReport, LogGrep
from .schedule import CompressionScheduler

_VISIBLE_SECONDS = get_registry().gauge(
    "loggrep_ingest_visible_seconds",
    "Append-to-queryable latency: seconds to materialize the hot tail "
    "block for the first query after an append",
)


#: One template's share of the append buffer: the template, the
#: buffer-local line ids assigned to it, and those lines' token rows.
_TailRows = Tuple[Template, List[int], List[List[str]]]


def _tail_name(version: int) -> str:
    # "tail-" sorts after "block-", so the synthetic block is always the
    # last entry of the query plan's name order — ids stay monotonic.
    return f"tail-{version:012d}.lgcb"


@dataclass(frozen=True)
class _ParsedSegment:
    """Accumulated incremental parse of one tail segment (a pending
    block, or the append buffer).  ``groups`` carry segment-local line
    ids; ``residual`` holds ``(local_line_id, line)`` pairs no known
    template matched — they are mined at tail-build time."""

    num_lines: int
    groups: List[Group] = field(default_factory=list)
    residual: List[Tuple[int, str]] = field(default_factory=list)


@dataclass(frozen=True)
class TailSnapshot:
    """One atomic observation of the not-yet-committed ingest state."""

    version: int
    sealed_names: List[str]
    lines: List[str]
    block_id: int
    first_line_id: int
    #: Incremental parse state of the tail, segment per pending block
    #: plus one for the buffer.  None when the tail box for ``version``
    #: was already built (the copy would be dead weight).
    segments: Optional[List[_ParsedSegment]] = None


class StreamingCompressor:
    """Append-oriented ingestion that compresses blocks in the background."""

    def __init__(
        self,
        store: Optional[ArchiveStore] = None,
        config: Optional[LogGrepConfig] = None,
        pipeline_depth: Optional[int] = None,
    ):
        self.config = config or LogGrepConfig()
        if pipeline_depth is None:
            # Streaming always keeps at least two stages in flight so
            # append overlaps with background compression even when the
            # batch-side default is serial.
            pipeline_depth = max(2, self.config.compress_parallelism)
        if pipeline_depth <= 0:
            raise ValueError("pipeline depth must be positive")
        self.pipeline_depth = pipeline_depth
        self.store = store if store is not None else MemoryStore()
        self._index = ArchiveIndex()
        # One reentrant lock serializes everything the tail snapshot
        # depends on: the append buffer, the scheduler's pending deque
        # and the store commits it performs.  Snapshots taken under it
        # are atomic across the seal race.
        self._lock = threading.RLock()
        self._tail_version = 0
        self._tail_boxes: Dict[int, CapsuleBox] = {}
        self._template_cache = TemplateCache()
        self._scheduler = CompressionScheduler(
            self.store,
            self.config,
            template_cache=self._template_cache,
            parallelism=pipeline_depth,
            executor=self.config.compress_executor,
            always_async=True,
            index=self._index,
            on_commit=self._on_commit,
        )
        self._lines: list = []
        self._buffered_bytes = 0
        self._next_block_id = 0
        self._next_line_id = 0
        self._start = time.perf_counter()
        self._closed = False
        # Tail blocks are scanned, not archived: plain vectors at the
        # cheapest presets make the parse+encode latency (the append→
        # queryable window) a fraction of a real block compression while
        # reconstructing the exact same lines.
        self._tail_config = replace(
            self.config,
            preset=0,
            use_block_bloom=False,
            use_real_patterns=False,
            use_nominal_patterns=False,
            codec_speed_tier=True,
            cheap_stamps=True,
            compress_parallelism=1,
        )
        # Incremental tail parse state (all under self._lock): the
        # matcher (rebuilt from the scheduler's cache at every seal), the
        # buffer's accumulated per-template rows and residual, and the
        # frozen segments of blocks that sealed but have not committed.
        self._tail_matcher = TemplateMatcher()
        self._tail_rows: Dict[int, _TailRows] = {}
        self._tail_residual: List[Tuple[int, str]] = []
        self._parsed_pending: Dict[int, _ParsedSegment] = {}
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

    def _tail_groups(self) -> List[Group]:
        """The buffer's accumulated parse as fresh (unshared) groups."""
        return [
            Group.from_rows(template, list(line_ids), rows)
            for template, line_ids, rows in self._tail_rows.values()
        ]

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
            # Freeze the buffer's accumulated parse as this block's tail
            # segment; the accumulator restarts from fresh containers.
            self._parsed_pending[block.block_id] = _ParsedSegment(
                block.num_lines, self._tail_groups(), self._tail_residual
            )
            self._tail_rows = {}
            self._tail_residual = []
            # The scheduler parses in order (warm-start cache), encodes in
            # the background, and applies back-pressure at twice its
            # configured worker depth — the producer cannot outrun
            # compression forever.
            with get_tracer().span(
                "ingest.seal", block=block.block_id, lines=block.num_lines
            ):
                self._scheduler.submit(block)
            # The ordered parse just merged the sealed block's templates
            # into the cache; future appends should match against them.
            self._refresh_tail_matcher()

    def _on_commit(self, name: str, block: LogBlock, data: bytes) -> None:
        # A commit moves lines from the pending deque into the store, so
        # any cached tail box is stale even without new appends.
        with self._lock:
            self._parsed_pending.pop(block.block_id, None)
            self._tail_version += 1
        # The archive's block set changed: advance the persisted
        # generation so query caches keyed on it (see
        # repro/query/cache.py) cannot serve pre-commit row sets.
        bump_generation(self.store)

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
            lines: List[str] = []
            for block in pending:
                lines.extend(block.lines)
            lines.extend(self._lines)
            if pending:
                block_id = pending[0].block_id
                first_line_id = pending[0].first_line_id
            else:
                block_id = self._next_block_id
                first_line_id = self._next_line_id
            segments: Optional[List[_ParsedSegment]] = None
            if lines and self._tail_version not in self._tail_boxes:
                segments = []
                for block in pending:
                    seg = self._parsed_pending.get(block.block_id)
                    if seg is None:  # defensive: mine the whole block
                        seg = _ParsedSegment(
                            block.num_lines,
                            [],
                            list(enumerate(block.lines)),
                        )
                    segments.append(seg)
                if self._lines:
                    # The buffer still mutates under appends — the
                    # snapshot gets its own groups and residual list.
                    segments.append(
                        _ParsedSegment(
                            len(self._lines),
                            self._tail_groups(),
                            list(self._tail_residual),
                        )
                    )
            return TailSnapshot(
                version=self._tail_version,
                sealed_names=list(self.store.names()),
                lines=lines,
                block_id=block_id,
                first_line_id=first_line_id,
                segments=segments,
            )

    def total_appended(self) -> int:
        """Lines appended so far (sealed and unsealed)."""
        with self._lock:
            return self._next_line_id + len(self._lines)

    def _compose_segments(
        self, segments: Sequence[_ParsedSegment]
    ) -> ParsedBlock:
        """Stitch the per-segment incremental parses into one ParsedBlock.

        Segment-local line ids are offset into the tail block's line
        space; templates are renumbered so ids stay unique across
        segments (the same static pattern may appear in several).
        Residual lines — shapes no cached template matched — are mined
        here, per segment, with the ordinary batch parser; a cold stream
        (empty matcher) therefore degrades to exactly the old full
        build-time parse.
        """
        templates: List[Template] = []
        groups: List[Group] = []
        offset = 0
        for segment in segments:
            seg_groups = list(segment.groups)
            if segment.residual:
                parser = BlockParser(
                    sample_rate=self._tail_config.sample_rate,
                    similarity=self._tail_config.similarity,
                    seed=self._tail_config.seed,
                )
                mined = parser.parse([line for _, line in segment.residual])
                for group in mined.groups:
                    seg_groups.append(
                        Group(
                            group.template,
                            [
                                segment.residual[row][0]
                                for row in group.line_ids
                            ],
                            group.variable_vectors,
                        )
                    )
            for group in seg_groups:
                template = Template(len(templates), list(group.template.tokens))
                templates.append(template)
                groups.append(
                    Group(
                        template,
                        [lid + offset for lid in group.line_ids],
                        group.variable_vectors,
                    )
                )
            offset += segment.num_lines
        return ParsedBlock(templates, groups, offset)

    def _tail_box(self, snap: TailSnapshot) -> CapsuleBox:
        """The synthetic tail block for *snap*, built once per version.

        Line ids are positional from ``snap.first_line_id`` — identical
        to what the scheduler will assign when these lines seal, which
        is what makes tail-inclusive grep results byte-for-byte equal to
        post-flush results.
        """
        with self._lock:
            box = self._tail_boxes.get(snap.version)
        if box is not None:
            return box
        start = time.perf_counter()
        with get_tracer().span("ingest.tail_build", lines=len(snap.lines)):
            block = LogBlock(snap.block_id, snap.first_line_id, snap.lines)
            if snap.segments is not None:
                parsed = self._compose_segments(snap.segments)
            else:
                # The snapshot skipped the parse-state copy because this
                # version's box existed then; it has since been evicted
                # (a racing query against an old snapshot) — fall back
                # to a full warm-started parse.
                cache = TemplateCache()
                cache.merge(self._template_cache.snapshot())
                parsed, _ = parse_block(block, self._tail_config, cache)
            box = encode_parsed(block, parsed, self._tail_config)
        _VISIBLE_SECONDS.set(time.perf_counter() - start)
        with self._lock:
            # Only the latest version is worth keeping; queries against
            # older snapshots rebuild (rare — only a racing query).
            self._tail_boxes = {snap.version: box}
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
        """Flush, release the worker pool, and reject further appends."""
        report = self.flush()
        self._scheduler.close()
        self._closed = True
        return report

    def open_reader(self, tail: bool = False) -> LogGrep:
        """A LogGrep facade over the stream.

        With the default ``tail=False`` the reader sees everything
        committed so far (flush to make that everything appended).  With
        ``tail=True`` the reader sees ``sealed ∪ tail``: every appended
        line, including lines whose block has not sealed yet, with the
        same line ids they will carry after sealing.
        """
        reader = LogGrep(
            store=self.store, config=self.config, prune_index=self._index
        )
        reader._next_block_id = self._next_block_id
        reader._next_line_id = self._next_line_id
        if tail:
            source = _TailBoxSource(self, reader._box_cache, self._index)
            reader._executor = QueryExecutor(
                source, self.config, reader.fragments
            )
        return reader

    def __enter__(self) -> "StreamingCompressor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _TailBoxSource(StoreBoxSource):
    """Box source presenting ``sealed ∪ tail`` to the query executor.

    ``names()`` — the executor's once-per-query consistency point —
    takes one atomic tail snapshot: the sealed store listing plus (when
    any unsealed lines exist) a synthetic ``tail-<version>`` name.  The
    tail name answers ``cached()`` with an in-memory box, which makes
    the plan's TimePrune/BloomPrune/LoadBox operators skip it without
    any special-casing; Match/Aggregate then run over its vectors like
    any other block's.
    """

    def __init__(
        self,
        stream: StreamingCompressor,
        box_cache=None,
        index: Optional[ArchiveIndex] = None,
    ):
        super().__init__(stream.store, box_cache, index)
        self._stream = stream
        self._snaps: Dict[str, TailSnapshot] = {}

    def names(self) -> List[str]:
        snap = self._stream.tail_snapshot()
        names = list(snap.sealed_names)
        if snap.lines:
            name = _tail_name(snap.version)
            self._snaps[name] = snap
            # Bounded: concurrent queries may hold a few snapshots at
            # once, but only the latest few matter.
            while len(self._snaps) > 4:
                self._snaps.pop(next(iter(self._snaps)))
            names.append(name)
        return names

    def cached(self, name: str) -> Optional[CapsuleBox]:
        snap = self._snaps.get(name)
        if snap is not None:
            return self._stream._tail_box(snap)
        return super().cached(name)

    def total_lines_hint(self) -> int:
        """Logical-clock extent including unsealed lines (timeseries)."""
        return self._stream.total_appended()
