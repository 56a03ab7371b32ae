"""The LogGrep facade: compress log streams, run grep-like queries.

This is the public entry point of the library::

    from repro import LogGrep

    lg = LogGrep()
    lg.compress(lines)                      # → CapsuleBoxes in the store
    result = lg.grep("ERROR AND dst:11.8.*")
    for line in result.lines:
        print(line)

``LogGrep`` owns an :class:`~repro.blockstore.store.ArchiveStore` (defaults
to an in-memory one), a :class:`~repro.core.config.LogGrepConfig` (whose
feature switches implement the §6.3 ablations) and the refining-mode query
cache.  Timings for compression and querying are recorded so the benchmark
harness and the Equation-1 cost model can read them off directly.
"""

from __future__ import annotations

import logging
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from ..blockstore.block import LogBlock, split_lines
from ..blockstore.index import ArchiveIndex, load_index, save_index
from ..blockstore.store import ArchiveStore, MemoryStore
from ..common.rowset import RowSet
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..query.admission import AdmissionQueue
from ..query.aggregate import AggregateSpec, Bucket, NumericStats
from ..query.cache import QueryCache, bump_generation, get_value_cache
from ..query.executor import (
    BoxCache,
    ExecutionResult,
    QueryExecutor,
    StoreBoxSource,
)
from ..query.explain import render_analyze
from ..query.modes import AggregateKind
from ..query.plan import OutputMode, build_aggregate_plan, build_plan
from ..query.stats import NULL_LEDGER, QueryLedger, QueryStats
from ..staticparse.cache import TemplateCache
from .config import LogGrepConfig
from .reconstructor import BlockReconstructor
from .schedule import CompressionScheduler

logger = logging.getLogger(__name__)


@dataclass
class GrepResult:
    """The outcome of one query."""

    lines: List[str]
    line_ids: List[int]
    stats: QueryStats
    elapsed: float
    #: Per-query resource accounting (NULL_LEDGER unless activated by
    #: analyze mode, a slow-query threshold or a budget).
    ledger: QueryLedger = NULL_LEDGER
    #: EXPLAIN ANALYZE report (empty outside analyze mode).
    report: str = ""

    @property
    def count(self) -> int:
        return len(self.lines)


@dataclass
class AggregateResult:
    """The outcome of one aggregate query.

    ``value`` is the finalized aggregate — a ``Counter`` (count-by),
    ``[(value, count)]`` (top-k), :class:`NumericStats` (stats) or
    ``[(low, high, count)]`` buckets (timeseries).
    """

    value: object
    #: Entries that matched the WHERE filter (what COUNT would return).
    matched: int
    stats: QueryStats
    elapsed: float
    #: Per-query resource accounting (NULL_LEDGER unless analyze=True,
    #: a slow-query threshold or a budget activated it).
    ledger: QueryLedger = NULL_LEDGER
    #: EXPLAIN ANALYZE report (empty unless analyze=True).
    report: str = ""


@dataclass
class CompressionReport:
    """Accounting of one compress() call."""

    blocks: int
    raw_bytes: int
    compressed_bytes: int
    elapsed: float

    @property
    def ratio(self) -> float:
        return self.raw_bytes / self.compressed_bytes if self.compressed_bytes else 0.0

    @property
    def speed_mb_s(self) -> float:
        return (self.raw_bytes / 1e6) / self.elapsed if self.elapsed else 0.0


class AggregateShortcuts:
    """count-by / top-k / stats / timeseries over ``self.aggregate`` — the
    named aggregates of a single archive and of a cluster alike."""

    def aggregate(
        self, spec: AggregateSpec, where: Optional[str] = None
    ) -> AggregateResult:
        raise NotImplementedError

    def total_lines(self) -> int:
        raise NotImplementedError

    def count_by(
        self, field: str, where: Optional[str] = None
    ) -> "Counter[str]":
        """value → number of entries: SQL ``GROUP BY field COUNT(*)``,
        answered from dictionary index cells (§2)."""
        spec = AggregateSpec(AggregateKind.COUNT_BY, field)
        return self.aggregate(spec, where).value  # type: ignore[return-value]

    def top_k(
        self, field: str, k: int = 10, where: Optional[str] = None
    ) -> List[Tuple[str, int]]:
        """The *k* most frequent values of a field with their counts."""
        spec = AggregateSpec(AggregateKind.TOP_K, field, k=k)
        return self.aggregate(spec, where).value  # type: ignore[return-value]

    def stats_of(
        self, field: str, where: Optional[str] = None
    ) -> NumericStats:
        """Numeric summary (count/min/max/mean/p50/p95/p99 + nulls)."""
        spec = AggregateSpec(AggregateKind.STATS, field)
        return self.aggregate(spec, where).value  # type: ignore[return-value]

    def timeseries(
        self, where: Optional[str] = None, buckets: int = 20
    ) -> List[Bucket]:
        """Hit counts over logical time: (first id, last id, hits) buckets.

        Line ids are the archive's logical clock (§3's timestamp
        substitute); bucketing reads only group metadata — zero capsule
        payloads.
        """
        total = self.total_lines()
        if total == 0 or buckets <= 0:
            return []
        spec = self._timeseries_spec(total, buckets)
        return self.aggregate(spec, where).value  # type: ignore[return-value]

    @staticmethod
    def _timeseries_spec(total_lines: int, buckets: int) -> AggregateSpec:
        width = max(1, -(-total_lines // buckets))  # ceil division
        return AggregateSpec(
            AggregateKind.HISTOGRAM,
            buckets=buckets,
            bucket_width=width,
            total_lines=total_lines,
        )

    def count_by_template(
        self, where: Optional[str] = None
    ) -> "Counter[str]":
        """Entries per static pattern (``COUNT BY template``) — answered
        from row sets alone, zero capsule payloads."""
        spec = AggregateSpec(AggregateKind.COUNT_BY_TEMPLATE)
        return self.aggregate(spec, where).value  # type: ignore[return-value]


@dataclass
class LogGrep(AggregateShortcuts):
    """Compress-and-query store for near-line logs."""

    store: ArchiveStore = field(default_factory=MemoryStore)
    config: LogGrepConfig = field(default_factory=LogGrepConfig)
    #: Shared-template source for cold-tier archives: a
    #: :class:`~repro.blockstore.shared.SharedTemplateStore` (or a
    #: prebuilt resolver).  ``None`` still resolves self-contained
    #: archives through their own fallback bank.
    templates: Optional[object] = None
    #: A prebuilt prune index (lifecycle rewrites pass theirs through so
    #: a fresh open does not rebuild what they just computed).
    prune_index: Optional[ArchiveIndex] = None
    #: The Query Cache (§3): per-(block, search string) row sets, gated
    #: by ``config.use_query_cache``.  Injectable so a service can share
    #: one cache across handles of the same archive; entries are keyed by
    #: archive generation, so sharing (or holding the cache across a
    #: lifecycle demotion) can never serve stale rows.
    fragments: Optional[QueryCache] = None

    def __post_init__(self) -> None:
        from ..blockstore.shared import as_resolver

        if self.fragments is None:
            self.fragments = QueryCache(self.config.cache_capacity)
        self.compress_seconds = 0.0
        self.raw_bytes = 0
        self._next_block_id = 0
        self._next_line_id = 0
        self._template_cache = TemplateCache()
        self._box_cache = BoxCache(self.config.box_cache_capacity)
        # The decoded-value cache is process-wide (entries die with their
        # Capsules); the most recent instance re-bounds it.
        get_value_cache().set_capacity(self.config.value_cache_values)
        # One resolver per archive: the shared store (when given) plus the
        # archive's own fallback bank, with a cross-box memo cache.
        self._resolver = as_resolver(self.templates, self.store)
        # Load the prune-index sidecar once (rebuilding it for legacy
        # archives that predate it); compression keeps it current, and
        # the executor's source re-reads it when a foreign writer bumps
        # the archive generation.
        index = (
            self.prune_index
            if self.prune_index is not None
            else self._load_or_build_index()
        )
        self._executor = QueryExecutor(
            StoreBoxSource(self.store, self._box_cache, index, self._resolver),
            self.config,
            self.fragments,
        )

    def _load_or_build_index(self) -> ArchiveIndex:
        index = load_index(self.store)
        if index is not None:
            return index
        if self.store.names():
            # Legacy archive: pay one full pass now so every later query
            # prunes without touching the store.
            index = ArchiveIndex.build(self.store, self._resolver)
            if hasattr(self.store, "put_aux"):
                save_index(self.store, index)
            return index
        return ArchiveIndex()

    # ------------------------------------------------------------------
    # compression
    # ------------------------------------------------------------------
    def compress(self, lines: Iterable[str]) -> CompressionReport:
        """Split *lines* into blocks, compress each, persist CapsuleBoxes.

        Compression runs on the :class:`CompressionScheduler`: blocks are
        parsed in order against the instance's template warm-start cache,
        encoded on ``config.compress_parallelism`` workers, and committed
        in order — output bytes are identical for any worker count.
        """
        tracer = get_tracer()
        start = time.perf_counter()

        def on_commit(_name: str, _block: LogBlock, _data: bytes) -> None:
            # Every commit advances the archive generation: whatever any
            # handle derived from the bytes behind a block name (cached
            # rows, boxes) is dropped on its next run.
            bump_generation(self.store)

        # A foreign rewrite since the last query must not be appended to
        # (and persisted from) a stale prune index.
        self._executor.sync_generation()
        with tracer.span("compress") as cspan:
            scheduler = CompressionScheduler(
                self.store,
                self.config,
                template_cache=self._template_cache,
                on_commit=on_commit,
                index=self._executor.source.index,
            )
            try:
                for block in split_lines(lines, self.config.block_bytes):
                    block.block_id = self._next_block_id
                    block.first_line_id = self._next_line_id
                    self._next_block_id += 1
                    self._next_line_id += block.num_lines
                    scheduler.submit(block)
            finally:
                scheduler.close()
            blocks = scheduler.blocks
            raw = scheduler.raw_bytes
            compressed = scheduler.compressed_bytes
            cspan.set("blocks", blocks).set("raw_bytes", raw)
        elapsed = time.perf_counter() - start
        self.compress_seconds += elapsed
        self.raw_bytes += raw
        registry = get_registry()
        registry.counter("loggrep_compress_blocks_total", "Blocks compressed").inc(blocks)
        registry.counter("loggrep_compress_raw_bytes_total", "Raw bytes ingested").inc(raw)
        registry.counter(
            "loggrep_compress_stored_bytes_total", "Compressed bytes produced"
        ).inc(compressed)
        registry.histogram(
            "loggrep_compress_seconds", "Wall-clock of compress() calls"
        ).observe(elapsed)
        report = CompressionReport(blocks, raw, compressed, elapsed)
        logger.debug(
            "compressed %d block(s): %d -> %d bytes (%.2fx) in %.3fs",
            blocks, raw, compressed, report.ratio, elapsed,
        )
        return report

    def compress_text(self, text: str) -> CompressionReport:
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        return self.compress(lines)

    # ------------------------------------------------------------------
    # query
    # ------------------------------------------------------------------
    def grep(
        self,
        command: str,
        ignore_case: bool = False,
        from_time: Optional[float] = None,
        to_time: Optional[float] = None,
    ) -> GrepResult:
        """Execute a grep-like query command over every stored block.

        ``ignore_case`` applies grep ``-i`` semantics (an extension; the
        paper's queries are case-sensitive).  ``from_time``/``to_time``
        (epoch seconds) prune blocks whose sidecar timestamp range is
        disjoint from the window before any other work — block-granular
        partition pruning, zero store reads for out-of-window blocks.
        """
        (result,) = self.grep_many([command], ignore_case, from_time, to_time)
        logger.debug(
            "grep %r: %d hit(s) in %.1fms (%d capsules opened, %d filtered, "
            "%d blocks pruned)",
            command, result.count, result.elapsed * 1000,
            result.stats.capsules_decompressed, result.stats.capsules_filtered,
            result.stats.blocks_pruned,
        )
        return result

    def explain_analyze(
        self, command: str, ignore_case: bool = False
    ) -> GrepResult:
        """Run *command* for real (the full LINES pipeline) with the
        per-query ledger active, and render the per-operator resource
        table alongside the physical plan.

        Unlike :meth:`explain` this *executes* — the reported bytes, rows
        and cache traffic are what the query actually cost, and the
        reconstructed lines are returned too (``result.lines``); the
        report is in ``result.report``.
        """
        return self._grep_result(
            self._executor.run(command, OutputMode.ANALYZE, ignore_case)
        )

    def count(
        self,
        command: str,
        ignore_case: bool = False,
        from_time: Optional[float] = None,
        to_time: Optional[float] = None,
    ) -> int:
        """Number of matching entries, skipping reconstruction entirely.

        Counting is the same plan as :meth:`grep` with the Reconstruct
        operator elided: only the located row sets are needed, so no
        Capsule of a hit group is decompressed beyond what matching
        required — much cheaper than :meth:`grep` for large result sets
        (grep -c).  Blocks are scheduled exactly like grep, including the
        ``query_parallelism`` thread pool.
        """
        return self.count_many([command], ignore_case, from_time, to_time)[0]

    # ------------------------------------------------------------------
    # many queries, one block pass (a single query is a list of one)
    # ------------------------------------------------------------------
    def _report(self, result: ExecutionResult) -> str:
        """The EXPLAIN ANALYZE table of an analyze-mode result."""
        if result.plan.mode is not OutputMode.ANALYZE:
            return ""
        return render_analyze(
            result.ledger,
            result.stats,
            result.elapsed,
            self._executor.describe(result.plan),
        )

    def _grep_result(self, result: ExecutionResult) -> GrepResult:
        return GrepResult(
            [text for _, text in result.entries],
            [line_id for line_id, _ in result.entries],
            result.stats,
            result.elapsed,
            result.ledger,
            self._report(result),
        )

    def _run_commands(
        self,
        commands: List[str],
        mode: OutputMode,
        ignore_case: bool,
        from_time: Optional[float],
        to_time: Optional[float],
    ) -> List[ExecutionResult]:
        plans = [
            build_plan(
                command, mode, ignore_case, from_time=from_time, to_time=to_time
            )
            for command in commands
        ]
        return self._executor.run_plans(plans)[0]

    def grep_many(
        self,
        commands: List[str],
        ignore_case: bool = False,
        from_time: Optional[float] = None,
        to_time: Optional[float] = None,
    ) -> List[GrepResult]:
        """Run many grep commands in one block pass.

        Results are positionally aligned with *commands* and identical
        to ``[self.grep(c) for c in commands]``; the archive is walked
        once — prune decisions, box opens and per-term matching are
        shared across the plans (see :mod:`repro.query.executor`).
        """
        results = self._run_commands(
            commands, OutputMode.LINES, ignore_case, from_time, to_time
        )
        return [self._grep_result(result) for result in results]

    def count_many(
        self,
        commands: List[str],
        ignore_case: bool = False,
        from_time: Optional[float] = None,
        to_time: Optional[float] = None,
    ) -> List[int]:
        """Matching-entry counts for many commands, one block pass."""
        results = self._run_commands(
            commands, OutputMode.COUNT, ignore_case, from_time, to_time
        )
        return [result.count for result in results]

    def aggregate_many(
        self,
        specs: List[Tuple[AggregateSpec, Optional[str]]],
        ignore_case: bool = False,
        analyze: bool = False,
    ) -> List[AggregateResult]:
        """Run many ``(spec, where)`` aggregates in one block pass.

        Equivalent to ``[self.aggregate(s, w) for s, w in specs]`` with
        the block walk, pruning and WHERE matching shared — overlapping
        WHERE filters (the dashboard pattern) resolve each term once.
        """
        mode = OutputMode.ANALYZE if analyze else OutputMode.AGGREGATE
        plans = [
            build_aggregate_plan(spec, where, mode, ignore_case)
            for spec, where in specs
        ]
        results, _ = self._executor.run_plans(plans)
        out: List[AggregateResult] = []
        for (spec, _), result in zip(specs, results):
            assert result.aggregate is not None
            out.append(
                AggregateResult(
                    result.aggregate.finalize(spec),
                    result.count,
                    result.stats,
                    result.elapsed,
                    result.ledger,
                    self._report(result),
                )
            )
        return out

    def admission_queue(
        self, window_s: float = 0.002, max_batch: int = 64
    ) -> AdmissionQueue:
        """A coalescing front door over this archive: plans submitted
        within *window_s* of each other run as one block pass.
        Callers own the queue (``close()`` it when done)."""
        return AdmissionQueue(
            self._executor.run_plans, window_s=window_s, max_batch=max_batch
        )

    # ------------------------------------------------------------------
    # aggregation (pushdown: executed as the Aggregate pipeline operator)
    # ------------------------------------------------------------------
    @property
    def executor(self) -> QueryExecutor:
        """The physical pipeline behind every query and aggregate.

        Public so the analytics facade, the CLI and tests can route box
        loading and multi-plan runs (whose second return value is the
        run's :class:`~repro.query.executor.BatchReport`) through the
        shared BoxCache/ranged-read path instead of touching the store
        directly.
        """
        return self._executor

    def aggregate(
        self,
        spec: AggregateSpec,
        where: Optional[str] = None,
        ignore_case: bool = False,
        analyze: bool = False,
    ) -> AggregateResult:
        """Run one aggregate over the archive without reconstructing lines.

        The WHERE filter (optional) locates rows exactly like ``grep``;
        the Aggregate operator then folds them into per-block partials —
        counting nominal columns by raw dictionary index cells — which
        merge order-independently across the ``query_parallelism`` pool.
        ``analyze=True`` activates the per-query ledger and renders the
        EXPLAIN ANALYZE table into ``result.report``.
        """
        return self.aggregate_many(
            [(spec, where)], ignore_case, analyze=analyze
        )[0]

    def total_lines(self) -> int:
        """Logical-clock extent of the archive (max line id + 1).

        Answered from the prune-index summaries when loaded — zero store
        reads — falling back to box metadata (a header-only ranged read).
        """
        hint = getattr(self._executor.source, "total_lines_hint", None)
        if hint is not None:
            return hint()
        if self._next_line_id:
            return self._next_line_id
        best = 0
        names = self.store.names()
        index = self._executor.source.index
        if index is not None:
            summaries = [index.get(name) for name in names]
            if all(summary is not None for summary in summaries):
                for summary in summaries:
                    assert summary is not None
                    best = max(best, summary.first_line_id + summary.num_lines)
                return best
        for name in names:
            box = self._executor.load_box(name)
            best = max(best, box.first_line_id + box.num_lines)
        return best

    def explain(self, command: str, ignore_case: bool = False) -> str:
        """Human-readable plan: the physical pipeline plus, per (keyword,
        vector) pair, whether the Capsules would be filtered without
        decompression, narrowed to candidate matches, or scanned — the
        §5.1 decisions made visible.

        This is a dry run of the same plan ``grep``/``count`` execute:
        the executor renders its operator pipeline instead of running it.
        """
        result = self._executor.run(command, OutputMode.EXPLAIN, ignore_case)
        return "\n\n".join(
            [self._executor.describe(result.plan), *result.renderings]
        )

    def clear_query_cache(self) -> None:
        """Drop all cached search-string results (cold-query measurements)."""
        self.fragments.clear()  # type: ignore[union-attr]

    def pin_blocks_in_memory(self) -> None:
        """Keep deserialized boxes across queries (refining sessions).

        The pin is bounded by ``config.box_cache_capacity`` (LRU): pinning
        an archive larger than the bound keeps the most recently touched
        blocks only.
        """
        self._executor.sync_generation()
        for name in self.store.names():
            self._executor.load_box(name, pin=True)

    def unpin_blocks(self) -> None:
        self._box_cache.clear()

    def open_session(self) -> "LogGrepSession":
        """Start an interactive refining-mode session (§3).

        While the session is open, CapsuleBoxes stay deserialized and
        decompressed Capsule payloads are retained, so each refinement of
        a query only pays for the *new* work — together with the Query
        Cache this is the paper's debugging workflow."""
        return LogGrepSession(self)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def storage_bytes(self) -> int:
        return self.store.total_bytes()

    def compression_ratio(self) -> float:
        stored = self.storage_bytes()
        return self.raw_bytes / stored if stored else 0.0

    def decompress_all(self) -> List[str]:
        """Rebuild every stored line in global order (round-trip check)."""
        entries: List[Tuple[int, str]] = []
        for name in self.store.names():
            box = self._executor.load_box(name)
            box.prefetch()  # full rebuild touches everything: batch the reads
            reconstructor = BlockReconstructor(box, self.config.query_settings())
            entries.extend(
                reconstructor.reconstruct(
                    {
                        group_idx: RowSet.full(group.num_entries)
                        for group_idx, group in enumerate(box.groups)
                    }
                )
            )
        return [text for _, text in entries]


class LogGrepSession:
    """Context manager pinning archive state for interactive querying."""

    def __init__(self, loggrep: "LogGrep"):
        self.loggrep = loggrep
        self.queries_run = 0
        loggrep.pin_blocks_in_memory()

    def grep(self, command: str, ignore_case: bool = False) -> GrepResult:
        self.queries_run += 1
        return self.loggrep.grep(command, ignore_case)

    def count(self, command: str, ignore_case: bool = False) -> int:
        self.queries_run += 1
        return self.loggrep.count(command, ignore_case)

    def explain(self, command: str, ignore_case: bool = False) -> str:
        """Dry-run rendering of the plan; does not count as a query."""
        return self.loggrep.explain(command, ignore_case)

    def close(self) -> None:
        self.loggrep.unpin_blocks()

    def __enter__(self) -> "LogGrepSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
