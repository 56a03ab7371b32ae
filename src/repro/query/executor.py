"""Physical operator pipeline executing :class:`QueryPlan`s over blocks.

This is the single execution path behind ``LogGrep.grep``, ``count``,
``aggregate``, ``explain``/``explain_analyze``, the ``*_many`` calls,
interactive sessions and the cluster's per-node block queries.  One
**block pass** serves every plan of a run — a single query is a list of
one.  Per block the pipeline is::

    TimePrune → BloomPrune → LoadBox → Locate → Match* → Reconstruct

* **TimePrune / BloomPrune** — drop the block for a plan whose window
  or disjuncts cannot match.  With the persistent prune index loaded
  both run on the in-memory :class:`BlockSummary` — zero store reads
  for a pruned block; without an index entry only the Bloom section is
  fetched via a ranged read.
  Decisions are memoized per ``(block, term)`` for the pass, so N plans
  sharing a term decide it once.
* **LoadBox** — one open per block for every surviving plan, or a
  pinned box from the bounded :class:`BoxCache` (refining sessions).
  Opening fetches only the header, Bloom and metadata sections through
  ranged reads; capsule payloads are
  ranged-read on first access, and Reconstruct batch-prefetches the hit
  groups' payloads with coalesced reads.  One :class:`BlockEngine` per
  block shares its vector readers across plans, so a capsule
  decompressed for one plan's match is free for another's
  reconstruction.
* **Locate** — the engine's disjunct fold over the plan's
  selectivity-ordered terms.
* **Match** — resolves one search string to per-group row sets, at most
  once per block per pass (first requester pays), memoized across runs
  in the generation-keyed :class:`~repro.query.cache.QueryCache` when
  ``config.use_query_cache`` is on.  With the block's shape and every
  needed term cached, Locate is pure row-set algebra: COUNT/ROWS plans
  and miss-everything LINES plans never open the box.
* **Reconstruct / Aggregate** — per plan: rebuild the located entries,
  or fold them into a partial aggregate; elided for ``COUNT``/``ROWS``
  plans, and replaced by a dry-run rendering for ``EXPLAIN`` plans.

**Ledger attribution.**  Shared work (planning, prune reads, LoadBox) is
charged to one *shared ledger*; per-plan work (match, aggregate,
reconstruct — including the capsule fetches they trigger) to that
plan's own ledger.  A pass of one aliases the two, so its plan's bill
is the whole query; otherwise every store read lands in exactly one
ledger and ``sum(per-plan bytes) + shared bytes`` equals the
``loggrep_store_range_read_bytes_total`` delta.

Blocks are independent, so the executor schedules them either serially
or on a thread pool (``config.query_parallelism``); per-block
:class:`QueryStats` are merged in block order either way.  Obs spans sit
on the operator boundaries — ``query | batch → plan / block →
block_filter / load_box / locate → match → decompress / reconstruct`` —
rooted at ``query`` for one plan and ``batch`` for several.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..blockstore.blobsource import BlobSource, StoreBlobSource
from ..blockstore.index import ArchiveIndex, BlockSummary, load_index
from ..capsule.box import CapsuleBox
from ..common.errors import BudgetExceeded
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .aggregate import AggregatePartial, AggregateSpec, make_partial
from .blockfilter import command_might_match, summary_might_match
from .cache import QueryCache, load_generation
from .engine import BlockEngine, GroupRows, fold_disjuncts, shape_rows
from .language import QueryCommand, SearchString
from .modes import AggregateKind
from .plan import OutputMode, QueryPlan, build_plan
from .schema import FieldRef, schema_of
from .stats import NULL_LEDGER, BudgetMeter, QueryLedger, QueryStats
from .vectors import NominalVectorReader, QuerySettings

if TYPE_CHECKING:  # core.config imports query.vectors: avoid the cycle
    from ..core.config import LogGrepConfig

_BOX_HITS = get_registry().counter(
    "loggrep_box_cache_hits_total", "Box cache lookups that hit"
)
_BOX_MISSES = get_registry().counter(
    "loggrep_box_cache_misses_total", "Box cache lookups that missed"
)
_BOX_EVICTIONS = get_registry().counter(
    "loggrep_box_cache_evictions_total", "Boxes evicted by the LRU bound"
)
_BOX_ENTRIES = get_registry().gauge(
    "loggrep_box_cache_entries", "Deserialized boxes currently pinned"
)
_AGG_QUERIES = get_registry().counter(
    "loggrep_agg_queries_total", "Aggregate plans executed, by kind"
)
_AGG_ROWS = get_registry().counter(
    "loggrep_agg_rows_total", "Rows folded into partial aggregates"
)
_AGG_INDEX_ROWS = get_registry().counter(
    "loggrep_agg_index_rows_total",
    "Rows aggregated via raw index-cell counting (no value decode)",
)
_AGG_DECODED_ROWS = get_registry().counter(
    "loggrep_agg_decoded_rows_total",
    "Rows aggregated by decoding values (real/plain vectors)",
)
_AGG_PARTIALS = get_registry().counter(
    "loggrep_agg_partials_merged_total",
    "Per-block partial aggregates merged into query results",
)
_PASS_QUERIES = get_registry().counter(
    "loggrep_batch_queries_total", "Plans executed by block passes"
)
_PASS_RUNS = get_registry().counter(
    "loggrep_batch_runs_total", "Block passes executed (one per run)"
)
_PASS_LOADS = get_registry().counter(
    "loggrep_batch_shared_block_loads_total",
    "Boxes opened by block passes (once per block, shared by its plans)",
)

#: One reconstructed entry: (global line id, original text).
Entry = Tuple[int, str]


class BoxCache:
    """A small bounded LRU of deserialized CapsuleBoxes.

    Pinned refining sessions keep boxes across queries; the bound keeps a
    pin of a large archive from holding every deserialized block at once.
    Thread-safe: parallel block schedulers share one instance.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("box cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[str, CapsuleBox]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, name: str) -> Optional[CapsuleBox]:
        with self._lock:
            box = self._entries.get(name)
            if box is None:
                _BOX_MISSES.inc()
                return None
            self._entries.move_to_end(name)
            _BOX_HITS.inc()
            return box

    def put(self, name: str, box: CapsuleBox) -> None:
        with self._lock:
            self._entries[name] = box
            self._entries.move_to_end(name)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                _BOX_EVICTIONS.inc()
            _BOX_ENTRIES.set(len(self._entries))

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            _BOX_ENTRIES.set(0)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries


class StoreBoxSource:
    """Adapts an archive store (+ optional pin cache) to the executor.

    The executor needs four things from storage: the block names, a
    possibly-pinned deserialized box, a :class:`BlobSource` of ranged
    reads over one block, and the block's prune-index summary.  Anything
    that provides those — a local store, a cluster node's replica store —
    can sit behind the same pipeline.
    """

    def __init__(
        self,
        store: object,
        box_cache: Optional[BoxCache] = None,
        index: Optional[ArchiveIndex] = None,
        templates: object = None,
    ):
        self.store = store
        self.box_cache = box_cache
        self.index = index
        #: Resolver for shared-format (flag 0x01) boxes; None for archives
        #: that are fully inline.
        self.templates = templates

    def names(self) -> List[str]:
        return self.store.names()  # type: ignore[attr-defined]

    def blob(self, name: str) -> BlobSource:
        """Ranged access to one block."""
        return StoreBlobSource(self.store, name)

    def summary(self, name: str) -> Optional[BlockSummary]:
        """The prune-index entry for one block, when an index is loaded."""
        if self.index is None:
            return None
        return self.index.get(name)

    def cached(self, name: str) -> Optional[CapsuleBox]:
        if self.box_cache is None:
            return None
        return self.box_cache.get(name)

    def invalidate(self) -> None:
        """The archive was rewritten under this handle: drop everything
        derived from the old bytes and keyed by block name — cached or
        pinned boxes, and the prune index, which is re-read from the
        sidecar the writer persisted (a missing sidecar only costs
        pruning, never correctness)."""
        if self.box_cache is not None:
            self.box_cache.clear()
        if self.index is not None:
            self.index = load_index(self.store) or ArchiveIndex()


@dataclass
class BlockOutcome:
    """What one block contributed to one plan."""

    name: str
    entries: List[Entry] = field(default_factory=list)
    count: int = 0
    rendering: Optional[str] = None  # EXPLAIN mode only
    #: Per-block partial aggregate (aggregate plans only).
    partial: Optional[AggregatePartial] = None
    #: Located per-group row sets (``ROWS`` plans only): the compact
    #: shippable form of a grep hit — reconstruction is deferred to a
    #: later :meth:`QueryExecutor.reconstruct_rows` call.
    rows: Optional[GroupRows] = None
    #: This plan's counters for this block.
    stats: QueryStats = field(default_factory=QueryStats)


@dataclass
class BlockPass:
    """What one pass over one block produced for every plan."""

    #: Positionally aligned with the plans of the pass.
    outcomes: List[BlockOutcome]
    #: Engine work no single plan owns — capsules touched by
    #: first-requester Match in a multi-plan pass.  Empty for a pass of
    #: one, whose plan owns everything.
    shared: QueryStats = field(default_factory=QueryStats)
    #: Whether the pass opened the box (a warm pass may not need it).
    loaded: bool = False


@dataclass
class ExecutionResult:
    """The merged outcome of one plan execution."""

    plan: QueryPlan
    entries: List[Entry]
    stats: QueryStats
    elapsed: float
    renderings: List[str] = field(default_factory=list)
    #: Per-query resource accounting; NULL_LEDGER unless ANALYZE mode, a
    #: slow-query threshold or a budget activated it.
    ledger: QueryLedger = NULL_LEDGER
    #: The merged partial aggregate (aggregate plans only); callers
    #: ``finalize`` it against the plan's spec.
    aggregate: Optional[AggregatePartial] = None
    #: Per-block located row sets (``ROWS`` plans only), keyed by block
    #: name; feed them back through :meth:`QueryExecutor.reconstruct_rows`.
    rowsets: Dict[str, GroupRows] = field(default_factory=dict)

    @property
    def count(self) -> int:
        return self.stats.entries_matched

    @property
    def rendering(self) -> str:
        return "\n\n".join(self.renderings)


@dataclass
class BatchReport:
    """What one run did beyond its per-plan results."""

    queries: int = 0
    blocks: int = 0
    #: Boxes opened, once per block for the whole run.
    shared_loads: int = 0
    elapsed: float = 0.0
    #: Shared-cost accounting of a multi-plan run: planning, prune and
    #: LoadBox reads.  Per-plan ledgers on the :class:`ExecutionResult`s
    #: carry the attributed remainder; a run of one bills its plan for
    #: everything and leaves this the null ledger.
    ledger: QueryLedger = NULL_LEDGER
    #: Deep counters of shared work (see :attr:`BlockPass.shared`).
    stats: QueryStats = field(default_factory=QueryStats)


class _Unresolved(Exception):
    """A cached-only evaluation needed a term the cache does not hold."""


def _locate_cached(
    plan: QueryPlan,
    shape: Tuple[int, ...],
    cached_rows: Callable[[SearchString], Optional[GroupRows]],
) -> Optional[Tuple[GroupRows, int]]:
    """Locate from cached row sets and the block's shape alone.

    Returns ``(hits, terms resolved)``, or ``None`` when some term the
    fold reached is not cached (the count is committed only on success,
    so an abort never double-counts with the box-path resolver).
    """
    resolved = 0

    def resolve(search: SearchString) -> GroupRows:
        nonlocal resolved
        rows = cached_rows(search)
        if rows is None:
            raise _Unresolved(search.cache_key)
        resolved += 1
        return rows

    if not plan.disjuncts:  # match-all aggregate: nothing to locate
        return shape_rows(shape), 0
    try:
        hits = fold_disjuncts(plan, resolve, lambda: shape_rows(shape))
    except _Unresolved:
        return None
    return hits, resolved


class QueryExecutor:
    """Runs query plans over every block of one box source."""

    def __init__(
        self,
        source: StoreBoxSource,
        config: "LogGrepConfig",
        cache: Optional[QueryCache] = None,
    ):
        self.source = source
        self.config = config
        self.cache = (
            cache if cache is not None else QueryCache(config.cache_capacity)
        )
        #: The archive generation the source's derived state reflects.
        self._generation = load_generation(source.store)

    def sync_generation(self) -> int:
        """Load the archive generation — once per run.

        When a writer (possibly another process's lifecycle demote)
        advanced it since this handle last looked, every block name may
        now front different bytes: cached row sets become unreachable by
        key, and the source drops its boxes and prune index.
        """
        generation = load_generation(self.source.store)
        if generation != self._generation:
            self._generation = generation
            self.source.invalidate()
        self.cache.set_generation(generation)
        return generation

    # ------------------------------------------------------------------
    # plan-level driver
    # ------------------------------------------------------------------
    def run(
        self,
        command: Union[str, QueryCommand, QueryPlan],
        mode: OutputMode = OutputMode.LINES,
        ignore_case: bool = False,
    ) -> ExecutionResult:
        """Plan (if needed) and execute one command: a run of one."""
        return self.run_plans([command], mode, ignore_case)[0][0]

    def run_plans(
        self,
        commands: Sequence[Union[str, QueryCommand, QueryPlan]],
        mode: OutputMode = OutputMode.LINES,
        ignore_case: bool = False,
    ) -> Tuple[List[ExecutionResult], BatchReport]:
        """Plan (where needed) and execute *commands* in one block pass.

        Results are positionally aligned with *commands* and identical
        to running each alone; prune decisions, box opens and per-term
        matching are shared.
        """
        start = time.perf_counter()
        report = BatchReport(queries=len(commands))
        if not commands:
            return [], report
        tracer = get_tracer()
        modes = [c.mode if isinstance(c, QueryPlan) else mode for c in commands]
        ledgers = [self._make_ledger(m) for m in modes]
        if len(commands) == 1:
            # Nobody to share with: the one plan's ledger (and budget)
            # pays for the shared operators too, and the report carries
            # no separate cost, so reconciliation never double-counts.
            shared = ledgers[0]
            first = commands[0]
            attrs: Dict[str, object] = {
                "command": first if isinstance(first, str) else first.raw
            }
            if modes[0] is not OutputMode.LINES:
                attrs["mode"] = modes[0].value
            root = tracer.span("query", **attrs)
        else:
            shared = report.ledger = (
                QueryLedger()
                if any(ledger.enabled for ledger in ledgers)
                else NULL_LEDGER
            )
            root = tracer.span("batch", queries=len(commands))
        try:
            with root as rspan:
                with tracer.span("plan"), shared.operator("plan"):
                    plans = [
                        c
                        if isinstance(c, QueryPlan)
                        else build_plan(c, mode, ignore_case)
                        for c in commands
                    ]
                generation = self.sync_generation()
                names = self.source.names()
                report.blocks = len(names)
                passes = self._schedule(
                    names, plans, ledgers, shared, generation, rspan
                )
                for block in passes:
                    report.stats.merge(block.shared)
                    report.shared_loads += block.loaded
                _PASS_LOADS.inc(report.shared_loads)
                results = [
                    self._fold(
                        plan, [block.outcomes[i] for block in passes], ledgers[i]
                    )
                    for i, plan in enumerate(plans)
                ]
                rspan.set("blocks", len(names))
                if len(plans) == 1:
                    stats = results[0].stats
                    rspan.set("entries_matched", stats.entries_matched)
                    rspan.set("capsules_decompressed", stats.capsules_decompressed)
                    rspan.set("bytes_decompressed", stats.bytes_decompressed)
                    if results[0].aggregate is not None:
                        rspan.set("aggregate_rows", results[0].aggregate.rows)
                else:
                    rspan.set("shared_loads", report.shared_loads)
        except BudgetExceeded as exc:
            # _schedule's finally already folded the per-block children,
            # so the exception carries a consistent partial bill (the
            # tripped plan's own when it ran alone).
            exc.ledger = shared
            raise
        report.elapsed = elapsed = time.perf_counter() - start
        for result in results:
            result.elapsed = elapsed
            if result.plan.mode is not OutputMode.EXPLAIN:
                result.stats.publish(elapsed)
            self._maybe_log_slow(
                result.plan, result.stats, result.ledger, elapsed
            )
        _PASS_QUERIES.inc(len(plans))
        _PASS_RUNS.inc()
        return results, report

    def _fold(
        self,
        plan: QueryPlan,
        outcomes: List[BlockOutcome],
        ledger: QueryLedger,
    ) -> ExecutionResult:
        """Merge one plan's per-block outcomes, in block order."""
        stats = QueryStats()
        entries: List[Entry] = []
        renderings: List[str] = []
        rowsets: Dict[str, GroupRows] = {}
        merged: Optional[AggregatePartial] = None
        explain = plan.mode is OutputMode.EXPLAIN
        if plan.aggregate is not None and not explain:
            merged = make_partial(plan.aggregate)
        for outcome in outcomes:
            stats.merge(outcome.stats)
            entries.extend(outcome.entries)
            stats.entries_matched += outcome.count
            if outcome.rendering is not None:
                renderings.append(outcome.rendering)
            if outcome.rows is not None:
                rowsets[outcome.name] = outcome.rows
            if outcome.partial is not None and merged is not None:
                # Partial merge is commutative, so the block-order fold
                # here equals any completion-order fold.
                merged.merge(outcome.partial)
                _AGG_PARTIALS.inc()
        entries.sort()  # by line id: ids are unique, texts never compare
        if merged is not None:
            _AGG_QUERIES.inc(kind=plan.aggregate.kind.value)  # type: ignore[union-attr]
            _AGG_ROWS.inc(merged.rows)
        return ExecutionResult(
            plan, entries, stats, 0.0, renderings, ledger, merged, rowsets
        )

    def _make_ledger(self, mode: OutputMode) -> QueryLedger:
        """An active ledger when anything will consume it (ANALYZE mode, a
        slow-query threshold or a budget), else the null object (which
        keeps the charge channel empty — zero overhead)."""
        max_read = self.config.max_read_bytes
        max_decoded = self.config.max_decoded_values
        slow_ms = self.config.slow_query_ms
        if (
            mode is not OutputMode.ANALYZE
            and slow_ms is None
            and max_read is None
            and max_decoded is None
        ):
            return NULL_LEDGER
        budget = (
            BudgetMeter(max_read, max_decoded)
            if max_read is not None or max_decoded is not None
            else None
        )
        return QueryLedger(budget)

    def _maybe_log_slow(
        self,
        plan: QueryPlan,
        stats: QueryStats,
        ledger: QueryLedger,
        elapsed: float,
    ) -> None:
        """Emit one slow-query record when the query crossed the threshold."""
        threshold = self.config.slow_query_ms
        if threshold is None or elapsed * 1000.0 < threshold:
            return
        from ..obs import slowlog

        record = slowlog.build_record(
            query=plan.raw,
            mode=plan.mode.value,
            elapsed_ms=elapsed * 1000.0,
            threshold_ms=float(threshold),
            plan=self.describe(plan),
            stats=stats.as_dict(),
            ledger=ledger.as_dict() if ledger.enabled else None,
        )
        slowlog.emit(record, self.config.slow_query_log_path)

    def _schedule(
        self,
        names: List[str],
        plans: List[QueryPlan],
        ledgers: List[QueryLedger],
        shared: QueryLedger,
        generation: int,
        root: object,
    ) -> List[BlockPass]:
        """Run every block, serially or on a thread pool; the passes come
        back in block order either way."""
        tracer = get_tracer()
        parallelism = self.config.query_parallelism

        def run_one(name: str, spawn: bool = True) -> BlockPass:
            # One child ledger per block: a block runs wholly on one
            # thread, so its charges never race; the children are folded
            # back below once the pool has drained.  Serial execution has
            # no races to isolate, so it charges the roots directly.
            block_ledgers = (
                [ledger.spawn() for ledger in ledgers] if spawn else ledgers
            )
            if not spawn:
                block_shared = shared
            elif shared is ledgers[0]:
                block_shared = block_ledgers[0]
            else:
                block_shared = shared.spawn()
            with tracer.span("block", parent=root, block=name):
                return self.execute_block(
                    name, plans, block_ledgers, block_shared, generation
                )

        try:
            if parallelism > 1 and len(names) > 1:
                from concurrent.futures import ThreadPoolExecutor

                with ThreadPoolExecutor(parallelism) as pool:
                    return list(pool.map(run_one, names))
            return [run_one(name, spawn=False) for name in names]
        finally:
            # Runs after the pool has exited (its with-block joins every
            # worker), so merging is race-free even when a BudgetExceeded
            # is propagating — the partial ledgers stay consistent.
            shared.merge_children()
            for ledger in ledgers:
                ledger.merge_children()

    # ------------------------------------------------------------------
    # the per-block operator pipeline, shared by every plan of the pass
    # ------------------------------------------------------------------
    def execute_block(
        self,
        name: str,
        plans: Sequence[QueryPlan],
        ledgers: Optional[Sequence[QueryLedger]] = None,
        shared: QueryLedger = NULL_LEDGER,
        generation: Optional[int] = None,
    ) -> BlockPass:
        """TimePrune → BloomPrune → LoadBox → Locate/Match →
        Reconstruct/Aggregate over one block, for every plan at once.

        *ledgers* aligns with *plans*; *shared* pays for prune reads and
        LoadBox.  Called bare — ``execute_block(name, plans)``, the unit
        a cluster worker serves per RPC — the pass is unaccounted and
        loads the archive generation itself.
        """
        tracer = get_tracer()
        if ledgers is None:
            ledgers = [NULL_LEDGER] * len(plans)
        if generation is None:
            generation = self.sync_generation()
        outcomes = [BlockOutcome(name) for _ in plans]
        for outcome in outcomes:
            outcome.stats.blocks_visited += 1
        done = BlockPass(outcomes)
        box = self.source.cached(name)
        if self.source.box_cache is not None:
            shared.charge_box_cache(box is not None)
        settings = self._settings()
        cache = self.cache if self.config.use_query_cache else None
        live = list(range(len(plans)))
        if box is None:
            live = self._prune(name, plans, outcomes, shared, settings)
            if not live:
                return done

        # -- shared Match memo: term key -> row sets, resolved at most
        # once per block per pass (query cache first, engine second).
        term_rows: Dict[str, GroupRows] = {}
        missing: Set[str] = set()

        def cached_rows(search: SearchString) -> Optional[GroupRows]:
            key = search.cache_key
            rows = term_rows.get(key)
            if rows is None and cache is not None and key not in missing:
                rows = cache.get(generation, name, key)
                if rows is None:
                    missing.add(key)
                else:
                    term_rows[key] = rows
            return rows

        def matcher(
            stats: QueryStats, ledger: QueryLedger
        ) -> Callable[[SearchString], GroupRows]:
            """The Match operator of one plan."""
            # One reusable timer for the whole block: match runs once per
            # (group, search) pair — the hottest operator boundary by far.
            match_timer = ledger.operator("match")

            def match(search: SearchString) -> GroupRows:
                rows = cached_rows(search)
                if rows is not None:
                    stats.cache_hits += 1
                    return rows
                # First plan to need this term pays its Match; the memo
                # and the query cache make it free for everyone else.
                key = search.cache_key
                with tracer.span("match", search=key), match_timer:
                    rows = engine.search_string_rows(search)
                term_rows[key] = rows
                if cache is not None:
                    cache.put(generation, name, key, rows)
                return rows

            return match

        # -- warm fast path: with the block's shape and every needed term
        # cached, Locate is pure row-set algebra — COUNT/ROWS plans and
        # miss-everything LINES plans never open the box.
        located: Dict[int, GroupRows] = {}
        shape = (
            cache.get_shape(generation, name)
            if cache is not None and box is None
            else None
        )
        if shape is not None:
            need_box: List[int] = []
            for i in live:
                plan, outcome = plans[i], outcomes[i]
                warm = None
                if plan.mode is not OutputMode.EXPLAIN:
                    with tracer.span("locate"), ledgers[i].operator("locate"):
                        warm = _locate_cached(plan, shape, cached_rows)
                if warm is None:
                    need_box.append(i)
                    continue
                hits, resolved = warm
                outcome.stats.cache_hits += resolved
                if hits and plan.mode not in (OutputMode.COUNT, OutputMode.ROWS):
                    # Hits to reconstruct or fold: the box is needed
                    # after all, but the located rows are kept.
                    located[i] = hits
                    need_box.append(i)
                else:
                    self._finish(plan, outcome, hits, None, None, NULL_LEDGER)
            live = need_box
            if not live:
                return done

        # -- LoadBox: one open for every plan that needs it
        if box is None:
            with tracer.span("load_box") as lspan, shared.operator("load_box"):
                box = self._open_box(name)
                lspan.set("bytes", box._source.bytes_read)
            done.loaded = True
            if cache is not None:
                cache.put_shape(
                    generation, name,
                    tuple(group.num_entries for group in box.groups),
                )
        # Deep engine charges (capsules decompressed while matching) are
        # per block, not per plan: a pass of one owns them, a shared pass
        # reports them once as shared cost.
        engine = BlockEngine(
            box, settings,
            outcomes[0].stats if len(plans) == 1 else done.shared,
        )
        for i in live:
            plan, outcome, ledger = plans[i], outcomes[i], ledgers[i]
            # -- EXPLAIN: dry-run the remaining operators into a rendering.
            if plan.mode is OutputMode.EXPLAIN:
                from .explain import explain_block

                outcome.rendering = explain_block(box, plan, name).summary()
                continue
            hits = located.get(i)
            if hits is None:
                # -- Locate (calling Match per search string).  A
                # match-all aggregate has nothing to locate: every row.
                with tracer.span("locate") as lspan, ledger.operator("locate"):
                    hits = (
                        engine.execute(plan, matcher(outcome.stats, ledger))
                        if plan.disjuncts
                        else engine.full_rows()
                    )
                    lspan.set("groups_hit", len(hits))
            self._finish(plan, outcome, hits, box, engine, ledger)
        return done

    def _prune(
        self,
        name: str,
        plans: Sequence[QueryPlan],
        outcomes: List[BlockOutcome],
        shared: QueryLedger,
        settings: QuerySettings,
    ) -> List[int]:
        """TimePrune + BloomPrune of one uncached block for every plan.

        Returns the indices of the surviving plans.
        """
        tracer = get_tracer()
        use_bloom = self.config.use_block_bloom
        use_stamps = settings.use_stamps
        summary = self.source.summary(name)
        # One verdict per distinct term, reused by every plan.
        memo: Dict[str, bool] = {}
        bloom: Optional[object] = None
        bloom_read = False
        live: List[int] = []
        for i, plan in enumerate(plans):
            outcome = outcomes[i]
            explain = plan.mode is OutputMode.EXPLAIN
            # -- TimePrune: a block whose sidecar timestamp range is
            # disjoint from the plan's wall-clock window is skipped
            # before any Bloom or stamp check — zero store reads.  Runs
            # even for match-all aggregates; blocks without a known
            # range conservatively survive.
            if (
                summary is not None
                and (plan.from_time is not None or plan.to_time is not None)
                and not summary.in_time_range(plan.from_time, plan.to_time)
            ):
                outcome.stats.blocks_pruned += 1
                outcome.stats.blocks_time_pruned += 1
                if explain:
                    outcome.rendering = (
                        f"block {name}: pruned by time window "
                        f"(block range [{summary.min_ts}, {summary.max_ts}] "
                        f"outside [{plan.from_time}, {plan.to_time}])"
                    )
                continue
            # -- BloomPrune: with an index entry the whole check runs in
            # memory (zero store reads); otherwise only the Bloom section
            # is fetched via the TOC, once for the pass.  A match-all
            # aggregate (no disjuncts) can never be pruned.
            if plan.disjuncts and (use_bloom or summary is not None):
                with tracer.span("block_filter") as fspan, shared.operator(
                    "block_filter"
                ):
                    if summary is not None:
                        via = "prune index"
                        pruned = not summary_might_match(
                            summary, plan.command, use_stamps, use_bloom, memo
                        )
                    else:
                        via = "block-level Bloom filter"
                        if not bloom_read:
                            bloom = CapsuleBox.open_bloom(self.source.blob(name))
                            bloom_read = True
                        pruned = bloom is not None and not command_might_match(
                            bloom, plan.command, memo  # type: ignore[arg-type]
                        )
                    fspan.set("pruned", pruned)
                if pruned:
                    outcome.stats.blocks_pruned += 1
                    if explain:
                        outcome.rendering = (
                            f"block {name}: pruned by {via} "
                            "(no disjunct survives the mask/trigram checks)"
                        )
                    continue
            live.append(i)
        return live

    def _finish(
        self,
        plan: QueryPlan,
        outcome: BlockOutcome,
        hits: GroupRows,
        box: Optional[CapsuleBox],
        engine: Optional[BlockEngine],
        ledger: QueryLedger,
    ) -> None:
        """Turn one plan's located rows into its block outcome.

        *box*/*engine* are ``None`` on the warm path, which only comes
        here when nothing has to be read: COUNT/ROWS plans, or no hits.
        """
        tracer = get_tracer()
        outcome.count = sum(len(rows) for rows in hits.values())
        # -- ROWS: ship the located row sets themselves (bitmaps — a few
        # bytes per group) and let the caller defer reconstruction to a
        # bounded fetch; the cluster's grep gather path.
        if plan.mode is OutputMode.ROWS:
            outcome.rows = hits
        # -- Aggregate (replaces Reconstruct for aggregate plans): fold
        # the located rows into a per-block partial without rebuilding a
        # single line.  ANALYZE aggregates run the same operator with
        # the ledger active.
        elif plan.aggregate is not None:
            if box is None or engine is None:
                outcome.partial = make_partial(plan.aggregate)
                return
            with tracer.span(
                "aggregate", kind=plan.aggregate.kind.value
            ) as aspan, ledger.operator("aggregate"):
                outcome.partial = self._aggregate_block(
                    box, engine, plan.aggregate, hits
                )
                aspan.set("rows", outcome.partial.rows)
        # -- Reconstruct (elided for COUNT plans; ANALYZE runs it in full
        # so the ledger reflects what a real LINES query would cost)
        elif (
            plan.mode in (OutputMode.LINES, OutputMode.ANALYZE)
            and hits
            and box is not None
            and engine is not None
        ):
            with tracer.span("reconstruct") as rspan, ledger.operator(
                "reconstruct"
            ):
                outcome.entries = self._reconstruct(
                    box, hits, outcome.stats, rspan, engine.readers
                )

    def _reconstruct(
        self,
        box: CapsuleBox,
        hits: GroupRows,
        stats: QueryStats,
        rspan: object,
        readers: Optional[Dict[tuple, object]] = None,
    ) -> List[Entry]:
        """The Reconstruct operator body.  Reconstruction touches every
        vector of each hit group, so the still-unfetched payloads are
        batched into coalesced ranged reads instead of one per capsule."""
        from ..core.reconstructor import BlockReconstructor

        prefetched = box.prefetch(hits.keys())
        if prefetched:
            rspan.set("prefetched_bytes", prefetched)
        entries = BlockReconstructor(
            box, self._settings(), stats, readers=readers
        ).reconstruct(hits)
        rspan.set("entries", len(entries))
        return entries

    def reconstruct_rows(
        self,
        name: str,
        hits: GroupRows,
        stats: Optional[QueryStats] = None,
    ) -> List[Entry]:
        """Rebuild the original entries of pre-located rows of one block.

        The bounded-fetch half of the ROWS protocol: a coordinator that
        gathered row sets calls back (on any replica holding the block)
        with exactly the rows it still wants rendered.  Loads go through
        the shared BoxCache/lazy-I/O path; only the hit groups' capsule
        payloads are fetched, coalesced.
        """
        hits = {g: rows for g, rows in hits.items() if rows}
        if not hits:
            return []
        with get_tracer().span("reconstruct", block=name) as rspan:
            return self._reconstruct(
                self.load_box(name), hits, stats or QueryStats(), rspan
            )

    # ------------------------------------------------------------------
    # the Aggregate operator
    # ------------------------------------------------------------------
    def _aggregate_block(
        self,
        box: CapsuleBox,
        engine: BlockEngine,
        spec: AggregateSpec,
        hits: GroupRows,
    ) -> AggregatePartial:
        """Fold one block's located rows into a partial aggregate.

        Dictionary index cells and group metadata do almost all the work:

        * ``COUNT_BY_TEMPLATE`` counts row sets per static pattern —
          zero capsule payloads touched;
        * ``HISTOGRAM`` buckets ``first_line_id + line_ids[row]`` — the
          logical clock, again zero payloads;
        * field aggregates go through the readers' ``value_counts``: on
          nominal vectors that is raw index-cell counting (payload reads
          proportional to *distinct* values), real/plain vectors decode —
          the documented residual slow path.
        """
        partial = make_partial(spec)
        if spec.kind is AggregateKind.COUNT_BY_TEMPLATE:
            for group_idx, rows in hits.items():
                partial.add(  # type: ignore[attr-defined]
                    box.groups[group_idx].template.display(), len(rows)
                )
            return partial
        if spec.kind is AggregateKind.HISTOGRAM:
            for group_idx, rows in hits.items():
                line_ids = box.groups[group_idx].line_ids
                base = box.first_line_id
                for row in rows:
                    partial.add_line(base + line_ids[row], spec)  # type: ignore[attr-defined]
            return partial
        if spec.kind is AggregateKind.PAIRS:
            self._aggregate_pairs(box, engine, spec, hits, partial)
            return partial
        if spec.kind is AggregateKind.VALUES:
            self._aggregate_values(box, engine, spec, hits, partial)
            return partial
        # COUNT_BY / TOP_K / STATS: per-distinct-value counts suffice.
        schema = schema_of(box)
        for ref in schema.by_name(spec.field or ""):
            rows = hits.get(ref.group_index)
            if not rows:
                continue
            if ref.is_constant:
                partial.add(ref.constant or "", len(rows))  # type: ignore[attr-defined]
                continue
            reader = engine.reader(ref.group_index, ref.var_index)
            counts = reader.value_counts(rows)
            if isinstance(reader, NominalVectorReader):
                _AGG_INDEX_ROWS.inc(len(rows))
            else:
                _AGG_DECODED_ROWS.inc(len(rows))
            for value, n in counts.items():
                partial.add(ref.clean(value), n)  # type: ignore[attr-defined]
        return partial

    def _column_values(
        self,
        engine: BlockEngine,
        ref: FieldRef,
        rows: object,
    ) -> List[str]:
        """One field's (cleaned) values for the given row set, in row
        order — the VALUES/PAIRS extraction path."""
        if ref.is_constant:
            return [ref.constant or ""] * len(rows)  # type: ignore[arg-type]
        reader = engine.reader(ref.group_index, ref.var_index)
        _AGG_DECODED_ROWS.inc(len(rows))  # type: ignore[arg-type]
        if rows.is_full():  # type: ignore[attr-defined]
            return [ref.clean(value) for value in reader.values_list()]
        return [ref.clean(reader.value_at(row)) for row in rows]  # type: ignore[attr-defined]

    def _aggregate_values(
        self,
        box: CapsuleBox,
        engine: BlockEngine,
        spec: AggregateSpec,
        hits: GroupRows,
        partial: AggregatePartial,
    ) -> None:
        schema = schema_of(box)
        chunk: List[str] = []
        for ref in schema.by_name(spec.field or ""):
            rows = hits.get(ref.group_index)
            if not rows:
                continue
            chunk.extend(self._column_values(engine, ref, rows))
        if chunk:
            partial.add_chunk(box.first_line_id, chunk)  # type: ignore[attr-defined]

    def _aggregate_pairs(
        self,
        box: CapsuleBox,
        engine: BlockEngine,
        spec: AggregateSpec,
        hits: GroupRows,
        partial: AggregatePartial,
    ) -> None:
        """(key, value) extraction: both fields must share a group (the
        same template) for their rows to join."""
        schema = schema_of(box)
        value_refs = {
            ref.group_index: ref
            for ref in schema.by_name(spec.value_field or "")
        }
        chunk: List[Tuple[str, str]] = []
        for key_ref in schema.by_name(spec.field or ""):
            value_ref = value_refs.get(key_ref.group_index)
            if value_ref is None:
                continue
            rows = hits.get(key_ref.group_index)
            if not rows:
                continue
            keys = self._column_values(engine, key_ref, rows)
            values = self._column_values(engine, value_ref, rows)
            chunk.extend(zip(keys, values))
        if chunk:
            partial.add_chunk(box.first_line_id, chunk)  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # box loading (shared by the pipeline, pinning and decompress_all)
    # ------------------------------------------------------------------
    def _open_box(self, name: str) -> CapsuleBox:
        """Open one box through ranged reads (payloads stay on the store)."""
        return CapsuleBox.open(
            self.source.blob(name),
            templates=getattr(self.source, "templates", None),
        )

    def load_box(self, name: str, pin: bool = False) -> CapsuleBox:
        """Load (or reuse) one block's box outside a query.

        This is the same path queries take through the shared
        :class:`BoxCache`: pinned boxes (``pin=True``, refining sessions)
        and query-time boxes share one LRU and one set of metrics instead
        of deserializing the blob twice.
        """
        box = self.source.cached(name)
        if box is None:
            box = self._open_box(name)
            if pin and self.source.box_cache is not None:
                self.source.box_cache.put(name, box)
        return box

    def _settings(self) -> QuerySettings:
        return self.config.query_settings()

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def describe(self, plan: QueryPlan) -> str:
        """The physical plan: operators, scheduler, term order."""
        bloom = "on" if self.config.use_block_bloom else "off"
        cache = "on" if self.config.use_query_cache else "off"
        if plan.aggregate is not None and plan.mode is not OutputMode.EXPLAIN:
            tail = f"Aggregate({plan.aggregate.describe()})"
        elif plan.mode in (OutputMode.LINES, OutputMode.ANALYZE):
            tail = "Reconstruct"
        elif plan.mode is OutputMode.COUNT:
            tail = "Reconstruct(elided)"
        elif plan.mode is OutputMode.ROWS:
            tail = "ShipRowSets -> Reconstruct(deferred)"
        else:
            tail = "Reconstruct(dry-run)"
        parallelism = self.config.query_parallelism
        scheduler = (
            f"thread-pool({parallelism})" if parallelism > 1 else "serial"
        )
        index = (
            f"loaded ({len(self.source.index)} block(s))"
            if self.source.index is not None
            else "off"
        )
        lines = [
            f"physical plan for {plan.raw!r} (mode={plan.mode.value})",
            f"  pipeline: BloomPrune({bloom}) -> LoadBox -> Locate -> "
            f"Match(query_cache={cache}) -> {tail}",
            f"  io: lazy (ranged reads); prune index: {index}",
            f"  scheduler: {scheduler} over {len(self.source.names())} block(s)",
        ]
        for i, disjunct in enumerate(plan.disjuncts):
            lines.append(f"  disjunct {i}: {disjunct.describe()}")
        return "\n".join(lines)
