"""Physical operator pipeline executing :class:`QueryPlan`s over blocks.

This is the single execution path behind ``LogGrep.grep``, ``count``,
``aggregate``, ``explain``/``explain_analyze``, the ``*_many`` calls,
interactive sessions and the cluster's per-node block queries.  One
**block pass** serves every plan of a run — a single query is a list of
one.  Per block the pipeline is::

    BlockFilter → LoadBox → Locate → Match* → Reconstruct

* **BlockFilter** — drop the block for a plan whose wall-clock window
  the block's time range misses.  It runs on the block's in-memory
  :class:`BlockSummary` from the persistent prune index — zero store
  reads; a block without an index entry is not pruned.
* **LoadBox** — one open per block for every surviving plan, or a
  box a refining session pinned in the :class:`BoxCache`.
  Opening fetches only the header and metadata sections through
  ranged reads; capsule payloads are
  ranged-read on first access, and Reconstruct batch-prefetches the hit
  groups' payloads with coalesced reads.  The vector readers belong
  to the box (:func:`~repro.query.vectors.box_readers`), so a capsule
  decompressed for one plan's match is free for another's
  reconstruction, and a pinned box's decoded state serves every later
  query of a refining session.
* **Locate** — the engine's disjunct fold over the plan's
  selectivity-ordered terms.  The §5.1 Locator's answers are memoized
  for the run (:data:`~repro.query.vectors.LocateMemo`): blocks of one
  log repeat their runtime patterns and stamps, so each distinct
  (pattern, stamps, fragment, mode) is located once per run, not once
  per vector.
* **Match** — resolves one search string to per-group row sets.  A
  disjunct's first term is matched over every row; each later AND/NOT
  term only over the rows the fold still holds, so a selective first
  term leaves the rest a few direct cell probes.  Results are memoized
  per block for the pass (first requester pays) and across runs in the
  name-keyed :class:`~repro.query.cache.QueryCache` when
  ``config.use_query_cache`` is on, both as ``(rows, coverage)``
  entries: a later request is answered when the entry is complete or
  covers its rows, and otherwise widens the entry.  With the block's
  shape and every needed term cached, Locate is pure row-set algebra:
  COUNT/ROWS plans and miss-everything LINES plans never open the box.
* **Reconstruct / Aggregate** — per plan: rebuild the located entries,
  or fold them into a partial aggregate; elided for ``COUNT``/``ROWS``
  plans, and replaced by a dry-run rendering for ``EXPLAIN`` plans.

**Attribution.**  Every charge travels the thread-local channel of
:mod:`repro.obs.ledger`, and the operator scope open on the thread
decides who pays — for a plan's :class:`QueryStats` and its ledger
alike.  Shared work (planning, pruning, LoadBox) is charged to one
*shared ledger* and to no plan's stats: it reads metadata and inflates
no Capsule.  Per-plan work — Locate, Match (the first plan to request a
term on a block pays; the memo serves the rest), Aggregate and
Reconstruct, including the capsule fetches they trigger — is charged to
that plan's stats and ledger.  A pass of one aliases the two ledgers,
so its plan's bill is the whole query and its stats equal its ANALYZE
ledger's totals; otherwise every store read lands in exactly one ledger
and ``sum(per-plan bytes) + shared bytes`` equals the
``loggrep_store_range_read_bytes_total`` delta.

Blocks are independent, so the executor schedules them either serially
or on a thread pool (``config.query_parallelism``); each (block, plan)
pair has its own :class:`QueryStats`, merged in block order either way.
Obs spans sit on the operator boundaries — ``query | batch → plan /
block → block_filter / load_box / locate → match → decompress /
reconstruct`` — rooted at ``query`` for one plan and ``batch`` for several.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..blockstore.blobsource import BlobSource, StoreBlobSource
from ..blockstore.block import LogBlock
from ..blockstore.index import (
    ArchiveIndex,
    BlockSummary,
    live_names,
    load_index,
    missing_names,
    sync_index,
)
from ..capsule.box import CapsuleBox
from ..common.errors import BlockMissingError, BudgetExceeded
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .aggregate import AggregatePartial, AggregateSpec, make_partial
from .blockfilter import summary_might_match
from .cache import QueryCache, TermEntry, covered_rows, widen
from .engine import (
    BlockEngine,
    GroupRows,
    Resolver,
    fold_disjuncts,
    shape_rows,
    text_rows,
)
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
    """The deserialized CapsuleBoxes refining sessions pin, by block name.

    Each name carries a pin count: a box stays while any session that
    pinned it is open and goes with its last :meth:`unpin`.  Every
    :meth:`clear` starts a new ``generation``: a pin taken before it is
    gone, so its holder must not release the name again.  Thread-safe:
    parallel block schedulers share one instance.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, CapsuleBox] = {}
        self._pins: Dict[str, int] = {}
        self._lock = threading.Lock()
        self.generation = 0

    def get(self, name: str) -> Optional[CapsuleBox]:
        with self._lock:
            box = self._entries.get(name)
        (_BOX_MISSES if box is None else _BOX_HITS).inc()
        return box

    def pin(self, name: str, box: CapsuleBox) -> None:
        """Add one pin on *name*; a box already held for it is kept."""
        with self._lock:
            self._entries.setdefault(name, box)
            self._pins[name] = self._pins.get(name, 0) + 1
            _BOX_ENTRIES.set(len(self._entries))

    def unpin(self, name: str, generation: Optional[int] = None) -> None:
        """Release one pin on *name* (taken in *generation*, when given):
        a no-op for a name not held, or for a pin a :meth:`clear` since
        *generation* already dropped."""
        with self._lock:
            if generation is not None and generation != self.generation:
                return
            pins = self._pins.pop(name, 0)
            if pins > 1:
                self._pins[name] = pins - 1
            elif pins:
                del self._entries[name]
                _BOX_ENTRIES.set(len(self._entries))

    def retain(self, names: Set[str]) -> None:
        """Drop the boxes of every name not in *names*, pinned or not."""
        with self._lock:
            for name in [name for name in self._entries if name not in names]:
                del self._pins[name], self._entries[name]
            _BOX_ENTRIES.set(len(self._entries))

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._pins.clear()
            self.generation += 1
            _BOX_ENTRIES.set(0)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries


class StoreBoxSource:
    """Adapts an archive store (+ optional pin cache) to the executor.

    The executor needs four things from storage: the block names, a
    possibly-pinned deserialized box, a :class:`BlobSource` of ranged
    reads over one block, and the block's prune-index summary (a
    stream's source adds the raw lines of its unencoded tail blocks).
    Anything that provides those — a local store, a cluster node's
    replica store — can sit behind the same pipeline.
    """

    def __init__(
        self,
        store: object,
        box_cache: Optional[BoxCache] = None,
        index: Optional[ArchiveIndex] = None,
    ):
        self.store = store
        self.box_cache = box_cache
        self.index = index

    def names(self) -> List[str]:
        """The live blocks, listed once per run."""
        return self.live(self.store.names())  # type: ignore[attr-defined]

    def live(self, listing: List[str]) -> List[str]:
        """The names of the store listing *listing* that are served
        (:func:`~repro.blockstore.index.live_names`).  A listing that
        differs from the index's names folds the sidecar into the index
        and drops the boxes of names no longer served.  A block the
        sidecar lists but the store lacks raises
        :class:`~repro.common.errors.BlockMissingError`
        (:func:`~repro.blockstore.index.missing_names`): a query never
        answers without one of its blocks."""
        if self.index is None:
            sidecar = load_index(self.store)
            names = live_names(listing, sidecar)
            listed: Iterable[str] = sidecar.blocks if sidecar else ()
        else:
            names = sync_index(self.store, self.index, listing)
            if names is listing:
                return names  # the index lists exactly these names
            listed = self.index.blocks
            if self.box_cache is not None:
                self.box_cache.retain(set(names))
        missing = missing_names(self.store, listed, listing)
        if missing:
            raise BlockMissingError(missing[0])
        return names

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

    def tail_block(self, name: str) -> Optional[LogBlock]:
        """The raw lines behind *name* when it names a block that was
        never encoded (a stream's hot tail), else None."""
        return None


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


class _Unresolved(Exception):
    """A cached-only evaluation needed a term the cache does not hold."""


def _locate_cached(
    plan: QueryPlan,
    shape: Tuple[int, ...],
    cached_rows: Callable[
        [SearchString, Optional[GroupRows]], Optional[GroupRows]
    ],
) -> Optional[Tuple[GroupRows, int]]:
    """Locate from cached row sets and the block's shape alone.

    Returns ``(hits, terms resolved)``, or ``None`` when some term the
    fold reached is not cached (the count is committed only on success,
    so an abort never double-counts with the box-path resolver).
    """
    resolved = 0

    def resolve(search: SearchString, alive: Optional[GroupRows]) -> GroupRows:
        nonlocal resolved
        rows = cached_rows(search, alive)
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
        self.cache = cache if cache is not None else QueryCache()

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
                names = self.source.names()
                report.blocks = len(names)
                # One Locator memo for the whole run, dropped with it.
                settings = self._settings()
                passes = self._schedule(
                    names, plans, ledgers, shared, settings, rspan
                )
                report.shared_loads = sum(block.loaded for block in passes)
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
            self._maybe_log_slow(result)
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

    def _maybe_log_slow(self, result: ExecutionResult) -> None:
        """Emit one slow-query record when the query crossed the threshold."""
        threshold = self.config.slow_query_ms
        elapsed_ms = result.elapsed * 1000.0
        if threshold is None or elapsed_ms < threshold:
            return
        from ..obs import slowlog

        ledger = result.ledger
        record = slowlog.build_record(
            query=result.plan.raw,
            mode=result.plan.mode.value,
            elapsed_ms=elapsed_ms,
            threshold_ms=float(threshold),
            plan=self.describe(result.plan),
            stats=result.stats.as_dict(),
            ledger=ledger.as_dict() if ledger.enabled else None,
        )
        slowlog.emit(record, self.config.slow_query_log_path)

    def _schedule(
        self,
        names: List[str],
        plans: List[QueryPlan],
        ledgers: List[QueryLedger],
        shared: QueryLedger,
        settings: QuerySettings,
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
                    name, plans, block_ledgers, block_shared, settings
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
        settings: Optional[QuerySettings] = None,
    ) -> BlockPass:
        """BlockFilter → LoadBox → Locate/Match →
        Reconstruct/Aggregate over one block, for every plan at once.

        *ledgers* aligns with *plans*; *shared* pays for pruning and
        LoadBox; *settings* carries the run's Locator memo.  Called bare
        — ``execute_block(name, plans)``, the unit a cluster worker
        serves per RPC — the pass is unaccounted and memoizes ``locate``
        for this block only.
        """
        tracer = get_tracer()
        if ledgers is None:
            ledgers = [NULL_LEDGER] * len(plans)
        outcomes = [BlockOutcome(name) for _ in plans]
        for outcome in outcomes:
            outcome.stats.blocks_visited += 1
        done = BlockPass(outcomes)
        cache = self.cache if self.config.use_query_cache else None
        live = list(range(len(plans)))
        tail = self.source.tail_block(name)
        if tail is not None:
            # -- a tail block is raw text: COUNT/LINES/ANALYZE plans scan
            # it, the rest run over the box the source builds for them.
            # Its rows never enter the Query Cache.
            cache = None
            live = [
                i for i in live
                if not self._scan_text(tail, plans[i], outcomes[i], ledgers[i])
            ]
            if not live:
                return done
        box = self.source.cached(name)
        if self.source.box_cache is not None:
            shared.charge_box_cache(box is not None)
        if settings is None:
            settings = self._settings()
        if box is None:
            live = self._prune(name, plans, outcomes, shared)
            if not live:
                return done

        # -- shared Match memo: term key -> (rows, coverage), the query
        # cache consulted once per term per block and pass, the engine
        # when neither covers the rows asked about.
        term_rows: Dict[str, TermEntry] = {}
        consulted: Set[str] = set()

        def cached_rows(
            search: SearchString, alive: Optional[GroupRows]
        ) -> Optional[GroupRows]:
            key = search.cache_key
            entry = term_rows.get(key)
            if entry is None and cache is not None and key not in consulted:
                consulted.add(key)
                entry, rows = cache.lookup(name, key, alive)
                if entry is not None:
                    term_rows[key] = entry
                return rows
            return None if entry is None else covered_rows(entry, alive)

        def matcher(outcome: BlockOutcome, ledger: QueryLedger) -> Resolver:
            """The Match operator of one plan."""
            # One reusable scope for the whole block: match runs once per
            # (group, search) pair — the hottest operator boundary by far.
            # Without a ledger it has nothing to add: the plan's Locate
            # scope, open around every match, already routes to its stats.
            match_scope = ledger.operator(
                "match", outcome.stats if ledger.enabled else None
            )

            def match(
                search: SearchString, alive: Optional[GroupRows]
            ) -> GroupRows:
                rows = cached_rows(search, alive)
                if rows is not None:
                    outcome.stats.cache_hits += 1
                    return rows
                # First plan to need this term on these rows pays its
                # Match; the memo and the query cache make it free for
                # everyone else.
                key = search.cache_key
                with tracer.span("match", search=key), match_scope:
                    rows = engine.search_string_rows(search, alive)
                entry = term_rows[key] = widen(term_rows.get(key), rows, alive)
                if cache is not None:
                    cache.put(name, key, *entry)
                return rows

            return match

        # -- warm fast path: with the block's shape and every needed term
        # cached, Locate is pure row-set algebra — COUNT/ROWS plans and
        # miss-everything LINES plans never open the box.
        located: Dict[int, GroupRows] = {}
        shape = (
            cache.get_shape(name)
            if cache is not None and box is None
            else None
        )
        if shape is not None:
            need_box: List[int] = []
            for i in live:
                plan, outcome = plans[i], outcomes[i]
                warm = None
                if plan.mode is not OutputMode.EXPLAIN:
                    with tracer.span("locate"), ledgers[i].operator(
                        "locate", outcome.stats
                    ):
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
                    name, tuple(group.num_entries for group in box.groups)
                )
        engine = BlockEngine(box, settings)
        for i in live:
            plan, outcome, ledger = plans[i], outcomes[i], ledgers[i]
            # -- EXPLAIN: dry-run the remaining operators into a rendering.
            if plan.mode is OutputMode.EXPLAIN:
                from .explain import explain_block

                outcome.rendering = explain_block(
                    box, plan, name, settings
                ).summary()
                continue
            hits = located.get(i)
            if hits is None:
                # -- Locate (calling Match per search string).  A
                # match-all aggregate has nothing to locate: every row.
                with tracer.span("locate") as lspan, ledger.operator(
                    "locate", outcome.stats
                ):
                    hits = (
                        engine.execute(plan, matcher(outcome, ledger))
                        if plan.disjuncts
                        else engine.full_rows()
                    )
                    lspan.set("groups_hit", len(hits))
            self._finish(plan, outcome, hits, box, engine, ledger)
        return done

    def _scan_text(
        self,
        block: LogBlock,
        plan: QueryPlan,
        outcome: BlockOutcome,
        ledger: QueryLedger,
    ) -> bool:
        """Answer a COUNT, LINES or ANALYZE plan over *block*'s raw lines
        (:func:`~repro.query.engine.text_rows`); False for any other
        plan, which needs a box."""
        if plan.aggregate is not None or plan.mode not in (
            OutputMode.COUNT, OutputMode.LINES, OutputMode.ANALYZE,
        ):
            return False
        scope = ledger.operator("locate", outcome.stats)
        with get_tracer().span("scan_text", lines=block.num_lines), scope:
            hits = text_rows(plan, block.lines)
        outcome.count = sum(len(rows) for rows in hits.values())
        if plan.mode is not OutputMode.COUNT:
            outcome.entries = [
                (block.first_line_id + row, block.lines[row])
                for rows in hits.values()
                for row in rows
            ]
        return True

    def _prune(
        self,
        name: str,
        plans: Sequence[QueryPlan],
        outcomes: List[BlockOutcome],
        shared: QueryLedger,
    ) -> List[int]:
        """BlockFilter of one uncached block for every plan: a block
        whose prune-index time range is disjoint from a plan's wall-clock
        window is skipped — zero store reads.  A block without a summary
        (an index turned off) is never pruned.

        Returns the indices of the surviving plans.
        """
        summary = self.source.summary(name)
        if summary is None:
            return list(range(len(plans)))
        tracer = get_tracer()
        live: List[int] = []
        for i, plan in enumerate(plans):
            with tracer.span("block_filter") as fspan, shared.operator(
                "block_filter"
            ):
                pruned = not summary_might_match(summary, plan)
                fspan.set("pruned", pruned)
            if not pruned:
                live.append(i)
                continue
            outcome = outcomes[i]
            outcome.stats.blocks_pruned += 1
            if plan.mode is OutputMode.EXPLAIN:
                outcome.rendering = (
                    f"block {name}: pruned by time window "
                    f"(block range [{summary.min_ts}, {summary.max_ts}] "
                    f"outside [{plan.from_time}, {plan.to_time}])"
                )
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
            ) as aspan, ledger.operator("aggregate", outcome.stats):
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
                "reconstruct", outcome.stats
            ):
                outcome.entries = self._reconstruct(
                    box, hits, engine.settings, rspan
                )

    def _reconstruct(
        self,
        box: CapsuleBox,
        hits: GroupRows,
        settings: QuerySettings,
        rspan: object,
    ) -> List[Entry]:
        """The Reconstruct operator body, under the run's *settings*.
        Rendering a row touches every vector of its group, so the
        still-unfetched payloads of the groups with rows the box has not
        rendered yet are batched into coalesced ranged reads instead of
        one per capsule; rows rendered before read nothing."""
        from ..core.reconstructor import BlockReconstructor

        reconstructor = BlockReconstructor(box, settings)
        pending = reconstructor.pending(hits)
        if pending:
            prefetched = box.prefetch(pending)
            if prefetched:
                rspan.set("prefetched_bytes", prefetched)
        entries = reconstructor.reconstruct(hits)
        rspan.set("entries", len(entries))
        return entries

    def reconstruct_rows(self, name: str, hits: GroupRows) -> List[Entry]:
        """Rebuild the original entries of pre-located rows of one block.

        The bounded-fetch half of the ROWS protocol: a coordinator that
        gathered row sets calls back (on any replica holding the block)
        with exactly the rows it still wants rendered.  Loads go through
        the shared BoxCache/lazy-I/O path; only the hit groups' capsule
        payloads are fetched, coalesced.  Charges go to the caller's
        scope (:func:`~repro.query.stats.collect`).
        """
        hits = {g: rows for g, rows in hits.items() if rows}
        if not hits:
            return []
        with get_tracer().span("reconstruct", block=name) as rspan:
            return self._reconstruct(
                self.load_box(name), hits, self._settings(), rspan
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
        wanted = None if rows.is_full() else rows.rows()  # type: ignore[attr-defined]
        return [
            ref.clean(value) for value in reader.values(wanted)
        ]

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
    # box loading (shared by the pipeline, sessions and decompress_all)
    # ------------------------------------------------------------------
    def _open_box(self, name: str) -> CapsuleBox:
        """Open one box through ranged reads (payloads stay on the store)."""
        return CapsuleBox.open(self.source.blob(name))

    def load_box(self, name: str) -> CapsuleBox:
        """One block's box outside a query: the pinned box when a session
        holds one (the :class:`BoxCache` a query consults), else a fresh
        open."""
        box = self.source.cached(name)
        return box if box is not None else self._open_box(name)

    def _settings(self) -> QuerySettings:
        return self.config.query_settings()

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def describe(self, plan: QueryPlan) -> str:
        """The physical plan: operators, scheduler, term order."""
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
            "  pipeline: BlockFilter -> LoadBox -> Locate -> "
            f"Match(query_cache={cache}) -> {tail}",
            f"  io: lazy (ranged reads); prune index: {index}",
            f"  scheduler: {scheduler} over {len(self.source.names())} block(s)",
        ]
        for i, disjunct in enumerate(plan.disjuncts):
            lines.append(f"  disjunct {i}: {disjunct.describe()}")
        return "\n".join(lines)
