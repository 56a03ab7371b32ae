"""Query execution counters.

The whole point of LogGrep is to *not* decompress Capsules; these counters
make that observable.  Benchmarks and the filtering-efficacy tests assert
on them, and `LogGrep.grep` returns them with every result.

The counters are one half of the observability layer (`repro.obs`): every
field is published into the process-wide MetricsRegistry after each query
via :meth:`QueryStats.publish`, and :func:`touch_capsule` — the single
choke point through which every Capsule decompression flows — emits a
``decompress`` span so traced queries account for every byte inflated.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import ContextManager, Dict, List, Optional, Tuple

from ..common.errors import BudgetExceeded
from ..obs import ledger as ledger_channel
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer


@dataclass
class QueryStats:
    """Counters accumulated while executing one query."""

    capsules_considered: int = 0
    capsules_filtered: int = 0  # proven irrelevant without decompression
    capsules_decompressed: int = 0
    bytes_decompressed: int = 0
    candidates_evaluated: int = 0
    fallback_scans: int = 0  # TOO_COMPLEX locator fallbacks
    cache_hits: int = 0
    blocks_visited: int = 0
    blocks_pruned: int = 0  # skipped via block-level Bloom filters
    blocks_time_pruned: int = 0  # subset of blocks_pruned: time window
    entries_matched: int = 0

    def merge(self, other: "QueryStats") -> None:
        """Accumulate *other* field by field.

        Iterates ``dataclasses.fields`` so a newly added counter can never
        be silently dropped from aggregation.
        """
        for spec in dataclasses.fields(self):
            setattr(
                self,
                spec.name,
                getattr(self, spec.name) + getattr(other, spec.name),
            )

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def publish(self, elapsed: float) -> None:
        """Record this query in the process-wide metrics registry."""
        registry = get_registry()
        registry.counter(
            "loggrep_queries_total", "Queries executed"
        ).inc()
        registry.histogram(
            "loggrep_query_seconds", "End-to-end query latency"
        ).observe(elapsed)
        for spec in dataclasses.fields(self):
            registry.counter(
                f"loggrep_query_{spec.name}_total",
                f"QueryStats.{spec.name} summed over all queries",
            ).inc(getattr(self, spec.name))
        touched = self.capsules_filtered + self.capsules_decompressed
        if touched:
            registry.gauge(
                "loggrep_capsule_filter_ratio",
                "Fraction of capsules proven irrelevant without decompression "
                "in the most recent query",
            ).set(self.capsules_filtered / touched)


def touch_capsule(capsule, stats: QueryStats) -> None:
    """Record a decompression if *capsule* has not been opened yet."""
    if capsule.is_decompressed:
        return
    with get_tracer().span("decompress") as span:
        data = capsule.plain()
        span.set("bytes", len(data))
    stats.capsules_decompressed += 1
    stats.bytes_decompressed += len(data)
    ledger_channel.charge_decompress(len(data))


# ----------------------------------------------------------------------
# per-query resource ledger
# ----------------------------------------------------------------------

#: Canonical operator order of the per-block pipeline (plus the plan
#: stage); the EXPLAIN ANALYZE table and as_dict render in this order.
OPERATORS = (
    "plan",
    "block_filter",
    "load_box",
    "locate",
    "match",
    "aggregate",
    "reconstruct",
)


@dataclass
class OperatorStats:
    """What one pipeline operator cost across every block of a query.

    ``match`` runs nested inside ``locate`` (exactly like the span tree),
    so wall times of the two overlap rather than sum; the deep charges
    (reads, fetches, rows) are attributed to the *innermost* open
    operator, so those columns are disjoint and additive.
    """

    calls: int = 0
    seconds: float = 0.0
    range_reads: int = 0  # ranged store reads issued while this op was open
    read_bytes: int = 0  # bytes off the store (ranged reads)
    capsules_fetched: int = 0  # payloads materialized (lazy or prefetch)
    capsules_decompressed: int = 0
    bytes_decompressed: int = 0
    rows_scanned: int = 0  # capsule rows covered by the scan kernels

    def merge(self, other: "OperatorStats") -> None:
        """Accumulate *other* field by field (drift-proof, like QueryStats)."""
        for name in _OPSTAT_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


#: Field names resolved once — merge() runs per (block, operator) pair on
#: every accounted query, too hot for a dataclasses.fields() call each time.
_OPSTAT_FIELDS = tuple(spec.name for spec in dataclasses.fields(OperatorStats))


class BudgetMeter:
    """Query-global spend tracker for the soft per-query budgets.

    One meter is shared by every per-block ledger of a query (worker
    threads included), so the budget bounds the *query*, not one block.
    Charges are lock-protected; the lock is only ever taken when a budget
    is configured, so unbudgeted accounting pays nothing here.
    """

    __slots__ = ("max_read_bytes", "max_decoded_values", "read_bytes",
                 "decoded_values", "_lock")

    def __init__(
        self,
        max_read_bytes: Optional[int] = None,
        max_decoded_values: Optional[int] = None,
    ):
        self.max_read_bytes = max_read_bytes
        self.max_decoded_values = max_decoded_values
        self.read_bytes = 0
        self.decoded_values = 0
        self._lock = threading.Lock()

    def charge_read(self, nbytes: int) -> None:
        limit = self.max_read_bytes
        if limit is None:
            return
        with self._lock:
            self.read_bytes += nbytes
            spent = self.read_bytes
        if spent > limit:
            raise BudgetExceeded("read_bytes", limit, spent)

    def charge_decoded(self, count: int) -> None:
        limit = self.max_decoded_values
        if limit is None:
            return
        with self._lock:
            self.decoded_values += count
            spent = self.decoded_values
        if spent > limit:
            raise BudgetExceeded("decoded_values", limit, spent)

    def as_dict(self) -> dict:
        return {
            "max_read_bytes": self.max_read_bytes,
            "max_decoded_values": self.max_decoded_values,
            "read_bytes": self.read_bytes,
            "decoded_values": self.decoded_values,
        }


class _OperatorTimer:
    """Context manager timing one operator and routing deep charges to it.

    Safe to reuse sequentially (each entry accumulates another call onto
    the same :class:`OperatorStats`) — the executor's Match stage keeps
    one per block and re-enters it for every search instead of paying an
    allocation per match.  The entry tuple is built once up front; the
    enter/exit path is two ``perf_counter`` reads and two thread-local
    stores.
    """

    __slots__ = ("_entry", "_op", "_prev", "_start")

    def __init__(self, ledger: "QueryLedger", op: OperatorStats):
        self._entry: ledger_channel.Entry = (ledger, op)
        self._op = op
        self._prev: Optional[ledger_channel.Entry] = None
        self._start = 0.0

    def __enter__(self) -> None:
        self._prev = ledger_channel.set_entry(self._entry)
        self._start = time.perf_counter()
        return None

    def __exit__(self, *exc: object) -> None:
        op = self._op
        op.seconds += time.perf_counter() - self._start
        op.calls += 1
        ledger_channel.set_entry(self._prev)
        return None


#: Cache-lookup kinds the ledger distinguishes.
CACHE_KINDS = ("box", "query", "value")

#: kind -> (miss attribute, hit attribute); indexed by the hit bool on the
#: per-lookup charge path, so no f-string formatting per cache access.
_CACHE_ATTRS = {
    kind: (f"{kind}_cache_misses", f"{kind}_cache_hits") for kind in CACHE_KINDS
}


class QueryLedger:
    """Per-query resource accounting across the whole read path.

    The executor opens one :meth:`operator` context per pipeline stage;
    while it is open, every deep charge of that thread — ranged reads
    (:mod:`repro.blockstore.blobsource`), capsule payload fetches
    (:mod:`repro.capsule.capsule`), rows covered by the byte kernels
    (:mod:`repro.capsule.scan`), decompressions (:func:`touch_capsule`)
    and cache lookups (:mod:`repro.query.cache`) — lands on that
    operator's :class:`OperatorStats`.  Under ``query_parallelism > 1``
    the scheduler gives each block a child ledger (:meth:`spawn`) and
    folds them back with :meth:`merge_children`, so the totals are exact
    regardless of the worker count, while the shared :class:`BudgetMeter`
    enforces the per-query budgets globally and immediately.
    """

    def __init__(self, budget: Optional[BudgetMeter] = None):
        self.operators: Dict[str, OperatorStats] = {}
        self.box_cache_hits = 0
        self.box_cache_misses = 0
        self.query_cache_hits = 0
        self.query_cache_misses = 0
        self.value_cache_hits = 0
        self.value_cache_misses = 0
        self.decoded_values = 0
        self.budget = budget
        self._children: List["QueryLedger"] = []
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return True

    # ------------------------------------------------------------------
    # executor surface
    # ------------------------------------------------------------------
    def operator(self, name: str) -> ContextManager[None]:
        """Time one pipeline stage and route this thread's deep charges
        to it.  Reentrant: ``match`` inside ``locate`` restores the outer
        operator on exit, exactly like the span stack."""
        return _OperatorTimer(self, self._op(name))

    def spawn(self) -> "QueryLedger":
        """A child ledger for one block (same budget meter, merged later)."""
        child = QueryLedger(self.budget)
        with self._lock:
            self._children.append(child)
        return child

    def merge_children(self) -> None:
        """Fold every spawned per-block ledger into this one, in order."""
        with self._lock:
            children, self._children = self._children, []
        for child in children:
            self.merge(child)

    def merge(self, other: "QueryLedger") -> None:
        for name, op in other.operators.items():
            self._op(name).merge(op)
        self.box_cache_hits += other.box_cache_hits
        self.box_cache_misses += other.box_cache_misses
        self.query_cache_hits += other.query_cache_hits
        self.query_cache_misses += other.query_cache_misses
        self.value_cache_hits += other.value_cache_hits
        self.value_cache_misses += other.value_cache_misses
        self.decoded_values += other.decoded_values

    # ------------------------------------------------------------------
    # charge sinks (called via repro.obs.ledger from the deep layers)
    # ------------------------------------------------------------------
    def charge_read(self, op: OperatorStats, nbytes: int, reads: int = 1) -> None:
        op.range_reads += reads
        op.read_bytes += nbytes
        if self.budget is not None:
            self.budget.charge_read(nbytes)

    def charge_capsule_fetch(self, op: OperatorStats, nbytes: int) -> None:
        op.capsules_fetched += 1

    def charge_decompress(self, op: OperatorStats, nbytes: int) -> None:
        op.capsules_decompressed += 1
        op.bytes_decompressed += nbytes

    def charge_rows_scanned(self, op: OperatorStats, rows: int) -> None:
        op.rows_scanned += rows

    def charge_decoded_values(self, count: int) -> None:
        self.decoded_values += count
        if self.budget is not None:
            self.budget.charge_decoded(count)

    def charge_cache(self, kind: str, hit: bool) -> None:
        attr = _CACHE_ATTRS[kind][hit]
        setattr(self, attr, getattr(self, attr) + 1)

    def charge_box_cache(self, hit: bool) -> None:
        """Direct box-cache charge (the lookup precedes any operator)."""
        if hit:
            self.box_cache_hits += 1
        else:
            self.box_cache_misses += 1

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _op(self, name: str) -> OperatorStats:
        op = self.operators.get(name)
        if op is None:
            op = self.operators[name] = OperatorStats()
        return op

    def ordered_operators(self) -> List[Tuple[str, OperatorStats]]:
        """(name, stats) pairs in canonical pipeline order."""
        out = [
            (name, self.operators[name])
            for name in OPERATORS
            if name in self.operators
        ]
        out.extend(
            (name, op)
            for name, op in self.operators.items()
            if name not in OPERATORS
        )
        return out

    def totals(self) -> OperatorStats:
        """Every operator summed — the query-level resource bill."""
        total = OperatorStats()
        for op in self.operators.values():
            total.merge(op)
        return total

    @property
    def read_bytes(self) -> int:
        return sum(op.read_bytes for op in self.operators.values())

    @property
    def range_reads(self) -> int:
        return sum(op.range_reads for op in self.operators.values())

    @property
    def rows_scanned(self) -> int:
        return sum(op.rows_scanned for op in self.operators.values())

    def as_dict(self) -> dict:
        return {
            "operators": {
                name: op.as_dict() for name, op in self.ordered_operators()
            },
            "caches": {
                kind: {
                    "hits": getattr(self, f"{kind}_cache_hits"),
                    "misses": getattr(self, f"{kind}_cache_misses"),
                }
                for kind in CACHE_KINDS
            },
            "decoded_values": self.decoded_values,
            "budget": self.budget.as_dict() if self.budget is not None else None,
            "totals": self.totals().as_dict(),
        }


_NULL_CONTEXT: ContextManager[None] = nullcontext()


class NullQueryLedger(QueryLedger):
    """The disabled ledger: every surface is a no-op.

    The executor always holds *a* ledger, so the pipeline has no
    ``if ledger:`` branches; when accounting is off this object keeps the
    thread-local charge channel empty and allocates nothing per block.
    """

    @property
    def enabled(self) -> bool:
        return False

    def operator(self, name: str) -> ContextManager[None]:
        return _NULL_CONTEXT

    def spawn(self) -> "QueryLedger":
        return self

    def merge_children(self) -> None:
        return None

    def charge_box_cache(self, hit: bool) -> None:
        return None


#: Shared disabled ledger (analogous to ``NULL_TRACER``).
NULL_LEDGER = NullQueryLedger()
