"""The Analyzer: structure-based aggregation directly on Capsules.

This is the paper's "second phase" (§2) built on LogGrep's own storage:
because groups are relations and variable vectors are columns, a
``count_by``/``top_k``/``stats`` never reconstructs a single log line.

Since the aggregation pushdown, the Analyzer is a thin facade over the
query planner: every call builds an aggregate :class:`~repro.query.plan.
QueryPlan` and hands it to ``LogGrep.aggregate`` — so analytics run on
the same operator pipeline as ``grep`` (BloomPrune, BoxCache, lazy I/O,
the ``query_parallelism`` thread pool, the ledger) and per-block partial
aggregates merge order-independently.  No store blob or CapsuleBox is
ever loaded here directly.

    analyzer = Analyzer(lg)
    analyzer.fields()                          # discovered schema
    analyzer.count_by("Project", where="ERROR")
    analyzer.stats_of("latency")               # numeric summary
    analyzer.top_k("reqId", k=5, where="ERROR")
"""

from __future__ import annotations

import operator
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.loggrep import AggregateResult, AggregateShortcuts, LogGrep
from ..query.aggregate import AggregateSpec, parse_number
from ..query.modes import AggregateKind
from ..query.schema import Schema, schema_of
from ..query.stats import QueryStats

_FILTER_OPS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
}


class Analyzer(AggregateShortcuts):
    """Columnar aggregation over a LogGrep archive: the named aggregates
    (``count_by``/``top_k``/``stats_of``/…) plus column extraction."""

    def __init__(self, loggrep: LogGrep):
        self.loggrep = loggrep
        #: Merged execution stats of every aggregate this analyzer ran.
        self.stats = QueryStats()

    def aggregate(
        self, spec: AggregateSpec, where: Optional[str] = None
    ) -> AggregateResult:
        """One pushed-down aggregate; folds its stats into ``self.stats``."""
        result = self.loggrep.aggregate(spec, where or None)
        self.stats.merge(result.stats)
        return result

    def total_lines(self) -> int:
        return self.loggrep.total_lines()

    # ------------------------------------------------------------------
    # schema
    # ------------------------------------------------------------------
    def schemas(self) -> Dict[str, Schema]:
        """block name → discovered schema.

        Boxes load through the executor (shared BoxCache; metadata-only
        under lazy I/O — discovery never touches capsule payloads).
        """
        executor = self.loggrep.executor
        return {
            name: schema_of(executor.load_box(name))
            for name in executor.source.names()
        }

    def fields(self) -> List[str]:
        """All field names across the archive (discovery order)."""
        seen: Dict[str, None] = {}
        for schema in self.schemas().values():
            for name in schema.names():
                seen.setdefault(name, None)
        return list(seen)

    # ------------------------------------------------------------------
    # column extraction
    # ------------------------------------------------------------------
    def column(self, field: str, where: Optional[str] = None) -> Iterator[str]:
        """Stream the values of *field*, optionally filtered by a query.

        Runs as a ``VALUES`` aggregate plan: only the Capsules of the
        requested column (and whatever the WHERE filter needed) are
        decompressed — log lines are never rebuilt.
        """
        spec = AggregateSpec(AggregateKind.VALUES, field)
        values: List[str] = self.aggregate(spec, where).value  # type: ignore[assignment]
        yield from values

    def pairs(
        self, key_field: str, value_field: str, where: Optional[str] = None
    ) -> Iterator[Tuple[str, str]]:
        """Stream (key, value) pairs for group-by aggregations.

        Both fields must live in the same group (the same log template),
        otherwise the rows cannot be joined.
        """
        spec = AggregateSpec(
            AggregateKind.PAIRS, key_field, value_field=value_field
        )
        extracted: List[Tuple[str, str]] = self.aggregate(spec, where).value  # type: ignore[assignment]
        yield from extracted

    # ------------------------------------------------------------------
    # aggregations
    # ------------------------------------------------------------------
    #: Entries per static pattern — ``COUNT BY template`` (§2).
    count_templates = AggregateShortcuts.count_by_template
    #: Hit rate over logical time: when an incident started and how it
    #: evolved, without reconstructing a single line.
    timeline = AggregateShortcuts.timeseries

    def distinct(self, field: str, where: Optional[str] = None) -> List[str]:
        seen: Dict[str, None] = {}
        for value in self.column(field, where):
            seen.setdefault(value, None)
        return list(seen)

    def filter_numeric(
        self,
        field: str,
        op: str,
        threshold: float,
        where: Optional[str] = None,
    ) -> int:
        """Count entries whose numeric *field* satisfies ``op threshold``.

        Supported ops: ``>``, ``>=``, ``<``, ``<=``, ``==``.  Values parse
        like :func:`~repro.query.aggregate.parse_number` (unit suffixes
        tolerated).  Runs on the per-distinct-value counts of a pushed-down
        ``COUNT_BY`` plan — the columnar ``WHERE latency > 50000`` scan
        without decoding each row.
        """
        if op not in _FILTER_OPS:
            raise ValueError(
                f"unsupported operator {op!r}; one of {sorted(_FILTER_OPS)}"
            )
        compare = _FILTER_OPS[op]
        count = 0
        for value, n in self.count_by(field, where).items():
            number = parse_number(value)
            if number is not None and compare(number, threshold):
                count += n
        return count
