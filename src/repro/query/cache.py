"""Query Cache (paper §3, §6.3).

LogGrep keeps a map from query text to located rows so that the
*refining mode* — an engineer growing ``ERROR`` into ``ERROR AND x`` into
``ERROR AND x NOT y`` over a debugging session — never re-matches a search
string it has already located.  :class:`QueryCache` is that map: one
bounded LRU of per-block row sets keyed ``(block name, term key)``.  Row
sets are the exact intermediate the engine's
AND/OR/NOT algebra consumes, so *overlapping* queries (``ERROR``, ``ERROR
AND timeout``, ``ERROR OR WARN``) share work even when no two are
textually equal, and a repeated query skips Match entirely.

An entry carries its **coverage** next to its rows: the rows the answer
is exact on, ``None`` meaning every row of the block.  A term that opens
a disjunct is matched over every row and cached complete; a later AND or
NOT term is matched only on the rows the conjunction still holds
(:func:`~repro.query.engine.fold_disjuncts`), so its entry covers just
those.  A lookup with *alive* rows answers when the entry is complete or
its coverage contains *alive* (the rows within *alive*); otherwise the
executor matches the term on *alive* and stores one new entry with the
union of both rows and both coverages (:func:`widen`).  The entry is
replaced whole, so racing writers can lose coverage but never pair one
entry's rows with another's coverage.  Alongside
the terms the cache memoizes each block's **shape** (per-group row
counts) under a reserved key, so a fully warm block is evaluated purely
in row-set algebra: a COUNT touches neither the store nor the box.

A block name is written once (:func:`~repro.blockstore.block.block_name`):
a commit adds a name, and a lifecycle rewrite writes new names and
deletes the ones it replaced.  A name therefore identifies its bytes,
and an entry can never go stale — entries of replaced names are simply
never asked for again and age out of the LRU.  So a cache shared across
LogGrep handles, or held across a demotion performed by a separate
:class:`~repro.core.lifecycle.LifecycleManager`, needs no invalidation.

Decoded values are not cached here: a reader decodes the rows it needs
from padded cells (:mod:`repro.query.vectors`), and the decompressed
Capsule buffers behind them stay resident with the box in the BoxCache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..common.rowset import RowSet
from ..obs import ledger as ledger_channel
from ..obs.metrics import get_registry

_HITS = get_registry().counter(
    "loggrep_query_cache_hits_total", "Query cache lookups that hit"
)
_MISSES = get_registry().counter(
    "loggrep_query_cache_misses_total", "Query cache lookups that missed"
)
_EVICTIONS = get_registry().counter(
    "loggrep_query_cache_evictions_total", "Entries evicted by the LRU bound"
)
_ENTRIES = get_registry().gauge(
    "loggrep_query_cache_entries", "Entries currently cached"
)

#: Block-level located rows (group index → row set).
GroupRows = Dict[int, RowSet]

#: One cached term: its located rows and their coverage, the rows they
#: are exact on (None = every row).  The rows lie within the coverage.
TermEntry = Tuple[GroupRows, Optional[GroupRows]]

DEFAULT_CAPACITY = 4096

#: Reserved term key for a block's shape (group -> row count).  NUL can
#: never appear in a parsed search string, so it cannot collide.
SHAPE_KEY = "\x00shape"


def covered_rows(
    entry: TermEntry, alive: Optional[GroupRows]
) -> Optional[GroupRows]:
    """What *entry* knows of its term on the *alive* rows (None = every
    row): all its rows when it is complete, its rows within *alive* when
    its coverage contains *alive*, else None."""
    rows, coverage = entry
    if coverage is None:
        return rows
    if alive is None:
        return None
    out: GroupRows = {}
    for group, wanted in alive.items():
        covered = coverage.get(group)
        if covered is None or wanted - covered:
            return None
        found = rows.get(group)
        if found is not None:
            found = found & wanted
            if found:
                out[group] = found
    return out


def widen(
    entry: Optional[TermEntry],
    rows: GroupRows,
    coverage: Optional[GroupRows],
) -> TermEntry:
    """*entry* (if any) extended by *rows*, exact on *coverage*: a new
    entry whose rows and coverage are the unions of both."""
    if entry is None or coverage is None:
        return rows, coverage
    old_rows, old_coverage = entry
    if old_coverage is None:
        return entry  # already complete
    return _union(old_rows, rows), _union(old_coverage, coverage)


def _union(a: GroupRows, b: GroupRows) -> GroupRows:
    out = dict(a)
    for group, rows in b.items():
        out[group] = out[group] | rows if group in out else rows
    return out


class QueryCache:
    """A bounded LRU of per-block search-string results, keyed by block
    name and term."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, object]" = OrderedDict()
        # Parallel query execution (query_parallelism > 1) shares the cache
        # across worker threads.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(
        self,
        block_name: str,
        term_key: str,
        alive: Optional[GroupRows] = None,
    ) -> Optional[GroupRows]:
        """The term's rows, exact on *alive* (None = every row), or None
        when no entry answers it."""
        return self.lookup(block_name, term_key, alive)[1]

    def lookup(
        self,
        block_name: str,
        term_key: str,
        alive: Optional[GroupRows] = None,
    ) -> Tuple[Optional[TermEntry], Optional[GroupRows]]:
        """The term's whole entry and its answer on *alive* (see
        :func:`covered_rows`); a hit is a lookup that answered."""
        key = (block_name, term_key)
        with self._lock:
            entry = self._entries.get(key)
            rows: Optional[GroupRows] = None
            if entry is not None:
                self._entries.move_to_end(key)
                rows = covered_rows(entry, alive)  # type: ignore[arg-type]
            if rows is None:
                self.misses += 1
                _MISSES.inc()
            else:
                self.hits += 1
                _HITS.inc()
        ledger_channel.charge_cache("query", rows is not None)
        return entry, rows  # type: ignore[return-value]

    def put(
        self,
        block_name: str,
        term_key: str,
        rows: GroupRows,
        coverage: Optional[GroupRows] = None,
    ) -> None:
        """Store one term's entry whole: *rows*, exact on *coverage*
        (None = every row)."""
        self._put((block_name, term_key), (rows, coverage))

    # Block shapes are cached uncounted: they are not search-string
    # results, only the full-rows seed that lets a warm block skip LoadBox.
    def get_shape(self, block_name: str) -> Optional[Tuple[int, ...]]:
        key = (block_name, SHAPE_KEY)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry  # type: ignore[return-value]

    def put_shape(self, block_name: str, shape: Tuple[int, ...]) -> None:
        self._put((block_name, SHAPE_KEY), shape)

    def _put(self, key: tuple, value: object) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                _EVICTIONS.inc()
            _ENTRIES.set(len(self._entries))

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            _ENTRIES.set(0)

    def __len__(self) -> int:
        return len(self._entries)


class _NoValueCache:
    def clear(self) -> None:
        """Nothing to clear: readers keep no decoded values past a block."""


def get_value_cache() -> _NoValueCache:
    """A no-op stand-in for the deleted process-wide decoded-value cache.

    Its only caller is the benchmark harness (``perfbench/run.py:336/349/
    369``), which clears it before every cold query; the stub goes with
    that harness's re-baseline (ROADMAP item 7(a)).
    """
    return _NoValueCache()
