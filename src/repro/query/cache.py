"""Query Cache (paper §3, §6.3), the archive generation, and the
decoded-value cache.

LogGrep keeps a map from query text to located rows so that the
*refining mode* — an engineer growing ``ERROR`` into ``ERROR AND x`` into
``ERROR AND x NOT y`` over a debugging session — never re-matches a search
string it has already located.  :class:`QueryCache` is that map: one
bounded LRU of per-block row sets keyed ``(archive generation, block
name, term key)``.  Row sets are the exact intermediate the engine's
AND/OR/NOT algebra consumes, so *overlapping* queries (``ERROR``, ``ERROR
AND timeout``, ``ERROR OR WARN``) share work even when no two are
textually equal, and a repeated query skips Match entirely.  Alongside
the terms the cache memoizes each block's **shape** (per-group row
counts) under a reserved key, so a fully warm block is evaluated purely
in row-set algebra: a COUNT touches neither the store nor the box.

The **generation** is a monotonic counter persisted as an auxiliary blob
next to the blocks, bumped by every writer that can change the bytes
behind an existing block name: ``compress``/streaming commit, ``lifecycle
demote`` to WARM (block-for-block rewrite, same names) and to COLD (merge
+ shared-template-store rewrite).  The executor loads it once per run; a
bumped generation makes every older row set unreachable by key, and
:meth:`QueryCache.set_generation` drops them eagerly
(``loggrep_query_cache_invalidations_total``).  Because invalidation
rides an archive-associated token rather than in-process callbacks, a
cache shared across LogGrep handles — or held across a demotion
performed by a separate :class:`~repro.core.lifecycle.LifecycleManager`
— can never serve stale rows.

:class:`CapsuleValueCache` is the second cache of this module: a bounded
LRU of *decoded* Capsule value columns.  With the bytes scan kernels,
matching never decodes values — decoding happens only for surviving rows
(reconstruction, wildcard verification, dictionary region reads), and
those paths used to re-decode the same Capsule on every query.  Entries
are keyed by Capsule identity, invalidated automatically when the
Capsule is garbage-collected, so the cache's lifetime rides the existing
BoxCache accounting — a box evicted from the BoxCache LRU drops its
decoded columns with it.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict, deque
from typing import Callable, Dict, List, Optional, Tuple

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
_INVALIDATIONS = get_registry().counter(
    "loggrep_query_cache_invalidations_total",
    "Entries dropped because the archive generation advanced",
)
_ENTRIES = get_registry().gauge(
    "loggrep_query_cache_entries", "Entries currently cached"
)

#: Block-level located rows (group index → row set).
GroupRows = Dict[int, RowSet]

DEFAULT_CAPACITY = 4096

#: Aux-blob name of the per-archive generation counter.
GENERATION_AUX_NAME = "generation.txt"

#: Reserved term key for a block's shape (group -> row count).  NUL can
#: never appear in a parsed search string, so it cannot collide.
SHAPE_KEY = "\x00shape"


def load_generation(store: object) -> int:
    """The archive's current generation (0 for a never-bumped archive).

    Tolerant of stores without aux-blob support and of unreadable blobs:
    both read as generation 0, which is always *safe* — a reader that
    cannot observe bumps simply keys every row set to one generation,
    and such stores (e.g. cluster replica holders) never rewrite a block
    name in place.
    """
    try:
        if not store.aux_exists(GENERATION_AUX_NAME):  # type: ignore[attr-defined]
            return 0
        return int(store.get_aux(GENERATION_AUX_NAME).decode("ascii"))  # type: ignore[attr-defined]
    except Exception:  # noqa: BLE001 - absence and corruption read alike
        return 0


def bump_generation(store: object) -> int:
    """Advance the archive generation; returns the new value.

    Called by every writer that can change bytes behind an existing
    block name (commit, demote, shared-store merge).  Best-effort on
    stores without aux support — see :func:`load_generation`.
    """
    gen = load_generation(store) + 1
    try:
        store.put_aux(GENERATION_AUX_NAME, str(gen).encode("ascii"))  # type: ignore[attr-defined]
    except Exception:  # noqa: BLE001
        pass
    return gen


class QueryCache:
    """A bounded LRU of generation-keyed per-block search-string results."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, object]" = OrderedDict()
        # Parallel query execution (query_parallelism > 1) shares the cache
        # across worker threads.
        self._lock = threading.Lock()
        self._generation: Optional[int] = None
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def set_generation(self, generation: int) -> None:
        """Pin the cache to one archive generation.

        Called once per run with the freshly-loaded token.  Entries from
        any other generation are unreachable by key anyway; they are
        dropped eagerly here so a rewritten archive's stale row sets do
        not squat in the LRU.
        """
        with self._lock:
            if self._generation == generation:
                return
            self._generation = generation
            stale = [key for key in self._entries if key[0] != generation]
            for key in stale:
                del self._entries[key]
            if stale:
                self.invalidations += len(stale)
                _INVALIDATIONS.inc(len(stale))
            _ENTRIES.set(len(self._entries))

    def get(
        self, generation: int, block_name: str, term_key: str
    ) -> Optional[GroupRows]:
        key = (generation, block_name, term_key)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                _MISSES.inc()
                ledger_channel.charge_cache("query", False)
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            _HITS.inc()
            ledger_channel.charge_cache("query", True)
            return entry  # type: ignore[return-value]

    def put(
        self, generation: int, block_name: str, term_key: str, rows: GroupRows
    ) -> None:
        self._put((generation, block_name, term_key), rows)

    # Block shapes are cached uncounted: they are not search-string
    # results, only the full-rows seed that lets a warm block skip LoadBox.
    def get_shape(
        self, generation: int, block_name: str
    ) -> Optional[Tuple[int, ...]]:
        key = (generation, block_name, SHAPE_KEY)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry  # type: ignore[return-value]

    def put_shape(
        self, generation: int, block_name: str, shape: Tuple[int, ...]
    ) -> None:
        self._put((generation, block_name, SHAPE_KEY), shape)

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
            self._generation = None
            self.hits = 0
            self.misses = 0
            self.invalidations = 0
            _ENTRIES.set(0)

    def __len__(self) -> int:
        return len(self._entries)


# ----------------------------------------------------------------------
# decoded-value cache
# ----------------------------------------------------------------------
_VALUE_HITS = get_registry().counter(
    "loggrep_value_cache_hits_total", "Decoded-value cache lookups that hit"
)
_VALUE_MISSES = get_registry().counter(
    "loggrep_value_cache_misses_total", "Decoded-value cache lookups that missed"
)
_VALUE_EVICTIONS = get_registry().counter(
    "loggrep_value_cache_evictions_total",
    "Decoded-value columns evicted by the LRU bound",
)
_VALUE_ENTRIES = get_registry().gauge(
    "loggrep_value_cache_entries", "Decoded Capsule columns currently cached"
)
_VALUE_VALUES = get_registry().gauge(
    "loggrep_value_cache_decoded_values",
    "Individual decoded values currently cached",
)

#: Default bound on cached decoded values (not entries): one decoded value
#: is roughly one short string, so this is a soft memory bound.
DEFAULT_VALUE_CAPACITY = 1 << 16


class CapsuleValueCache:
    """A bounded LRU of decoded value columns, keyed by Capsule identity.

    Keys are ``id(capsule)`` guarded by a ``weakref.finalize`` on the
    Capsule: when a Capsule is garbage-collected (its CapsuleBox fell out
    of the BoxCache LRU, or the query finished with an uncached box), its
    entry is dropped, so a recycled ``id`` can never serve stale values.
    The capacity bound counts decoded *values*, not entries, so one huge
    column cannot masquerade as a single cheap slot.
    """

    def __init__(self, capacity_values: int = DEFAULT_VALUE_CAPACITY):
        if capacity_values <= 0:
            raise ValueError("value cache capacity must be positive")
        self.capacity_values = capacity_values
        self._entries: "OrderedDict[int, List[str]]" = OrderedDict()
        self._finalizers: Dict[int, weakref.finalize] = {}
        self._weight = 0
        # Reentrant as defense in depth: _discard is a weakref.finalize
        # callback, so the GC can fire it on THIS thread while _store
        # holds the lock (any allocation inside the critical section may
        # trigger a collection) — a plain Lock would self-deadlock.
        self._lock = threading.RLock()
        # Keys whose Capsules the GC collected, reaped lazily by the
        # live paths.  deque.append is atomic and lock-free, which is
        # the only kind of work a GC-context callback may do: it can
        # interrupt a thread that holds ANY lock in the process (this
        # cache's, the metrics registry's, ...), so taking one — even a
        # different one — risks a self-deadlock.
        self._dead: "deque[int]" = deque()

    # ------------------------------------------------------------------
    def get(
        self, capsule: object, loader: Optional[Callable[[], List[str]]] = None
    ) -> List[str]:
        """The decoded values of *capsule*, decoding at most once.

        ``loader`` overrides the default ``capsule.values()`` for layouts
        that need extra metadata to decode (region-packed dictionaries).
        Callers must not mutate the returned list.
        """
        key = id(capsule)
        with self._lock:
            # Reap before looking up: a collected Capsule's id can be
            # recycled by a new one, and its queued-dead entry must not
            # serve the old column.
            self._reap()
            values = self._entries.get(key)
            if values is not None:
                self._entries.move_to_end(key)
                _VALUE_HITS.inc()
                ledger_channel.charge_cache("value", True)
                return values
        _VALUE_MISSES.inc()
        ledger_channel.charge_cache("value", False)
        values = loader() if loader is not None else capsule.values()  # type: ignore[attr-defined]
        ledger_channel.charge_decoded_values(len(values))
        self._store(capsule, key, values)
        return values

    def peek(self, capsule: object) -> Optional[List[str]]:
        """The cached values of *capsule*, or None — never decodes."""
        key = id(capsule)
        with self._lock:
            self._reap()
            values = self._entries.get(key)
            if values is not None:
                self._entries.move_to_end(key)
            return values

    def value_at(self, capsule: object, row: int) -> str:
        """One value of *capsule*: from the cached column when present,
        otherwise a direct O(1) single-row fetch (no bulk decode)."""
        values = self.peek(capsule)
        if values is not None:
            return values[row]
        ledger_channel.charge_decoded_values(1)
        return capsule.value_at(row)  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    def _store(self, capsule: object, key: int, values: List[str]) -> None:
        weight = max(1, len(values))
        if weight > self.capacity_values:
            return  # larger than the whole cache: not worth caching
        with self._lock:
            self._reap()
            if key not in self._entries:
                self._weight += weight
                self._finalizers[key] = weakref.finalize(
                    capsule, self._discard, key
                )
            self._entries[key] = values
            self._entries.move_to_end(key)
            while self._weight > self.capacity_values and self._entries:
                old_key, old_values = self._entries.popitem(last=False)
                self._weight -= max(1, len(old_values))
                finalizer = self._finalizers.pop(old_key, None)
                if finalizer is not None:
                    finalizer.detach()
                _VALUE_EVICTIONS.inc()
            self._publish_gauges()

    def _discard(self, key: int) -> None:
        """weakref.finalize callback: the Capsule was garbage-collected.

        Runs in GC context, possibly mid-bytecode on a thread that holds
        unrelated locks — so it must not lock, publish metrics, or touch
        the entry maps.  It only records the key; _reap does the rest.
        """
        self._dead.append(key)

    def _reap(self) -> None:
        """Drop entries whose Capsules were collected (lock held)."""
        while self._dead:
            key = self._dead.popleft()
            values = self._entries.pop(key, None)
            if values is not None:
                self._weight -= max(1, len(values))
            self._finalizers.pop(key, None)

    def _publish_gauges(self) -> None:
        _VALUE_ENTRIES.set(len(self._entries))
        _VALUE_VALUES.set(self._weight)

    # ------------------------------------------------------------------
    def clear(self) -> None:
        with self._lock:
            for finalizer in self._finalizers.values():
                finalizer.detach()
            self._entries.clear()
            self._finalizers.clear()
            self._dead.clear()
            self._weight = 0
            self._publish_gauges()

    def __len__(self) -> int:
        with self._lock:
            self._reap()
            return len(self._entries)

    @property
    def cached_values(self) -> int:
        with self._lock:
            self._reap()
            return self._weight


#: Process-wide decoded-value cache, bounded at DEFAULT_VALUE_CAPACITY.
#: Capsule identity keys make sharing across LogGrep instances safe.
_VALUE_CACHE = CapsuleValueCache()


def get_value_cache() -> CapsuleValueCache:
    return _VALUE_CACHE
