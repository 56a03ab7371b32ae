"""Thread-local charge channel for per-query resource ledgers.

The :class:`~repro.query.stats.QueryLedger` needs charges from layers that
must not import the query package (blob sources, capsule payload fetches,
the byte scan kernels).  This module is the decoupling point: a leaf with
no intra-package imports, holding one thread-local *entry* — the pair
``(ledger, operator stats)`` installed by the executor's operator context
managers — plus free functions the deep layers call unconditionally.

When no ledger is active (the default), every charge function is a single
``getattr`` returning ``None`` — the same always-on/free-when-off
discipline as :mod:`repro.obs.trace`.  A block runs entirely on one
scheduler thread, so a thread-local entry attributes every deep charge to
the operator that is open on that thread; per-block ledgers are merged by
the executor afterwards, which is what makes the accounting correct under
``query_parallelism > 1``.
"""

from __future__ import annotations

import threading
from typing import Any, Optional, Tuple

#: (ledger, operator stats) — duck-typed so this module imports nothing.
Entry = Tuple[Any, Any]

_local = threading.local()


def current_entry() -> Optional[Entry]:
    """The active (ledger, operator) of this thread, or None."""
    return getattr(_local, "entry", None)


def set_entry(entry: Optional[Entry]) -> Optional[Entry]:
    """Install *entry* for this thread; returns the previous entry."""
    previous = getattr(_local, "entry", None)
    _local.entry = entry
    return previous


def charge_read(nbytes: int, reads: int = 1) -> None:
    """A ranged store read of *nbytes* (StoreBlobSource.read)."""
    entry = getattr(_local, "entry", None)
    if entry is not None:
        entry[0].charge_read(entry[1], nbytes, reads)


def charge_capsule_fetch(nbytes: int) -> None:
    """A capsule payload materialized (lazy fetch or batched prefetch)."""
    entry = getattr(_local, "entry", None)
    if entry is not None:
        entry[0].charge_capsule_fetch(entry[1], nbytes)


def charge_decompress(nbytes: int) -> None:
    """A capsule payload inflated to *nbytes* plain bytes."""
    entry = getattr(_local, "entry", None)
    if entry is not None:
        entry[0].charge_decompress(entry[1], nbytes)


def charge_rows_scanned(rows: int) -> None:
    """*rows* capsule rows covered by a scan kernel."""
    entry = getattr(_local, "entry", None)
    if entry is not None:
        entry[0].charge_rows_scanned(entry[1], rows)


def charge_decoded_values(count: int) -> None:
    """*count* capsule values decoded (value-cache loads, row fetches)."""
    entry = getattr(_local, "entry", None)
    if entry is not None:
        entry[0].charge_decoded_values(count)


def charge_cache(kind: str, hit: bool) -> None:
    """One lookup of the ``query``/``value``/``box`` cache."""
    entry = getattr(_local, "entry", None)
    if entry is not None:
        entry[0].charge_cache(kind, hit)
