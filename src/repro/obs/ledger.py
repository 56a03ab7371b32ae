"""Thread-local charge channel: the one way a query is accounted.

Every layer below the executor — blob sources, capsule payload fetches,
the byte scan kernels, :func:`~repro.query.stats.touch_capsule`, the
vector searches of the engine — charges what it did through the free
functions of this module and nothing else.  The module is a leaf with no
intra-package imports, holding one thread-local *entry*: the triple
``(ledger, operator stats, query stats)`` installed by the executor's
operator scopes (or by :func:`~repro.query.stats.collect`).  Either end
may be ``None``: the ledger when ANALYZE mode, a slow-query threshold or
a budget did not activate it, the :class:`QueryStats` when the open
operator is work no plan owns (a batch's planning, pruning and LoadBox).

The :class:`QueryStats` of a result is therefore the sum of what this
channel charged to that plan, and an active ledger is charged by the
very same calls, so the two agree by construction.  Charges are made
per Match, Capsule, read or scan call — never per row.

Outside any scope (the default), every charge function is a single
attribute read returning ``None`` — the same always-on/free-when-off
discipline as :mod:`repro.obs.trace`.  A block runs entirely on one
scheduler thread, so a thread-local entry attributes every deep charge to
the operator and plan open on that thread; per-block ledgers and stats
are merged by the executor afterwards, which is what makes the
accounting correct under ``query_parallelism > 1``.
"""

from __future__ import annotations

import threading
from typing import Any, List, Optional, Tuple

#: (ledger, operator stats, query stats) — duck-typed so this module
#: imports nothing; the ledger and the query stats may each be None.
Entry = Tuple[Any, Any, Any]

class _Local(threading.local):
    """This thread's entry and read log; both None on a fresh thread."""

    entry: Optional[Entry] = None
    reads: Optional[List[int]] = None


_local = _Local()


def current_entry() -> Optional[Entry]:
    """The active (ledger, operator, stats) of this thread, or None."""
    return _local.entry


def set_entry(entry: Optional[Entry]) -> Optional[Entry]:
    """Install *entry* for this thread; returns the previous entry."""
    previous = _local.entry
    _local.entry = entry
    return previous


def charge_read(nbytes: int, reads: int = 1) -> None:
    """A ranged store read of *nbytes* (StoreBlobSource.read)."""
    entry = _local.entry
    if entry is not None and entry[0] is not None:
        entry[0].charge_read(entry[1], nbytes, reads)


def charge_capsule_fetch(nbytes: int) -> None:
    """A capsule payload materialized (lazy fetch or batched prefetch)."""
    entry = _local.entry
    if entry is not None and entry[0] is not None:
        entry[0].charge_capsule_fetch(entry[1], nbytes)


def charge_decompress(nbytes: int) -> None:
    """A capsule payload inflated to *nbytes* plain bytes."""
    entry = _local.entry
    if entry is None:
        return
    ledger, op, stats = entry
    if stats is not None:
        stats.capsules_decompressed += 1
        stats.bytes_decompressed += nbytes
    if ledger is not None:
        ledger.charge_decompress(op, nbytes)


def charge_rows_scanned(rows: int) -> None:
    """*rows* capsule rows covered by a scan kernel."""
    entry = _local.entry
    if entry is not None and entry[0] is not None:
        entry[0].charge_rows_scanned(entry[1], rows)


def charge_decoded_values(count: int) -> None:
    """*count* capsule cells taken for decoding (a reader's row cells, a
    nominal vector's dictionary)."""
    entry = _local.entry
    if entry is not None and entry[0] is not None:
        entry[0].charge_decoded_values(count)


def charge_vectors_built(count: int) -> None:
    """*count* vector records of an opened box built into their objects."""
    entry = _local.entry
    if entry is not None and entry[0] is not None:
        entry[0].charge_vectors_built(count)


def charge_cache(kind: str, hit: bool) -> None:
    """One lookup of the ``query`` cache."""
    entry = _local.entry
    if entry is not None and entry[0] is not None:
        entry[0].charge_cache(kind, hit)


def charge_locate(candidates: int, fallback: bool) -> None:
    """One Locator answer: *candidates* evaluated, or — when the Locator
    gave up (``TOO_COMPLEX``) — one fallback scan."""
    entry = _local.entry
    if entry is not None and entry[2] is not None:
        stats = entry[2]
        stats.candidates_evaluated += candidates
        stats.fallback_scans += fallback


# ----------------------------------------------------------------------
# Capsule decisions
# ----------------------------------------------------------------------
def record_reads(reads: Optional[List[int]]) -> Optional[List[int]]:
    """Install *reads* as this thread's read log (None stops recording)
    and return the previous one.  While a log is installed, every Capsule
    a search uses is appended to it (:func:`note_read`)."""
    previous = _local.reads
    _local.reads = reads
    return previous


def note_read(capsule: object) -> None:
    """*capsule*'s contents were used, inflated now or earlier."""
    reads = _local.reads
    if reads is not None:
        reads.append(id(capsule))


def charge_decisions(considered: int, filtered: int) -> None:
    """Capsules the vector searches of one Match considered, and those of
    them they filtered — proven irrelevant without being read."""
    entry = _local.entry
    if entry is not None and entry[2] is not None:
        stats = entry[2]
        stats.capsules_considered += considered
        stats.capsules_filtered += filtered
