"""Byte-range access to stored blobs (the lazy-I/O substrate).

A :class:`BlobSource` is the one interface the capsule layer needs from
storage: ``read(offset, length)`` and ``size()``.  Two implementations
exist — :class:`BytesBlobSource` wraps an already-fetched buffer (eager
deserialization, pinned boxes, tests) and :class:`StoreBlobSource`
forwards to :meth:`ArchiveStore.get_range`, so a capsule payload is only
pulled off the store the first time somebody asks for its bytes.  A
:class:`StoreBlobSource` over an on-disk blob holds one OS handle on it
for as long as the source lives (its box, for a box's source): every
ranged read is one ``os.pread`` through it, and a finalizer closes it
when the source is dropped.

Both are *strict*: a read past the end of the blob raises
:class:`~repro.common.errors.FormatError` instead of returning a short
slice, so a truncated archive surfaces as a format error at the exact
extent that is missing, never as a garbage payload downstream.

:func:`coalesce_extents` merges sorted byte extents whose gaps are below
a threshold — the executor uses it to batch the capsule payloads a plan
actually needs into one ranged read per contiguous run.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import List, Optional, Sequence, Tuple

from ..common.errors import FormatError
from ..obs import ledger as ledger_channel

#: Serializes a source's first ``size()``, so racing threads open one
#: handle between them.
_OPEN_LOCK = threading.Lock()

#: One byte extent: (offset, length).
Extent = Tuple[int, int]


class BlobSource:
    """Random access to one stored blob's bytes."""

    name: str = "<blob>"

    def read(self, offset: int, length: int) -> bytes:
        """Exactly *length* bytes at *offset*; FormatError when impossible."""
        raise NotImplementedError

    def size(self) -> int:
        """Total size of the blob in bytes."""
        raise NotImplementedError

    @property
    def bytes_read(self) -> int:
        """Bytes fetched through this source so far (observability)."""
        return 0


class BytesBlobSource(BlobSource):
    """A BlobSource over an in-memory buffer (already paid for)."""

    def __init__(self, data: bytes, name: str = "<bytes>"):
        self._data = data
        self.name = name

    def read(self, offset: int, length: int) -> bytes:
        if offset < 0 or length < 0 or offset + length > len(self._data):
            raise FormatError(
                f"{self.name}: read [{offset}, {offset + length}) out of "
                f"range of {len(self._data)}-byte blob"
            )
        return self._data[offset : offset + length]

    def size(self) -> int:
        return len(self._data)


class StoreBlobSource(BlobSource):
    """A BlobSource issuing ranged reads against an archive store.

    The first ``size()`` (every box open starts with one) takes the
    store's handle on the blob (:meth:`ArchiveStore.open_handle`; None
    for a store without files), and every later ``size`` and ``read``
    passes it to the store.  The handle is closed when the source is
    garbage-collected, so a live box holds at most one.
    """

    def __init__(self, store: object, name: str):
        self.store = store
        self.name = name
        self._size: Optional[int] = None
        self._handle: Optional[int] = None
        self._bytes_read = 0

    def read(self, offset: int, length: int) -> bytes:
        if offset < 0 or length < 0 or offset + length > self.size():
            raise FormatError(
                f"{self.name}: read [{offset}, {offset + length}) out of "
                f"range of {self.size()}-byte blob"
            )
        handle = self._handle
        if handle is None:
            data = self.store.get_range(self.name, offset, length)  # type: ignore[attr-defined]
        else:
            data = self.store.get_range(self.name, offset, length, handle)  # type: ignore[attr-defined]
        if len(data) != length:
            raise FormatError(
                f"{self.name}: ranged read returned {len(data)} byte(s), "
                f"expected {length} (truncated blob?)"
            )
        self._bytes_read += length
        # Charged with the exact length that store.get_range adds to
        # loggrep_store_range_read_bytes_total, so an ANALYZE ledger
        # reconciles with the global metric byte for byte.
        ledger_channel.charge_read(length)
        return data

    def size(self) -> int:
        size = self._size
        if size is None:
            with _OPEN_LOCK:
                size = self._size
                if size is None:
                    size = self._size = self._open()
        return size

    def _open(self) -> int:
        """Take the store's handle on the blob; return the blob's size."""
        store = self.store
        handle = store.open_handle(self.name)  # type: ignore[attr-defined]
        if handle is None:
            return int(store.size(self.name))  # type: ignore[attr-defined]
        weakref.finalize(self, os.close, handle)
        self._handle = handle
        return int(store.size(self.name, handle))  # type: ignore[attr-defined]

    @property
    def bytes_read(self) -> int:
        return self._bytes_read


def coalesce_extents(extents: Sequence[Extent], gap: int = 0) -> List[Extent]:
    """Merge extents whose inter-extent gap is at most *gap* bytes.

    Input order does not matter; the result is sorted and disjoint.
    Over-reading the small gaps trades a few wasted bytes for one ranged
    read per run, which is the right trade everywhere a read has a fixed
    cost (disk seek, object-store request).
    """
    if not extents:
        return []
    ordered = sorted(extents)
    merged: List[Extent] = [ordered[0]]
    for offset, length in ordered[1:]:
        last_off, last_len = merged[-1]
        if offset <= last_off + last_len + gap:
            end = max(last_off + last_len, offset + length)
            merged[-1] = (last_off, end - last_off)
        else:
            merged.append((offset, length))
    return merged
