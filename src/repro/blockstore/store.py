"""Filesystem archive store.

Every system in this repo (LogGrep, LogGrep-SP, CLP, mini-ES, gzip+grep)
persists one opaque byte blob per compressed log block.  The store measures
exactly what the cost model charges for: total stored bytes.

Beyond whole-blob ``get``, the store serves **byte ranges**
(:meth:`ArchiveStore.get_range`) so the query path can fetch a box header,
its Bloom section or a single capsule payload without paying for the rest
of the block — cloud storage charges per byte read, and ranged GETs are
how that charge is kept proportional to query selectivity.

**Auxiliary blobs** (:meth:`put_aux` / :meth:`get_aux`) hold derived
sidecar data — currently the per-archive prune index.  They live next to
the blocks as dot-prefixed files but are *not* part of the block
namespace: ``names()``, ``items()`` and ``total_bytes()`` ignore them, so
block counting and the cost model's stored-bytes measure are unaffected,
and deleting them only costs a rebuild.

An in-memory variant is provided for tests and benchmarks that should not
touch the disk.
"""

from __future__ import annotations

import os
from typing import Dict, Iterator, List

from ..common.errors import FormatError
from ..obs.metrics import get_registry

_READS = get_registry().counter(
    "loggrep_store_reads_total", "Blob reads from the archive store"
)
_READ_BYTES = get_registry().counter(
    "loggrep_store_read_bytes_total", "Bytes read from the archive store"
)
_WRITES = get_registry().counter(
    "loggrep_store_writes_total", "Blob writes to the archive store"
)
_WRITE_BYTES = get_registry().counter(
    "loggrep_store_write_bytes_total", "Bytes written to the archive store"
)
_RANGE_READS = get_registry().counter(
    "loggrep_store_range_reads_total", "Ranged blob reads from the archive store"
)
_RANGE_READ_BYTES = get_registry().counter(
    "loggrep_store_range_read_bytes_total",
    "Bytes read through ranged reads (also counted in read_bytes)",
)


class ArchiveStore:
    """Named blob storage rooted at a directory."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, name: str) -> str:
        if os.sep in name or name.startswith("."):
            raise ValueError(f"invalid archive name {name!r}")
        return os.path.join(self.root, name)

    def _aux_path(self, name: str) -> str:
        # Aux blobs reuse the block-name validation, then hide behind a
        # leading dot so names()/total_bytes() never see them.
        return os.path.join(self.root, "." + os.path.basename(self._path(name)))

    def put(self, name: str, data: bytes) -> None:
        _WRITES.inc()
        _WRITE_BYTES.inc(len(data))
        with open(self._path(name), "wb") as fh:
            fh.write(data)

    def get(self, name: str) -> bytes:
        _READS.inc()
        with open(self._path(name), "rb") as fh:
            data = fh.read()
        _READ_BYTES.inc(len(data))
        return data

    def get_range(self, name: str, offset: int, length: int) -> bytes:
        """Exactly *length* bytes of blob *name* starting at *offset*.

        Short reads (offset/length past the end of the blob) raise
        :class:`FormatError`: a ranged reader asking for bytes that do not
        exist is either a corrupt TOC or a truncated blob, and both must
        surface rather than yield a silent partial payload.
        """
        if offset < 0 or length < 0:
            raise ValueError(f"invalid range [{offset}, +{length})")
        _RANGE_READS.inc()
        with open(self._path(name), "rb") as fh:
            fh.seek(offset)
            data = fh.read(length)
        if len(data) != length:
            raise FormatError(
                f"{name}: range [{offset}, +{length}) past end of blob"
            )
        _RANGE_READ_BYTES.inc(length)
        _READ_BYTES.inc(length)
        return data

    def size(self, name: str) -> int:
        """Stored size of one blob in bytes (no read charged)."""
        return os.path.getsize(self._path(name))

    def exists(self, name: str) -> bool:
        return os.path.exists(self._path(name))

    def names(self) -> List[str]:
        return sorted(n for n in os.listdir(self.root) if not n.startswith("."))

    def items(self) -> Iterator[tuple]:
        for name in self.names():
            yield name, self.get(name)

    def total_bytes(self) -> int:
        return sum(
            os.path.getsize(os.path.join(self.root, name)) for name in self.names()
        )

    def delete(self, name: str) -> None:
        os.remove(self._path(name))

    # ------------------------------------------------------------------
    # auxiliary (sidecar) blobs — derived data, outside the block namespace
    # ------------------------------------------------------------------
    def put_aux(self, name: str, data: bytes) -> None:
        with open(self._aux_path(name), "wb") as fh:
            fh.write(data)

    def get_aux(self, name: str) -> bytes:
        with open(self._aux_path(name), "rb") as fh:
            return fh.read()

    def aux_exists(self, name: str) -> bool:
        return os.path.exists(self._aux_path(name))

    def delete_aux(self, name: str) -> None:
        os.remove(self._aux_path(name))


class MemoryStore(ArchiveStore):
    """Drop-in ArchiveStore that keeps blobs in a dict."""

    def __init__(self):  # pylint: disable=super-init-not-called
        self._blobs: Dict[str, bytes] = {}
        self._aux: Dict[str, bytes] = {}
        self.root = "<memory>"

    def put(self, name: str, data: bytes) -> None:
        _WRITES.inc()
        _WRITE_BYTES.inc(len(data))
        self._blobs[name] = bytes(data)

    def get(self, name: str) -> bytes:
        data = self._blobs[name]
        _READS.inc()
        _READ_BYTES.inc(len(data))
        return data

    def get_range(self, name: str, offset: int, length: int) -> bytes:
        if offset < 0 or length < 0:
            raise ValueError(f"invalid range [{offset}, +{length})")
        blob = self._blobs[name]
        _RANGE_READS.inc()
        if offset + length > len(blob):
            raise FormatError(
                f"{name}: range [{offset}, +{length}) past end of blob"
            )
        _RANGE_READ_BYTES.inc(length)
        _READ_BYTES.inc(length)
        return blob[offset : offset + length]

    def size(self, name: str) -> int:
        return len(self._blobs[name])

    def exists(self, name: str) -> bool:
        return name in self._blobs

    def names(self) -> List[str]:
        return sorted(self._blobs)

    def total_bytes(self) -> int:
        return sum(len(blob) for blob in self._blobs.values())

    def delete(self, name: str) -> None:
        del self._blobs[name]

    def put_aux(self, name: str, data: bytes) -> None:
        self._aux[name] = bytes(data)

    def get_aux(self, name: str) -> bytes:
        return self._aux[name]

    def aux_exists(self, name: str) -> bool:
        return name in self._aux

    def delete_aux(self, name: str) -> None:
        del self._aux[name]
