"""An S3-like remote archive store: ranged GETs over a simulated network.

Cloud log archives live in object storage, where every request pays a
round trip and may transiently fail.  :class:`RemoteStore` wraps any
:class:`~repro.blockstore.store.ArchiveStore` (an in-memory one by
default) behind a per-request gate that injects configurable latency,
jitter and failures — so the whole lazy-I/O stack (`BlobSource`, box TOC
reads, coalesced capsule prefetch) runs unchanged against "remote"
storage, and the cluster's hedging/retry machinery has something real to
mitigate.

The injected schedule is deterministic per (profile, seed): failures come
from a seeded RNG (or the ``fail_first`` counter for exactly-N
deterministic faults), so tests can script a fault pattern and benchmarks
can replay one.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import List, Optional

from ..common.errors import ReproError
from ..obs.metrics import get_registry
from .store import ArchiveStore, MemoryStore

_REMOTE_REQUESTS = get_registry().counter(
    "loggrep_remote_requests_total", "Simulated remote-store requests, by op"
)
_REMOTE_FAILURES = get_registry().counter(
    "loggrep_remote_failures_injected_total",
    "Remote-store requests failed by fault injection",
)
_REMOTE_SLEEP_SECONDS = get_registry().counter(
    "loggrep_remote_sleep_seconds_total",
    "Simulated network latency injected by remote stores",
)


class RemoteStoreError(ReproError):
    """A simulated-remote request failed transiently (retryable)."""


@dataclass
class FaultProfile:
    """Per-request behavior of one simulated remote store.

    * ``latency_s`` — fixed round-trip latency added to every request;
    * ``jitter_s`` — uniform extra latency in ``[0, jitter_s)``;
    * ``failure_rate`` — probability a request raises
      :class:`RemoteStoreError` (after its latency — the bytes were "in
      flight" when the connection died);
    * ``fail_first`` — fail exactly the first N requests, then heal:
      deterministic fault scripting for tests;
    * ``seed`` — RNG seed; same profile + seed → same jitter/failure
      schedule.
    """

    latency_s: float = 0.0
    jitter_s: float = 0.0
    failure_rate: float = 0.0
    fail_first: int = 0
    seed: int = 0


class RemoteStore(ArchiveStore):
    """A fault-injecting ArchiveStore proxy over an inner store.

    Every data-path operation (`get`, `get_range`, `put`, `size`,
    `delete` and the aux-blob ops) is one simulated request; pure-local
    bookkeeping (`names`, `exists`, `total_bytes`) is free, matching how
    an object-store client would cache its listing.
    """

    def __init__(
        self,
        inner: Optional[ArchiveStore] = None,
        profile: Optional[FaultProfile] = None,
    ):  # pylint: disable=super-init-not-called
        self.inner = inner if inner is not None else MemoryStore()
        self.profile = profile or FaultProfile()
        self.root = f"remote({self.inner.root})"
        self._rng = random.Random(self.profile.seed)
        self._lock = threading.Lock()
        self.requests = 0
        self.failures_injected = 0

    def set_profile(self, profile: FaultProfile) -> None:
        """Swap the fault profile live (e.g. turn a node into a straggler
        mid-benchmark).  The RNG is reseeded so the schedule stays
        deterministic from the swap onward."""
        with self._lock:
            self.profile = profile
            self._rng = random.Random(profile.seed)

    # ------------------------------------------------------------------
    def _request(self, op: str) -> None:
        """The per-request gate: sleep the simulated round trip, then
        maybe fail.  RNG draws are serialized under the lock so the
        schedule is deterministic regardless of thread interleaving; the
        sleep itself happens outside it (concurrent requests overlap,
        like real sockets)."""
        profile = self.profile
        with self._lock:
            self.requests += 1
            delay = profile.latency_s
            if profile.jitter_s > 0.0:
                delay += self._rng.uniform(0.0, profile.jitter_s)
            if profile.fail_first > 0:
                profile.fail_first -= 1
                fail = True
            else:
                fail = (
                    profile.failure_rate > 0.0
                    and self._rng.random() < profile.failure_rate
                )
        _REMOTE_REQUESTS.inc(op=op)
        if delay > 0.0:
            _REMOTE_SLEEP_SECONDS.inc(delay)
            time.sleep(delay)
        if fail:
            with self._lock:
                self.failures_injected += 1
            _REMOTE_FAILURES.inc()
            raise RemoteStoreError(
                f"injected failure on remote {op} ({self.root})"
            )

    # ------------------------------------------------------------------
    # billable data-path requests
    # ------------------------------------------------------------------
    def put(self, name: str, data: bytes) -> None:
        self._request("put")
        self.inner.put(name, data)

    def get(self, name: str) -> bytes:
        self._request("get")
        return self.inner.get(name)

    def open_handle(self, name: str) -> Optional[int]:
        # A remote blob has no OS handle: every read stays a request.
        return None

    def get_range(
        self, name: str, offset: int, length: int, handle: Optional[int] = None
    ) -> bytes:
        self._request("get_range")
        return self.inner.get_range(name, offset, length)

    def size(self, name: str, handle: Optional[int] = None) -> int:
        self._request("size")
        return self.inner.size(name)

    def delete(self, name: str) -> None:
        self._request("delete")
        self.inner.delete(name)

    def put_aux(self, name: str, data: bytes) -> None:
        self._request("put")
        self.inner.put_aux(name, data)

    def get_aux(self, name: str) -> bytes:
        if not self.inner.aux_exists(name):
            # Absent per the cached listing: no request is made, and the
            # inner store raises its own not-found error.
            return self.inner.get_aux(name)
        self._request("get")
        return self.inner.get_aux(name)

    def delete_aux(self, name: str) -> None:
        self._request("delete")
        self.inner.delete_aux(name)

    # ------------------------------------------------------------------
    # free local bookkeeping (cached listing)
    # ------------------------------------------------------------------
    def exists(self, name: str) -> bool:
        return self.inner.exists(name)

    def aux_exists(self, name: str) -> bool:
        return self.inner.aux_exists(name)

    def names(self) -> List[str]:
        return self.inner.names()

    def total_bytes(self) -> int:
        return self.inner.total_bytes()
