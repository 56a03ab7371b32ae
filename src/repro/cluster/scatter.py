"""The fan-out scheduler: bounded concurrency, deadlines, retries, hedges.

One query scatters one *shard* per block.  Each shard runs a small
state machine on the coordinator:

* launch the first attempt on the block's preferred replica;
* if the attempt has not returned after an adaptive **hedge delay** (a
  high percentile of recently observed shard latencies), launch a
  speculative second attempt on the next replica and take whichever
  returns first — the classic tail-at-scale straggler mitigation;
* an attempt that exceeds the per-shard **deadline** is abandoned (its
  thread keeps running; its result is discarded) and counts as a timeout;
* a failed or timed-out attempt is **retried with exponential backoff**
  on the next replica, round-robin, until ``max_attempts`` is spent —
  only then does the shard (and the query) fail.

:meth:`ScatterGather.run_shard` drives one shard; the caller bounds how
many run at once (a query's block pool, sized by
``fanout_concurrency``), so a thousand-block archive never launches a
thousand concurrent RPCs.  Outcomes carry per-shard accounting
(attempts, retries, hedge outcome, wire bytes) that the coordinator
rolls into its ANALYZE report.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional, Sequence

from ..blockstore.remote import RemoteStoreError
from ..common.errors import ReproError
from ..obs.metrics import get_registry
from .node import NodeDownError

_HEDGE_LAUNCHED = get_registry().counter(
    "loggrep_cluster_hedge_launched_total",
    "Speculative (hedged) replica reads launched",
)
_HEDGE_WINS = get_registry().counter(
    "loggrep_cluster_hedge_wins_total",
    "Shards where the hedged attempt returned first",
)
_HEDGE_LOSSES = get_registry().counter(
    "loggrep_cluster_hedge_losses_total",
    "Shards where the original attempt beat its hedge",
)
_RETRIES = get_registry().counter(
    "loggrep_cluster_retry_attempts_total",
    "Shard attempts retried on another replica, by reason",
)
_TIMEOUTS = get_registry().counter(
    "loggrep_cluster_shard_timeouts_total",
    "Shard attempts abandoned at the per-shard deadline",
)
_GATHER_BYTES = get_registry().counter(
    "loggrep_cluster_gather_bytes_total",
    "Serialized bytes gathered from shards, by payload kind",
)
_SHARD_SECONDS = get_registry().histogram(
    "loggrep_cluster_shard_seconds",
    "End-to-end shard latency (including retries and hedges)",
)

#: Exceptions that mean "this replica, this time" — retryable on another.
RETRYABLE = (NodeDownError, RemoteStoreError)


class ShardError(ReproError):
    """One shard exhausted its replicas/attempt budget."""

    def __init__(self, name: str, detail: str):
        super().__init__(f"shard {name}: {detail}")
        self.name = name


@dataclass
class ScatterConfig:
    """Tuning of the fan-out scheduler (all times in seconds)."""

    #: Shards in flight at once (a query's block-pool width).
    fanout_concurrency: int = 8
    #: Abandon an attempt after this long; None disables deadlines.
    shard_deadline_s: Optional[float] = 10.0
    #: Total attempt budget per shard (first try + retries + hedge).
    max_attempts: int = 4
    #: First retry backoff; doubles per retry.
    retry_backoff_s: float = 0.002
    #: Launch a speculative replica read when the first attempt outlives
    #: the observed latency percentile.
    hedge: bool = True
    hedge_percentile: float = 0.95
    #: Clamp on the adaptive hedge delay (and the cold-start default).
    hedge_min_s: float = 0.010
    hedge_max_s: float = 2.0
    #: Observations needed before the percentile is trusted.
    hedge_min_samples: int = 8


class LatencyTracker:
    """A bounded window of shard latencies with quantile lookup.

    Shared across queries so hedging warms up once per cluster, and
    thread-safe because every shard observes into it concurrently.
    """

    def __init__(self, window: int = 512):
        self._samples: Deque[float] = deque(maxlen=window)
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(seconds)

    def __len__(self) -> int:
        return len(self._samples)

    def quantile(self, q: float) -> Optional[float]:
        with self._lock:
            if not self._samples:
                return None
            ordered = sorted(self._samples)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def hedge_delay(self, config: ScatterConfig) -> float:
        """How long to give the first attempt before hedging."""
        if len(self) < config.hedge_min_samples:
            return config.hedge_min_s
        value = self.quantile(config.hedge_percentile)
        if value is None:
            return config.hedge_min_s
        return min(max(value, config.hedge_min_s), config.hedge_max_s)


@dataclass
class ShardReport:
    """Delivery accounting of one shard of one query phase."""

    block: str
    phase: str  # "rows" | "lines" | "aggregate" | "count"
    node: str
    attempts: int
    retries: int
    timeouts: int
    hedged: bool
    hedge_won: bool
    elapsed_ms: float
    wire_bytes: int


@dataclass
class ShardOutcome:
    """One shard's gathered result plus its delivery accounting."""

    #: What the winning replica's RPC returned.
    response: object
    report: ShardReport


@dataclass
class _Attempt:
    node_id: str
    started: float
    hedged: bool


class ScatterGather:
    """Runs shards against replicas with deadlines, retries, hedges."""

    def __init__(self, config: ScatterConfig, alive: Callable[[str], bool]):
        self.config = config
        #: Shared by every shard, so hedging warms up once per engine.
        self.latency = LatencyTracker()
        self._alive = alive
        # Attempts outnumber shards transiently: a hedge plus abandoned
        # stragglers still draining their simulated I/O.  Size the pool so
        # zombies do not starve fresh attempts at test/bench scale.
        self._attempts = ThreadPoolExecutor(
            max_workers=max(2, config.fanout_concurrency * 4),
            thread_name_prefix="scatter-attempt",
        )

    def close(self) -> None:
        self._attempts.shutdown(wait=True)

    # ------------------------------------------------------------------
    def run_shard(
        self,
        name: str,
        replicas: Sequence[str],
        action: Callable[[str], object],
        kind: str,
    ) -> ShardOutcome:
        """Run *action* (one RPC to block *name*, given a replica's node
        id) until some replica answers; raises :class:`ShardError` once
        the attempt budget is spent."""
        config = self.config
        start = time.perf_counter()
        candidates = [nid for nid in replicas if self._alive(nid)]
        if not candidates:
            raise ShardError(name, f"all replicas down ({list(replicas)})")
        inflight: Dict["Future[object]", _Attempt] = {}
        attempts = retries = timeouts = 0
        hedged = False
        backoff = config.retry_backoff_s
        next_replica = 0
        last_error: Optional[Exception] = None

        def launch(is_hedge: bool) -> None:
            nonlocal attempts, next_replica
            node_id = candidates[next_replica % len(candidates)]
            next_replica += 1
            attempts += 1
            future = self._attempts.submit(action, node_id)
            inflight[future] = _Attempt(node_id, time.perf_counter(), is_hedge)

        launch(is_hedge=False)
        while True:
            now = time.perf_counter()
            sole = next(iter(inflight.values())) if len(inflight) == 1 else None
            can_hedge = (
                config.hedge
                and not hedged
                and sole is not None
                and not sole.hedged
                and attempts < config.max_attempts
                and len(candidates) > 1
            )
            wake: Optional[float] = None
            if can_hedge:
                assert sole is not None
                wake = sole.started + self.latency.hedge_delay(config)
            if config.shard_deadline_s is not None and inflight:
                deadline = min(
                    attempt.started + config.shard_deadline_s
                    for attempt in inflight.values()
                )
                wake = deadline if wake is None else min(wake, deadline)
            timeout = None if wake is None else max(0.0, wake - now)
            done, _ = wait(
                set(inflight), timeout=timeout, return_when=FIRST_COMPLETED
            )
            now = time.perf_counter()
            for future in done:
                attempt = inflight.pop(future)
                try:
                    response = future.result()
                except RETRYABLE as exc:
                    last_error = exc
                    retries += 1
                    _RETRIES.inc(reason="failure")
                    continue
                # Winner: everything still inflight is abandoned (results
                # discarded — attempts are idempotent reads).
                elapsed = now - start
                self.latency.observe(now - attempt.started)
                _SHARD_SECONDS.observe(elapsed)
                if attempt.hedged:
                    _HEDGE_WINS.inc()
                elif hedged:
                    _HEDGE_LOSSES.inc()
                # What a real network gather would put on the wire: the
                # simulated RPCs pass objects in-process, so transfer
                # bytes are measured, not paid.
                bytes_on_wire = len(
                    pickle.dumps(response, protocol=pickle.HIGHEST_PROTOCOL)
                )
                _GATHER_BYTES.inc(bytes_on_wire, kind=kind)
                return ShardOutcome(
                    response,
                    ShardReport(
                        name, kind, attempt.node_id, attempts, retries,
                        timeouts, hedged, attempt.hedged, elapsed * 1000.0,
                        bytes_on_wire,
                    ),
                )
            if config.shard_deadline_s is not None:
                for future, attempt in list(inflight.items()):
                    if now - attempt.started >= config.shard_deadline_s:
                        # Threads cannot be interrupted: drop the future
                        # (cancel() only helps while still queued) and
                        # stop listening to it.
                        inflight.pop(future)
                        future.cancel()
                        timeouts += 1
                        retries += 1
                        _TIMEOUTS.inc()
                        _RETRIES.inc(reason="timeout")
            if not inflight:
                if attempts >= config.max_attempts:
                    raise ShardError(
                        name,
                        f"gave up after {attempts} attempt(s), "
                        f"{timeouts} timeout(s) on {candidates} "
                        f"(last error: {last_error})",
                    )
                time.sleep(backoff)
                backoff *= 2.0
                launch(is_hedge=False)
            elif (
                can_hedge
                and now >= sole.started + self.latency.hedge_delay(config)
                and next(iter(inflight.values())) is sole
            ):
                hedged = True
                _HEDGE_LAUNCHED.inc()
                launch(is_hedge=True)
