"""Worker nodes: per-node block storage and query execution.

A worker owns the CapsuleBoxes placed on it and can execute both halves of
the distributed protocol locally: compress a raw block into a CapsuleBox,
and run a shipped plan over one of its blocks.  Each node keeps its own
prune-index summaries (shipped with replicas at ingest), so mask *and*
time pruning cost zero reads against its store — which may be a
fault-injecting :class:`~repro.blockstore.remote.RemoteStore`.

Failure modes the coordinator must survive are all simulated here:

* a dead node (``fail()``) raises :class:`NodeDownError` on any RPC;
* a **straggler** (``rpc_latency_s``) sleeps before serving, holding its
  single service slot — hedged reads route around it;
* a remote store may inject per-request latency/failures underneath the
  executor's ranged reads.

Every RPC funnels through :meth:`_serve`, which models a one-core worker:
a per-node semaphore serializes service, so scattering over more nodes
genuinely adds capacity (the property the shard-count benchmark measures).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Tuple

from ..blockstore.block import LogBlock, block_name
from ..blockstore.index import ArchiveIndex, BlockSummary
from ..blockstore.store import ArchiveStore, MemoryStore
from ..common.errors import ReproError
from ..core.compressor import encode_parsed, parse_block
from ..core.config import LogGrepConfig
from ..obs.metrics import get_registry
from ..query.engine import GroupRows
from ..query.executor import BlockPass, Entry, QueryExecutor, StoreBoxSource
from ..query.plan import QueryPlan
from ..query.stats import QueryStats, collect

_NODE_QUERIES = get_registry().counter(
    "loggrep_cluster_node_queries_total", "Block queries served, per node"
)
_NODE_BLOCKS = get_registry().counter(
    "loggrep_cluster_node_blocks_compressed_total", "Blocks compressed, per node"
)

#: RPCs a node serves at once: a one-core worker.
_SERVE_SLOTS = 1


class NodeDownError(ReproError):
    """The addressed worker is not reachable."""


class WorkerNode:
    """One storage/query worker of a LogGrep cluster."""

    def __init__(
        self,
        node_id: str,
        config: Optional[LogGrepConfig] = None,
        store: Optional[ArchiveStore] = None,
    ):
        self.node_id = node_id
        self.config = config or LogGrepConfig()
        self.store = store if store is not None else MemoryStore()
        self.index = ArchiveIndex()
        self.alive = True
        self.queries_served = 0
        self.blocks_compressed = 0
        #: Simulated per-RPC service latency (slept while holding a serve
        #: slot) — the straggler injection knob.
        self.rpc_latency_s = 0.0
        self._slots = threading.Semaphore(_SERVE_SLOTS)
        # Each worker runs the same physical pipeline as a single-node
        # LogGrep over its local replica store, pruning via its own
        # summaries.  Its query cache is node-local.
        self._executor = QueryExecutor(
            StoreBoxSource(self.store, index=self.index), self.config
        )

    # ------------------------------------------------------------------
    def _check_alive(self) -> None:
        if not self.alive:
            raise NodeDownError(f"node {self.node_id} is down")

    def fail(self) -> None:
        """Simulate a crash; stored data survives (disk persists)."""
        self.alive = False

    def recover(self) -> None:
        self.alive = True

    @contextmanager
    def _serve(self) -> Iterator[None]:
        """One RPC's service window: liveness check, straggler latency,
        and the node's single-core service slot.

        The straggler sleep happens *before* the slot is taken — it
        models a slow network path to the node, so concurrent delayed
        RPCs overlap instead of convoying behind one another (abandoned
        attempts must not serialize the node forever)."""
        self._check_alive()
        if self.rpc_latency_s > 0.0:
            time.sleep(self.rpc_latency_s)
        with self._slots:
            self._check_alive()
            yield

    # ------------------------------------------------------------------
    # ingest path
    # ------------------------------------------------------------------
    def compress_and_store(
        self, block: LogBlock
    ) -> Tuple[str, bytes, BlockSummary]:
        """Compress a raw block locally; returns (name, archive bytes,
        prune summary) so the coordinator can fan the replica copies —
        and their summaries — out."""
        with self._serve():
            name = block_name(block.block_id)
            parsed, _ = parse_block(block, self.config)
            box = encode_parsed(block, parsed, self.config)
            data = box.serialize()
            summary = BlockSummary.from_box(box, parsed)
            self.store.put(name, data)
            self.index.add(name, summary)
            self.blocks_compressed += 1
            _NODE_BLOCKS.inc(node=self.node_id)
            return name, data, summary

    def store_replica(
        self, name: str, data: bytes, summary: Optional[BlockSummary] = None
    ) -> None:
        with self._serve():
            self.store.put(name, data)
            if summary is not None:
                self.index.add(name, summary)

    def drop_block(self, name: str) -> None:
        """Remove a replica this node no longer owns (rebalance)."""
        with self._serve():
            if self.store.exists(name):
                self.store.delete(name)
            self.index.discard(name)

    def fetch_block(
        self, name: str
    ) -> Tuple[bytes, Optional[BlockSummary]]:
        """Read one replica back out (repair/rebalance traffic)."""
        with self._serve():
            return self.store.get(name), self.index.get(name)

    def has_block(self, name: str) -> bool:
        return self.store.exists(name)

    def block_names(self) -> List[str]:
        return self.store.names()

    def storage_bytes(self) -> int:
        return self.store.total_bytes()

    # ------------------------------------------------------------------
    # query path
    # ------------------------------------------------------------------
    def query_block(self, name: str, plans: Sequence[QueryPlan]) -> BlockPass:
        """Execute pre-built *plans* over one local block in one RPC.

        This is the executor's own block pass (BlockFilter → LoadBox →
        Locate → Match → …) over the replica, returned as is: one box
        open, one prune decision and one Match per distinct term however
        many plans ride the RPC.  ``ROWS`` plans ship row sets
        and aggregates ship partials, so gathers stay small.
        """
        with self._serve():
            self.queries_served += 1
            _NODE_QUERIES.inc(node=self.node_id)
            return self._executor.execute_block(name, plans)

    def reconstruct_rows(
        self, name: str, rows: GroupRows
    ) -> Tuple[List[Entry], QueryStats]:
        """The bounded-fetch half of a ROWS query: rebuild exactly the
        rows the coordinator kept after its gather."""
        with self._serve():
            self.queries_served += 1
            _NODE_QUERIES.inc(node=self.node_id)
            with collect() as stats:
                entries = self._executor.reconstruct_rows(name, rows)
            return entries, stats
