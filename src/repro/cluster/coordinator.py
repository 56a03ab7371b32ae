"""The cluster coordinator: distributed compress and scatter/gather query.

``ClusterLogGrep`` is the distributed analogue of
:class:`~repro.core.loggrep.LogGrep` (the paper's §8 future work):

* **ingest** — raw lines are split into blocks; each block's *primary*
  node (rendezvous hashing) compresses it locally and the coordinator
  fans the archive bytes *and prune summary* out to the remaining
  replicas.  Blocks compress in parallel across nodes.
* **query** — an ordinary :meth:`QueryExecutor.run_plans` run whose
  per-block step is remote: each block pass is one ``query_block`` RPC
  to a replica, driven by the
  :class:`~repro.cluster.scatter.ScatterGather` state machine
  (per-shard deadlines, retry-with-backoff across replicas, hedged
  reads after a latency percentile), and the executor's own fold
  merges the returned passes.  Gathers ship **partials**, never raw
  lines: counts, commutative ``AggregatePartial``s, or per-group
  row-set bitmaps whose reconstruction is deferred to a final bounded
  fetch of exactly the kept rows — so gather bytes scale with matches,
  not corpus.
* **membership** — rendezvous placement is recomputed on node
  join/leave; :meth:`rebalance` moves only the replicas whose best nodes
  changed, and :meth:`repair` re-replicates after a crash.
* **failures** — a dead replica is skipped; a slow one is hedged or
  timed out; a query only fails once some block exhausts its replica
  attempt budget.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..blockstore.block import block_name, split_lines
from ..blockstore.index import BlockSummary
from ..blockstore.remote import FaultProfile, RemoteStore
from ..blockstore.store import ArchiveStore, MemoryStore
from ..common.errors import ReproError
from ..core.config import LogGrepConfig
from ..core.loggrep import AggregateResult, AggregateShortcuts, GrepResult
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..query.aggregate import AggregateSpec
from ..query.executor import (
    BlockPass,
    Entry,
    ExecutionResult,
    QueryExecutor,
    StoreBoxSource,
)
from ..query.plan import OutputMode, QueryPlan, build_aggregate_plan, build_plan
from .node import WorkerNode
from .placement import replica_nodes
from .scatter import (
    ScatterConfig,
    ScatterGather,
    ShardError,
    ShardOutcome,
    ShardReport,
)

logger = logging.getLogger(__name__)

_CLUSTER_REBALANCE_MOVES = get_registry().counter(
    "loggrep_cluster_rebalance_moves_total",
    "Replica copies created or dropped by rebalancing",
)


class ClusterError(ReproError):
    """The cluster cannot satisfy a request (e.g. all replicas down)."""


@dataclass
class ClusterStats:
    """A snapshot of cluster health and balance."""

    nodes: int
    alive_nodes: int
    blocks: int
    replication: int
    blocks_per_node: Dict[str, int] = field(default_factory=dict)
    bytes_per_node: Dict[str, int] = field(default_factory=dict)


@dataclass
class ClusterQueryReport:
    """Per-shard roll-up of one distributed query (the cluster ANALYZE)."""

    command: str
    mode: str
    shards: List[ShardReport] = field(default_factory=list)
    elapsed_ms: float = 0.0

    @property
    def wire_bytes(self) -> int:
        return sum(shard.wire_bytes for shard in self.shards)

    @property
    def hedges(self) -> int:
        return sum(1 for shard in self.shards if shard.hedged)

    @property
    def retries(self) -> int:
        return sum(shard.retries for shard in self.shards)

    def render(self) -> str:
        """The per-shard table plus gather totals, ANALYZE-style."""
        header = (
            f"cluster query {self.command!r} (mode={self.mode}): "
            f"{len(self.shards)} shard(s), {self.wire_bytes} gather byte(s), "
            f"{self.hedges} hedged, {self.retries} retrie(s), "
            f"{self.elapsed_ms:.1f} ms"
        )
        rows = [
            ("block", "phase", "node", "att", "rty", "t/o", "hedge", "ms",
             "wire B"),
        ] + [
            (
                shard.block, shard.phase, shard.node, str(shard.attempts),
                str(shard.retries), str(shard.timeouts),
                ("won" if shard.hedge_won else "lost") if shard.hedged else "-",
                f"{shard.elapsed_ms:.1f}", str(shard.wire_bytes),
            )
            for shard in self.shards
        ]
        widths = [max(len(cell) for cell in column) for column in zip(*rows)]
        return "\n".join(
            [header]
            + [
                "  " + "  ".join(c.ljust(w) for c, w in zip(row, widths))
                for row in rows
            ]
        )


class _PlacementSource(StoreBoxSource):
    """The cluster's blocks as the executor sees them: the placement's
    names and no store at all — every block pass runs on a replica."""

    def __init__(self, placement: Dict[str, List[str]]):
        super().__init__(store=None)
        self._placement = placement

    def names(self) -> List[str]:
        return sorted(self._placement)


class _ReplicaExecutor(QueryExecutor):
    """``run_plans`` over the cluster: only the per-block step is remote.

    Each block pass is one ``query_block`` RPC to a replica, so pruning,
    LoadBox and Locate run where the block lives; the executor's block
    pool bounds the fan-out and its fold merges the returned passes
    exactly as it merges local ones.
    """

    def __init__(self, cluster: "ClusterLogGrep", report: ClusterQueryReport):
        super().__init__(
            _PlacementSource(cluster._placement),
            dataclasses.replace(
                cluster.config,
                query_parallelism=cluster.scatter_config.fanout_concurrency,
            ),
        )
        self._cluster = cluster
        self._report = report

    def execute_block(  # type: ignore[override]
        self, name: str, plans: Sequence[QueryPlan], *_accounting: object
    ) -> BlockPass:
        # The replica runs a bare pass: it accounts for itself.
        outcome = self._cluster._rpc(
            name,
            list(self._cluster._placement[name]),
            self._report.mode,
            lambda node: node.query_block(name, plans),
        )
        self._report.shards.append(outcome.report)
        return outcome.response


class ClusterLogGrep(AggregateShortcuts):
    """A small LogGrep cluster with replicated block placement."""

    def __init__(
        self,
        num_nodes: int = 4,
        replication: int = 2,
        config: Optional[LogGrepConfig] = None,
        scatter: Optional[ScatterConfig] = None,
        remote_profile: Optional[FaultProfile] = None,
    ):
        if num_nodes <= 0:
            raise ValueError("a cluster needs at least one node")
        if replication > num_nodes:
            raise ValueError("replication factor cannot exceed the node count")
        self.config = config or LogGrepConfig()
        self.replication = replication
        self.scatter_config = scatter or ScatterConfig(
            fanout_concurrency=max(2, num_nodes)
        )
        #: When set, every node's store is a fault-injecting RemoteStore
        #: (distinct deterministic seed per node).
        self._remote_profile = remote_profile
        self._stores_created = 0
        self.nodes: Dict[str, WorkerNode] = {}
        for i in range(num_nodes):
            self._create_node(f"node-{i}")
        self._placement: Dict[str, List[str]] = {}  # block name → replica ids
        self._next_block_id = 0
        self._next_line_id = 0
        self.raw_bytes = 0
        self._engine = ScatterGather(self.scatter_config, self._node_alive)
        self._pool = ThreadPoolExecutor(max_workers=max(2, num_nodes))
        #: Per-shard roll-up of the most recent query (also returned in
        #: ``result.report`` when ``analyze=True``).
        self.last_report: Optional[ClusterQueryReport] = None

    # ------------------------------------------------------------------
    def _make_store(self) -> ArchiveStore:
        if self._remote_profile is None:
            return MemoryStore()
        profile = dataclasses.replace(
            self._remote_profile,
            seed=self._remote_profile.seed + 9973 * self._stores_created,
        )
        return RemoteStore(MemoryStore(), profile)

    def _create_node(self, node_id: str) -> WorkerNode:
        node = WorkerNode(node_id, self.config, store=self._make_store())
        self._stores_created += 1
        self.nodes[node_id] = node
        return node

    def node(self, node_id: str) -> WorkerNode:
        return self.nodes[node_id]

    def _node_alive(self, node_id: str) -> bool:
        node = self.nodes.get(node_id)
        return node is not None and node.alive

    def _alive_ids(self) -> List[str]:
        return [nid for nid, node in self.nodes.items() if node.alive]

    def set_straggler(self, node_id: str, latency_s: float) -> None:
        """Give one node a fixed per-RPC service latency (fault drill)."""
        self.nodes[node_id].rpc_latency_s = latency_s

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def compress(self, lines: Sequence[str]) -> None:
        """Distribute and compress *lines* across the cluster."""
        blocks = []
        for block in split_lines(lines, self.config.block_bytes):
            block.block_id = self._next_block_id
            block.first_line_id = self._next_line_id
            self._next_block_id += 1
            self._next_line_id += block.num_lines
            self.raw_bytes += block.raw_bytes
            blocks.append(block)

        tracer = get_tracer()
        with tracer.span("cluster.compress", blocks=len(blocks)) as cspan:
            def ingest_one(block) -> None:
                name = block_name(block.block_id)
                replicas = replica_nodes(name, self._alive_ids(), self.replication)
                if not replicas:
                    raise ClusterError("no alive node to ingest into")
                with tracer.span(
                    "cluster.ingest_block",
                    parent=cspan,
                    block=name,
                    node=replicas[0],
                ) as ispan:
                    primary = self.nodes[replicas[0]]
                    name, data, summary = primary.compress_and_store(block)
                    for replica_id in replicas[1:]:
                        self.nodes[replica_id].store_replica(
                            name, data, summary
                        )
                    self._placement[name] = replicas
                    ispan.set("replicas", len(replicas))

            list(self._pool.map(ingest_one, blocks))

    # ------------------------------------------------------------------
    # query
    # ------------------------------------------------------------------
    def _rpc(
        self,
        name: str,
        replicas: List[str],
        phase: str,
        call: Callable[[WorkerNode], object],
        parent: object = None,
    ) -> ShardOutcome:
        """One block's RPC through the retry/hedge/deadline state machine.
        Attempts run on scatter threads, so their spans attach to
        *parent* — by default the caller's open span."""
        tracer = get_tracer()
        parent = parent or tracer.current()

        def attempt(nid: str) -> object:
            with tracer.span(
                "cluster.query_block",
                parent=parent, block=name, node=nid, phase=phase,
            ):
                return call(self.nodes[nid])

        try:
            return self._engine.run_shard(name, replicas, attempt, phase)
        except ShardError as exc:
            logger.warning("scatter failed: %s", exc)
            raise ClusterError(str(exc)) from exc

    @contextmanager
    def _query(
        self, plans: List[QueryPlan], command: str
    ) -> Iterator[Tuple[List[ExecutionResult], ClusterQueryReport]]:
        """One distributed query: a ``run_plans`` whose block step is a
        replica RPC, under one ``cluster.query`` span that also covers
        what the caller does with the results.  The per-shard report
        becomes :attr:`last_report` when the block exits."""
        start = time.perf_counter()
        report = ClusterQueryReport(command, plans[0].mode.value)
        with get_tracer().span("cluster.query", command=command):
            results, _ = _ReplicaExecutor(self, report).run_plans(plans)
            report.shards.sort(key=lambda shard: shard.block)
            yield results, report
        report.elapsed_ms = (time.perf_counter() - start) * 1000.0
        self.last_report = report

    def grep(
        self,
        command: str,
        ignore_case: bool = False,
        from_time: Optional[float] = None,
        to_time: Optional[float] = None,
        limit: Optional[int] = None,
        analyze: bool = False,
    ) -> GrepResult:
        """Distributed grep: :meth:`grep_many` of one command.  With
        ``analyze`` the per-shard delivery table lands in
        ``result.report``."""
        (result,) = self.grep_many(
            [command], ignore_case, from_time, to_time, limit
        )
        if analyze and self.last_report is not None:
            result.report = self.last_report.render()
        return result

    def grep_many(
        self,
        commands: Sequence[str],
        ignore_case: bool = False,
        from_time: Optional[float] = None,
        to_time: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> List[GrepResult]:
        """Run ROWS plans in one ``run_plans`` — replicas ship row-set
        partials — then reconstruct with a bounded fetch per plan.

        Every command is planned once and every replica receives all
        the plans in one RPC: one LoadBox per block, one prune decision
        and one Match per distinct term.  Only the blocks (and rows) the
        coordinator keeps are rendered back into lines, preferably by
        the replica that already served the block (its capsules are
        warm).  With ``limit`` the fetch stops at the block prefix
        covering the first *limit* matches (blocks partition the
        line-id space in name order), so a point lookup over a huge
        archive reconstructs a handful of blocks.
        """
        commands = list(commands)
        if not commands:
            return []
        start = time.perf_counter()
        plans = [
            build_plan(
                command, OutputMode.ROWS, ignore_case,
                from_time=from_time, to_time=to_time,
            )
            for command in commands
        ]
        out: List[GrepResult] = []
        with self._query(plans, "; ".join(commands)) as (results, report):
            for result in results:
                entries = self._fetch_entries(result, report, limit)
                out.append(
                    GrepResult(
                        [text for _, text in entries],
                        [line_id for line_id, _ in entries],
                        result.stats,
                        time.perf_counter() - start,
                    )
                )
        return out

    def _fetch_entries(
        self,
        result: ExecutionResult,
        report: ClusterQueryReport,
        limit: Optional[int],
    ) -> List[Entry]:
        """The bounded fetch: reconstruct only kept blocks/rows.

        ``result.rowsets`` is in block-name order and blocks partition
        the line-id space in that order, so a ``limit`` is covered by
        the minimal prefix of matching blocks whose counts reach it.
        """
        kept: List[str] = []
        covered = 0
        for name, rows in result.rowsets.items():
            hits = sum(len(group_rows) for group_rows in rows.values())
            if not hits:
                continue
            kept.append(name)
            covered += hits
            if limit is not None and covered >= limit:
                break
        served = {shard.block: shard.node for shard in report.shards}
        parent = get_tracer().current()

        def fetch(name: str) -> ShardOutcome:
            # Prefer the replica that last served the block (the locate,
            # or an earlier plan's fetch): its box and capsules are warm.
            replicas = [served[name]] + [
                nid for nid in self._placement[name] if nid != served[name]
            ]
            return self._rpc(
                name, replicas, OutputMode.LINES.value,
                lambda node: node.reconstruct_rows(name, result.rowsets[name]),
                parent,
            )

        entries: List[Entry] = []
        for outcome in self._pool.map(fetch, kept):
            block_entries, stats = outcome.response
            result.stats.merge(stats)
            entries.extend(block_entries)
            report.shards.append(outcome.report)
        entries.sort(key=lambda item: item[0])
        return entries if limit is None else entries[:limit]

    def count(
        self,
        command: str,
        ignore_case: bool = False,
        from_time: Optional[float] = None,
        to_time: Optional[float] = None,
    ) -> int:
        """Distributed count: the same run with reconstruction elided;
        replicas ship their counts."""
        plan = build_plan(
            command, OutputMode.COUNT, ignore_case,
            from_time=from_time, to_time=to_time,
        )
        with self._query([plan], command) as ((result,), _):
            return result.count

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def aggregate(
        self,
        spec: AggregateSpec,
        where: Optional[str] = None,
        ignore_case: bool = False,
        from_time: Optional[float] = None,
        to_time: Optional[float] = None,
        analyze: bool = False,
    ) -> AggregateResult:
        """Distributed aggregate: :meth:`aggregate_many` of one spec.
        With ``analyze`` the per-shard delivery table lands in
        ``result.report``."""
        (result,) = self.aggregate_many(
            [(spec, where)], ignore_case, from_time, to_time
        )
        if analyze and self.last_report is not None:
            result.report = self.last_report.render()
        return result

    def aggregate_many(
        self,
        specs: Sequence[Tuple[AggregateSpec, Optional[str]]],
        ignore_case: bool = False,
        from_time: Optional[float] = None,
        to_time: Optional[float] = None,
    ) -> List[AggregateResult]:
        """Run many ``(spec, where)`` aggregates in one ``run_plans``.

        Each serving replica folds every plan over one block open and
        ships compact partials (Counters / stats multisets / histograms)
        instead of reconstructed lines; the executor merges them, and
        partial merging is commutative, so each value is identical to a
        single-node run over the same lines.
        """
        specs = list(specs)
        if not specs:
            return []
        plans = [
            build_aggregate_plan(
                spec, where, ignore_case=ignore_case,
                from_time=from_time, to_time=to_time,
            )
            for spec, where in specs
        ]
        command = "; ".join(where or "<all>" for _, where in specs)
        with self._query(plans, command) as (results, _):
            return [
                AggregateResult(
                    result.aggregate.finalize(spec),
                    result.count,
                    result.stats,
                    result.elapsed,
                )
                for (spec, _), result in zip(specs, results)
            ]

    def total_lines(self) -> int:
        """The coordinator assigned every global line id at ingest, so its
        ``_next_line_id`` is the archive's logical-clock extent."""
        return self._next_line_id

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add_node(
        self, node_id: Optional[str] = None, rebalance: bool = True
    ) -> str:
        """Join a fresh node; by default rebalancing moves it its share
        of replicas (rendezvous hashing only relocates blocks that now
        score the new node highest)."""
        if node_id is None:
            i = len(self.nodes)
            while f"node-{i}" in self.nodes:
                i += 1
            node_id = f"node-{i}"
        if node_id in self.nodes:
            raise ValueError(f"node {node_id} already exists")
        self._create_node(node_id)
        if rebalance:
            self.rebalance()
        return node_id

    def remove_node(self, node_id: str) -> int:
        """Decommission a node: drain its replicas to the survivors, drop
        it from membership.  Returns the replica copies created.

        The node may be dead — any surviving holder serves as the copy
        source; a block whose only copies sat on the leaving node (and on
        dead peers) raises :class:`ClusterError` before anything is
        dropped.
        """
        if node_id not in self.nodes:
            raise KeyError(f"no node {node_id}")
        survivors = [nid for nid in self._alive_ids() if nid != node_id]
        if len(survivors) < self.replication:
            raise ValueError(
                "removing the node would drop below the replication factor"
            )
        leaving = self.nodes[node_id]
        planned: Dict[str, List[str]] = {}
        sources: Dict[str, str] = {}
        for name in sorted(self._placement):
            desired = replica_nodes(name, survivors, self.replication)
            holders = [
                nid
                for nid in self._placement[name]
                if nid != node_id
                and self.nodes[nid].alive
                and self.nodes[nid].has_block(name)
            ]
            source = holders[0] if holders else (
                node_id
                if leaving.alive and leaving.has_block(name)
                else None
            )
            if source is None and any(
                target not in holders for target in desired
            ):
                raise ClusterError(
                    f"block {name} would become unreachable removing {node_id}"
                )
            planned[name] = desired
            if source is not None:
                sources[name] = source
        created = 0
        for name, desired in planned.items():
            for target in desired:
                if not self.nodes[target].has_block(name):
                    data, summary = self.nodes[sources[name]].fetch_block(name)
                    self.nodes[target].store_replica(name, data, summary)
                    created += 1
                    _CLUSTER_REBALANCE_MOVES.inc()
            self._placement[name] = desired
        del self.nodes[node_id]
        logger.info(
            "removed %s: %d replica copies drained", node_id, created
        )
        return created

    def rebalance(self) -> int:
        """Recompute rendezvous placement over the current alive
        membership and move replicas to match.  Returns copies + drops.

        Blocks with no reachable holder are left alone (their placement
        entry survives so a recovered holder restores service).
        """
        moves = 0
        alive = self._alive_ids()
        for name in sorted(self._placement):
            desired = replica_nodes(name, alive, self.replication)
            holders = [
                nid
                for nid, node in self.nodes.items()
                if node.alive and node.has_block(name)
            ]
            if not holders:
                continue  # unreachable until a holder recovers
            data: Optional[bytes] = None
            summary: Optional[BlockSummary] = None
            for target in desired:
                if target in holders:
                    continue
                if data is None:
                    data, summary = self.nodes[holders[0]].fetch_block(name)
                self.nodes[target].store_replica(name, data, summary)
                moves += 1
                _CLUSTER_REBALANCE_MOVES.inc()
            for holder in holders:
                if holder not in desired:
                    self.nodes[holder].drop_block(name)
                    moves += 1
                    _CLUSTER_REBALANCE_MOVES.inc()
            self._placement[name] = desired
        if moves:
            logger.info("rebalance moved %d replica copies", moves)
        return moves

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def repair(self) -> int:
        """Re-replicate under-replicated blocks onto alive nodes.

        Returns the number of replica copies created.  Run after a node is
        declared permanently lost.
        """
        created = 0
        alive = self._alive_ids()
        for name, replicas in self._placement.items():
            holders = [
                nid
                for nid in replicas
                if self.nodes[nid].alive and self.nodes[nid].has_block(name)
            ]
            if not holders:
                continue  # data unreachable until a holder recovers
            missing = self.replication - len(holders)
            if missing <= 0:
                continue
            data, summary = self.nodes[holders[0]].fetch_block(name)
            for candidate in replica_nodes(name, alive, len(alive)):
                if missing == 0:
                    break
                if candidate in holders:
                    continue
                self.nodes[candidate].store_replica(name, data, summary)
                holders.append(candidate)
                created += 1
                missing -= 1
            self._placement[name] = holders
        if created:
            logger.info("repair created %d replica copies", created)
        return created

    def stats(self) -> ClusterStats:
        return ClusterStats(
            nodes=len(self.nodes),
            alive_nodes=len(self._alive_ids()),
            blocks=len(self._placement),
            replication=self.replication,
            blocks_per_node={
                nid: len(node.block_names()) for nid, node in self.nodes.items()
            },
            bytes_per_node={
                nid: node.storage_bytes() for nid, node in self.nodes.items()
            },
        )

    def storage_bytes(self) -> int:
        """Total bytes across all replicas (what a cluster actually pays)."""
        return sum(node.storage_bytes() for node in self.nodes.values())

    def close(self) -> None:
        self._engine.close()
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ClusterLogGrep":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
