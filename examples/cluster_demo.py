"""Distributed LogGrep (§8 future work): replicated placement, parallel
scatter/gather queries, node failure and repair.

Run with::

    python examples/cluster_demo.py

Exits non-zero when a cluster answer differs from grep over the raw lines.
"""

import sys

from repro.baselines.evalutil import grep_lines
from repro.cluster import ClusterLogGrep
from repro.core.config import LogGrepConfig
from repro.workloads import spec_by_name


def main() -> int:
    spec = spec_by_name("Log H")
    lines = spec.generate(20000)

    with ClusterLogGrep(
        num_nodes=4, replication=2, config=LogGrepConfig(block_bytes=256 * 1024)
    ) as cluster:
        cluster.compress(lines)
        stats = cluster.stats()
        print(f"cluster: {stats.nodes} nodes, {stats.blocks} blocks, R={stats.replication}")
        for node_id in sorted(stats.blocks_per_node):
            print(
                f"  {node_id}: {stats.blocks_per_node[node_id]:3d} blocks, "
                f"{stats.bytes_per_node[node_id]:,} bytes"
            )

        result = cluster.grep("ERROR")
        expected = grep_lines("ERROR", lines)
        print(f"\ngrep ERROR → {result.count} hits in {result.elapsed * 1000:.1f} ms "
              f"(correct: {result.lines == expected})")

        # Kill a node mid-operation: replicas take over transparently.
        print("\nfailing node-1 ...")
        cluster.node("node-1").fail()
        survived = cluster.grep("ERROR")
        print(f"grep ERROR with node-1 down → {survived.count} hits "
              f"(correct: {survived.lines == expected})")

        # Re-replicate the under-replicated blocks onto the alive nodes.
        created = cluster.repair()
        print(f"repair created {created} replica copies")
        print(f"total storage (all replicas): {cluster.storage_bytes():,} bytes")
    return 0 if result.lines == expected == survived.lines else 1


if __name__ == "__main__":
    sys.exit(main())
