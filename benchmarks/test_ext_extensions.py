"""Extension benchmarks (beyond the paper's evaluation):

* block-level trigram Bloom pruning — archive-miss queries skip every
  CapsuleBox without decompressing anything;
* the distributed cluster — scatter/gather queries return the single-node
  result, survive a node failure, and speed up ≥ 2x from 1 to 4 shards
  on an I/O-bound scatter;
* streaming ingestion — pipelined block compression keeps up with batch;
* the compression profiler — where ingest time goes (§8's observation).
"""

import time

import pytest

from repro import LogGrep, LogGrepConfig, StreamingCompressor
from repro.baselines.evalutil import grep_lines
from repro.bench.profile import profile_compression
from repro.bench.report import format_table, print_banner
from repro.bench.runner import BENCH_BLOCK_BYTES
from repro.blockstore.remote import FaultProfile
from repro.cluster import ClusterLogGrep, ScatterConfig
from repro.workloads import spec_by_name


@pytest.fixture(scope="module")
def corpus(scale):
    return spec_by_name("Log T").generate(scale)


def test_block_bloom_pruning(benchmark, corpus):
    base = LogGrep(config=LogGrepConfig(block_bytes=BENCH_BLOCK_BYTES))
    base.compress(corpus)
    pruned = LogGrep(
        config=LogGrepConfig(block_bytes=BENCH_BLOCK_BYTES, use_block_bloom=True)
    )
    pruned.compress(corpus)
    miss = "keyword_absent_everywhere"

    def run_miss():
        pruned.clear_query_cache()
        return pruned.grep(miss)

    result = benchmark.pedantic(run_miss, rounds=5)
    base.clear_query_cache()
    base_result = base.grep(miss)
    print_banner("Extension: block-level Bloom pruning (archive-miss query)")
    print(
        format_table(
            ["version", "blocks pruned", "capsules decompressed", "latency"],
            [
                ["baseline", 0, base_result.stats.capsules_decompressed,
                 f"{base_result.elapsed * 1000:.1f} ms"],
                ["with bloom", result.stats.blocks_pruned,
                 result.stats.capsules_decompressed,
                 f"{result.elapsed * 1000:.1f} ms"],
            ],
        )
    )
    overhead = base.storage_bytes() and pruned.storage_bytes() / base.storage_bytes()
    print(f"storage overhead of the filters: {(overhead - 1) * 100:.2f}%")
    assert result.count == 0
    assert result.stats.blocks_pruned == len(pruned.store.names())
    assert result.stats.capsules_decompressed == 0
    assert overhead < 1.10
    # Hits must be unaffected.
    query = spec_by_name("Log T").query
    assert pruned.grep(query).lines == base.grep(query).lines


def test_cluster_scatter_gather(benchmark, corpus):
    config = LogGrepConfig(block_bytes=BENCH_BLOCK_BYTES)
    query = spec_by_name("Log T").query
    with ClusterLogGrep(num_nodes=4, replication=2, config=config) as cluster:
        cluster.compress(corpus)

        def run():
            return cluster.grep(query)

        result = benchmark.pedantic(run, rounds=3)
        expected = grep_lines(query, corpus)
        assert result.lines == expected
        cluster.node("node-1").fail()
        assert cluster.grep(query).lines == expected
        stats = cluster.stats()
        print_banner("Extension: 4-node cluster, replication 2")
        print(
            format_table(
                ["node", "blocks", "bytes"],
                [
                    [nid, stats.blocks_per_node[nid], stats.bytes_per_node[nid]]
                    for nid in sorted(stats.blocks_per_node)
                ],
            )
        )

    # Shard scaling on an I/O-bound scatter: 2 ms of simulated store RTT
    # per request (sleeps release the GIL, so shards overlap for real)
    # and worker Query Caches off so every repeat re-reads its blocks.
    # Log A's Table-1 count over 3 000 lines in 8 KiB blocks must be at
    # least 2x faster on four shards than on one (2.7x measured); the
    # sleeps dominate, so the ratio is stable.
    spec = spec_by_name("Log A")
    best = {}
    for nodes in (1, 4):
        with ClusterLogGrep(
            nodes,
            replication=1,
            config=LogGrepConfig(block_bytes=8 * 1024, use_query_cache=False),
            scatter=ScatterConfig(fanout_concurrency=8, hedge=False),
            remote_profile=FaultProfile(latency_s=0.002),
        ) as cluster:
            cluster.compress(spec.generate(3000))
            best[nodes] = float("inf")
            for _ in range(5):
                start = time.perf_counter()
                cluster.count(spec.query)
                best[nodes] = min(best[nodes], time.perf_counter() - start)
    print(f"1 -> 4 shard speedup: {best[1] / best[4]:.2f}x")
    assert best[1] >= 2.0 * best[4]


def test_streaming_vs_batch_ingest(benchmark, corpus):
    config = LogGrepConfig(block_bytes=BENCH_BLOCK_BYTES)

    def stream_all():
        with StreamingCompressor(config=config, pipeline_depth=2) as stream:
            stream.extend(corpus)
            return stream.flush()

    report = benchmark.pedantic(stream_all, rounds=3)
    batch = LogGrep(config=config)
    batch_report = batch.compress(corpus)
    print_banner("Extension: streaming (pipelined) vs batch ingest")
    print(
        format_table(
            ["mode", "MB/s", "ratio"],
            [
                ["batch", f"{batch_report.speed_mb_s:.2f}", f"{batch_report.ratio:.2f}"],
                ["streaming", f"{report.speed_mb_s:.2f}", f"{report.ratio:.2f}"],
            ],
        )
    )
    assert report.blocks == batch_report.blocks
    # The pipeline must not be slower than batch by more than noise.
    assert report.speed_mb_s > 0.5 * batch_report.speed_mb_s


def test_compression_profile(benchmark, corpus):
    profile = benchmark.pedantic(
        lambda: profile_compression(corpus[: len(corpus) // 2]), rounds=1, iterations=1
    )
    print_banner("§8: where compression time goes (one block)")
    print(format_table(["stage", "time", "share"], profile.breakdown()))
    print(f"vectors: {profile.vectors}")
    assert profile.total_seconds > 0
    # Parsing plus encoding dominates; serialization is cheap.
    assert profile.serialize_seconds < 0.5 * profile.total_seconds
