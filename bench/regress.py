#!/usr/bin/env python3
"""PR-10 benchmark regression ledger.

Runs the micro-benches and writes a ``BENCH_PR10.json`` regression ledger:

* **Fig-7 grep latency** — LogGrep vs gzip+grep on the Table-1 query of a
  few representative datasets.  The gated metric is the dimensionless
  speedup ``ggrep_over_lg`` (both sides timed in the same process, so the
  ratio travels across CI hosts, unlike absolute milliseconds).
* **Lazy-I/O** — bytes the ranged reader pulls off the store for one
  selective query vs the whole stored size of the blocks it opens, which
  is what eager whole-blob reads would cost (``eager_over_lazy_bytes``;
  byte counts are exactly reproducible).
* **Aggregation pushdown** — ``agg count-by`` on a selective Table-1
  query vs the reconstruct-then-count baseline over the same store.  The
  PR-7 acceptance bars are hard-gated: pushdown must read ≤ 25 % of the
  baseline's bytes and take ≤ 50 % of its wall time, and the per-query
  ledger's ``read_bytes`` must reconcile exactly with the store's
  ``loggrep_store_range_read_bytes_total`` delta.

* **Cluster scatter/gather** (PR-8) — three hard-gated bars over a
  simulated object-store cluster: the Table-1 selective query must speed
  up ≥ 2x going from 1 to 4 shards; a count-by's partial gather must ship
  ≤ 30 % of the bytes line-shipping would; and with one replica straggling
  +200 ms per RPC, hedged-read p99 must stay within 1.5x of the
  no-straggler p99 (the un-hedged tail is recorded alongside).

* **Shared-scan batching** (PR-10) — three hard-gated bars on the
  multi-plan block pass and the query cache: eight concurrent Table-1
  queries over one Log A archive in one run must read ≤ 40 % of the bytes
  and take ≤ 60 % of the wall time that running them one by one does, a
  warm query-cache repeat of the selective query must be ≥ 3x faster than
  the cold first run, and the per-query hit counts of the shared run must
  equal the one-by-one counts exactly.

* **Lifecycle** (PR-9) — three hard-gated bars on the hot tail and the
  tier engine: ingest-to-queryable latency (building the in-memory tail
  box) must stay within 3.6x of a plain single-block parse (1.2x until
  PR 19 made the parse in the denominator 3.1x cheaper — 2.05 ms to
  0.67 ms on this block — with the tail build unchanged at 1.08 ms; the
  bar moved with the denominator so the ceiling on the build did not);
  cold-demoting several archives into one cross-archive shared template
  store must cost ≤ 85 % of the bytes that per-archive offline rewrites
  cost on a repeated-template workload; and a tail-inclusive grep must
  equal the post-flush grep byte for byte (lines and line ids).

It also asserts the PR-6 acceptance bar that per-query accounting stays
off the hot path: grep latency with the ledger enabled (slow-query
threshold armed) must be within ``--overhead-tolerance`` (default 3%) of
the same query with the default NULL ledger, min-of-rounds on both sides.

Exit status is non-zero when any gated ratio regresses by more than
``--tolerance`` (default 25%) against the checked-in ``bench/baseline.json``
or the overhead bar fails, so CI can gate on this script directly.

Usage::

    python bench/regress.py                       # compare vs baseline
    python bench/regress.py --update-baseline     # regenerate baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.baselines.gzip_grep import GzipGrep  # noqa: E402
from repro.blockstore.store import MemoryStore  # noqa: E402
from repro.core.config import LogGrepConfig  # noqa: E402
from repro.core.loggrep import LogGrep  # noqa: E402
from repro.obs import get_registry  # noqa: E402
from repro.workloads import spec_by_name  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

#: Representative Table-1 datasets: a production log whose query is
#: variable-selective, one with heavy runtime patterns, and a public log.
FIG7_DATASETS = ("Log A", "Log T", "Hdfs")

#: Small blocks so even the micro-bench corpus spans several blocks.
BLOCK_BYTES = 64 * 1024


def _build_loggrep(lines, **overrides):
    config = LogGrepConfig(block_bytes=BLOCK_BYTES, **overrides)
    lg = LogGrep(store=MemoryStore(), config=config)
    lg.compress(lines)
    return lg


def _timed_grep(lg, query, rounds):
    """Min-of-rounds wall time; the query cache is cleared before every
    round so each measurement exercises the full pipeline."""
    best = float("inf")
    hits = 0
    for _ in range(rounds):
        lg.clear_query_cache()
        start = time.perf_counter()
        result = lg.grep(query)
        best = min(best, time.perf_counter() - start)
        hits = result.count
    return best, hits


def bench_fig7(lines_per_spec, rounds):
    """Fig-7 grep latency: LG vs gzip+grep, per dataset."""
    out = {}
    for name in FIG7_DATASETS:
        spec = spec_by_name(name)
        lines = spec.generate(lines_per_spec)
        lg = _build_loggrep(lines)
        gg = GzipGrep(block_bytes=BLOCK_BYTES)
        gg.ingest(list(lines))
        lg_s, lg_hits = _timed_grep(lg, spec.query, rounds)
        gg_s = float("inf")
        for _ in range(rounds):
            _, elapsed = gg.timed_query(spec.query)
            gg_s = min(gg_s, elapsed)
        out[name] = {
            "query": spec.query,
            "hits": lg_hits,
            "lg_ms": round(lg_s * 1000, 3),
            "ggrep_ms": round(gg_s * 1000, 3),
            "ggrep_over_lg": round(gg_s / lg_s, 3),
        }
    return out


class _OpenedStore(MemoryStore):
    """A MemoryStore that remembers which blocks were range-read."""

    def __init__(self):
        super().__init__()
        self.opened = set()

    def get_range(self, name, offset, length):
        self.opened.add(name)
        return super().get_range(name, offset, length)


def bench_lazy_io(lines_per_spec):
    """Bytes off the store for one selective query: ranged reads vs the
    whole size of every block the query opened (the eager-read cost)."""
    spec = spec_by_name("Log A")
    store = _OpenedStore()
    lg = LogGrep(store=store, config=LogGrepConfig(block_bytes=BLOCK_BYTES))
    lg.compress(spec.generate(lines_per_spec))
    counter = get_registry().counter("loggrep_store_read_bytes_total")
    store.opened.clear()
    before = counter.value()
    hits = lg.grep(spec.query).count
    lazy_bytes = int(counter.value() - before)
    eager_bytes = sum(store.size(name) for name in store.opened)
    return {
        "query": spec.query,
        "hits": hits,
        "lazy_bytes": lazy_bytes,
        "eager_bytes": eager_bytes,
        "eager_over_lazy_bytes": round(eager_bytes / max(1, lazy_bytes), 3),
    }


def bench_accounting_overhead(lines_per_spec, rounds):
    """Ledger-on vs ledger-off grep latency over one shared archive.

    The two configs share the compressed store so only the accounting
    differs; rounds are interleaved so drift hits both sides equally.
    """
    spec = spec_by_name("Log A")
    lines = spec.generate(lines_per_spec)
    plain = _build_loggrep(lines)
    # An armed (but unreachable) slow-query threshold activates the full
    # ledger machinery without emitting records or adding budget locks.
    ledgered = LogGrep(
        store=plain.store,
        config=LogGrepConfig(block_bytes=BLOCK_BYTES, slow_query_ms=1e15),
    )
    for lg in (plain, ledgered):  # warm caches on both sides
        lg.grep(spec.query)
    base = instrumented = float("inf")
    for _ in range(rounds):
        base = min(base, _timed_grep(plain, spec.query, 1)[0])
        instrumented = min(instrumented, _timed_grep(ledgered, spec.query, 1)[0])
    return {
        "query": spec.query,
        "base_ms": round(base * 1000, 3),
        "ledger_ms": round(instrumented * 1000, 3),
        "overhead_ratio": round(instrumented / base, 4),
    }


def bench_aggregation(lines_per_spec, rounds):
    """Pushdown count-by vs reconstruct-then-count on a selective query.

    Ratios are agg/baseline (lower is better), gated as hard bars rather
    than baseline-relative: bytes ≤ 0.25, wall time ≤ 0.50.  For the
    baseline-comparison ledger the inverted higher-is-better ratios are
    also reported.
    """
    import re
    from collections import Counter

    from repro.query.aggregate import AggregateSpec
    from repro.query.modes import AggregateKind

    spec = spec_by_name("Log A")
    field, where = "state", "request"
    lines = spec.generate(lines_per_spec)
    store = MemoryStore()
    LogGrep(
        store=store, config=LogGrepConfig(block_bytes=BLOCK_BYTES)
    ).compress(lines)
    range_counter = get_registry().counter("loggrep_store_range_read_bytes_total")
    pattern = re.compile(rf"{field}[:=](\S+)")

    agg_s = base_s = float("inf")
    for _ in range(rounds):
        agg_lg = LogGrep(
            store=store, config=LogGrepConfig(block_bytes=BLOCK_BYTES)
        )
        before = range_counter.value()
        start = time.perf_counter()
        result = agg_lg.aggregate(
            AggregateSpec(AggregateKind.COUNT_BY, field), where, analyze=True
        )
        agg_s = min(agg_s, time.perf_counter() - start)
        agg_bytes = int(range_counter.value() - before)
        ledger_bytes = result.ledger.totals().read_bytes

        base_lg = LogGrep(
            store=store, config=LogGrepConfig(block_bytes=BLOCK_BYTES)
        )
        before = range_counter.value()
        start = time.perf_counter()
        hits = base_lg.grep(where).lines
        base_counts = Counter(
            m.group(1) for line in hits for m in [pattern.search(line)] if m
        )
        base_s = min(base_s, time.perf_counter() - start)
        base_bytes = int(range_counter.value() - before)

    return {
        "dataset": spec.name,
        "field": field,
        "where": where,
        "matched": result.matched,
        "counts_equal": dict(result.value) == dict(base_counts),
        "agg_bytes": agg_bytes,
        "ledger_bytes": ledger_bytes,
        "baseline_bytes": base_bytes,
        "bytes_ratio": round(agg_bytes / max(1, base_bytes), 3),
        "agg_ms": round(agg_s * 1000, 3),
        "baseline_ms": round(base_s * 1000, 3),
        "time_ratio": round(agg_s / base_s, 3),
        "baseline_over_agg_bytes": round(base_bytes / max(1, agg_bytes), 3),
    }


def bench_cluster(lines_per_spec, rounds):
    """Scatter/gather over a simulated object store: shard scaling,
    partial-gather bytes and hedged straggler mitigation."""
    from repro.blockstore.remote import FaultProfile
    from repro.cluster import ClusterLogGrep, ScatterConfig

    spec = spec_by_name("Log A")
    lines = spec.generate(lines_per_spec)
    # Small blocks so the corpus shards across every node; 2 ms per store
    # request models object-store RTT (sleeps release the GIL, so shard
    # parallelism is genuine wall-clock parallelism).
    # These bars are about I/O-bound scatter: every timed repeat must
    # re-read its blocks over the simulated store.  Worker nodes honour
    # the Query Cache switch like any executor, and a warm node would
    # answer the repeats from cached row sets without touching the store.
    config = LogGrepConfig(block_bytes=8 * 1024, use_query_cache=False)
    rtt = FaultProfile(latency_s=0.002)

    def timed_counts(cluster, n):
        samples = []
        hits = 0
        for _ in range(n):
            start = time.perf_counter()
            hits = cluster.count(spec.query)
            samples.append(time.perf_counter() - start)
        return samples, hits

    def p99(samples):
        ordered = sorted(samples)
        return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]

    # --- shard-count scaling on the Table-1 selective query -----------
    scaling = {}
    for nodes in (1, 2, 4):
        scatter = ScatterConfig(fanout_concurrency=8, hedge=False)
        with ClusterLogGrep(
            nodes, replication=1, config=config,
            scatter=scatter, remote_profile=rtt,
        ) as cluster:
            cluster.compress(lines)
            samples, hits = timed_counts(cluster, rounds)
            scaling[str(nodes)] = {
                "ms": round(min(samples) * 1000, 3),
                "hits": hits,
                "blocks": len(cluster._placement),
            }
    speedup = scaling["1"]["ms"] / scaling["4"]["ms"]

    # --- partial gather vs line shipping (count-by on the same where) --
    with ClusterLogGrep(4, replication=2, config=config) as cluster:
        cluster.compress(lines)
        where = "request"
        grep_hits = cluster.grep(where).count
        line_bytes = sum(
            s.wire_bytes
            for s in cluster.last_report.shards
            if s.phase == "lines"
        )
        counts = cluster.count_by("state", where=where)
        partial_bytes = cluster.last_report.wire_bytes
    single = _build_loggrep(lines)
    counts_equal = counts == single.count_by("state", where=where)
    bytes_ratio = partial_bytes / max(1, line_bytes)

    # --- straggler mitigation: hedged vs un-hedged tail ----------------
    registry = get_registry()
    wins_counter = registry.counter("loggrep_cluster_hedge_wins_total")
    straggle_s = 0.200
    # Fan out only as wide as the cluster: wider floods the single-slot
    # nodes with queueing that the latency tracker would mistake for slow
    # replicas.  The hedge delay is the adaptive p95 of observed shard
    # latencies — the headline tail-at-scale mechanism under test.
    hedge_scatter = ScatterConfig(
        fanout_concurrency=4,
        hedge=True,
        shard_deadline_s=None,
    )
    tail_rounds = max(rounds * 3, 15)
    with ClusterLogGrep(
        4, replication=2, config=config,
        scatter=hedge_scatter, remote_profile=rtt,
    ) as cluster:
        cluster.compress(lines)
        timed_counts(cluster, 2)  # warm both replicas' path
        base_samples, _ = timed_counts(cluster, tail_rounds)
        straggler = cluster._placement[sorted(cluster._placement)[0]][0]
        cluster.set_straggler(straggler, straggle_s)
        wins_before = wins_counter.value()
        hedged_samples, hedged_hits = timed_counts(cluster, tail_rounds)
        hedge_wins = int(wins_counter.value() - wins_before)
    no_hedge_scatter = ScatterConfig(
        fanout_concurrency=4, hedge=False, shard_deadline_s=None
    )
    with ClusterLogGrep(
        4, replication=2, config=config,
        scatter=no_hedge_scatter, remote_profile=rtt,
    ) as cluster:
        cluster.compress(lines)
        straggler = cluster._placement[sorted(cluster._placement)[0]][0]
        cluster.set_straggler(straggler, straggle_s)
        unhedged_samples, _ = timed_counts(cluster, max(rounds, 5))

    no_straggler_p99 = p99(base_samples)
    hedged_p99 = p99(hedged_samples)
    unhedged_p99 = p99(unhedged_samples)
    return {
        "dataset": spec.name,
        "query": spec.query,
        "scaling": scaling,
        "speedup_1_to_4": round(speedup, 3),
        "counts_equal": counts_equal,
        "grep_hits": grep_hits,
        "line_bytes": line_bytes,
        "partial_bytes": partial_bytes,
        "partial_over_line_bytes": round(bytes_ratio, 3),
        "line_over_partial_bytes": round(
            line_bytes / max(1, partial_bytes), 3
        ),
        "straggle_ms": straggle_s * 1000,
        "no_straggler_p99_ms": round(no_straggler_p99 * 1000, 3),
        "hedged_p99_ms": round(hedged_p99 * 1000, 3),
        "unhedged_p99_ms": round(unhedged_p99 * 1000, 3),
        "hedged_over_clean_p99": round(
            hedged_p99 / max(1e-9, no_straggler_p99), 3
        ),
        "hedge_wins": hedge_wins,
        "hedged_hits": hedged_hits,
    }


def bench_lifecycle(lines_per_spec, rounds):
    """PR-9 lifecycle bars: ingest-to-queryable latency, cross-archive
    shared-store dedup, and tail/flush query equivalence."""
    import random

    from repro.blockstore.block import LogBlock
    from repro.blockstore.shared import SharedTemplateStore
    from repro.core.compressor import parse_block
    from repro.core.lifecycle import LifecycleManager, Tier, archive_offline
    from repro.core.streaming import StreamingCompressor
    from repro.staticparse.cache import TemplateCache

    spec = spec_by_name("Log A")
    lines = spec.generate(lines_per_spec)
    config = LogGrepConfig(block_bytes=BLOCK_BYTES)

    # --- ingest-to-queryable vs a plain single-block parse -------------
    # One block's worth of lines held in the append buffer: the tail box
    # build (cheap parse + speed-tier encode) is what stands between
    # append() returning and the line being grep-able.
    block_lines = []
    budget = BLOCK_BYTES - 1024
    for line in lines:
        budget -= len(line) + 1
        if budget <= 0:
            break
        block_lines.append(line)
    parse_s = float("inf")
    for _ in range(rounds):
        block = LogBlock(0, 0, list(block_lines))
        start = time.perf_counter()
        parse_block(block, config, TemplateCache())
        parse_s = min(parse_s, time.perf_counter() - start)
    tail_s = float("inf")
    with StreamingCompressor(config=config) as stream:
        # Steady state: earlier sealed blocks have already warmed the
        # shared template cache, exactly as they would mid-ingest; the
        # measured cost is rebuilding the tail box after an append.
        stream.extend(lines)
        stream.flush()
        stream.extend(block_lines)
        for _ in range(rounds):
            stream._tail_boxes.clear()
            start = time.perf_counter()
            stream._tail_box(stream.tail_snapshot())
            tail_s = min(tail_s, time.perf_counter() - start)

    # --- cross-archive dedup on a repeated-template workload -----------
    # Several archives of the same service emit the same templates and
    # the same low-cardinality (but individually large) dictionary
    # values; per-archive offline rewrites store those dictionaries once
    # per archive, the shared store stores them once, period.
    rng = random.Random(7)
    values = ["req-%024x" % rng.getrandbits(96) for _ in range(120)]
    repeated = [
        f"T{1000 + i % 40} handler state: {values[rng.randrange(120)]} ok"
        for i in range(lines_per_spec)
    ]
    archives = 3
    offline_bytes = 0
    for _ in range(archives):
        _, report = archive_offline(_build_loggrep(repeated))
        offline_bytes += report.offline_bytes
    shared = SharedTemplateStore(MemoryStore())
    shared_bytes = 0
    for _ in range(archives):
        lg = _build_loggrep(repeated)
        LifecycleManager(lg.store, lg.config, shared=shared).demote(Tier.COLD)
        shared_bytes += lg.storage_bytes()
    shared_bytes += shared.total_bytes()

    # --- tail grep ≡ post-flush grep ------------------------------------
    with StreamingCompressor(
        config=LogGrepConfig(block_bytes=8 * 1024)
    ) as stream:
        reader = stream.open_reader(tail=True)
        stream.extend(lines)
        tail_result = reader.grep(spec.query)
        stream.flush()
        sealed_result = stream.open_reader().grep(spec.query)
        tail_equiv = (
            tail_result.lines == sealed_result.lines
            and tail_result.line_ids == sealed_result.line_ids
        )

    return {
        "dataset": spec.name,
        "query": spec.query,
        "parse_ms": round(parse_s * 1000, 3),
        "visible_ms": round(tail_s * 1000, 3),
        "visible_over_parse": round(tail_s / parse_s, 3),
        "parse_over_visible": round(parse_s / max(1e-9, tail_s), 3),
        "archives": archives,
        "offline_bytes": offline_bytes,
        "shared_bytes": shared_bytes,
        "shared_over_offline_bytes": round(
            shared_bytes / max(1, offline_bytes), 3
        ),
        "offline_over_shared_bytes": round(
            offline_bytes / max(1, shared_bytes), 3
        ),
        "tail_hits": tail_result.count,
        "tail_equiv": tail_equiv,
    }


def bench_batch(lines_per_spec, rounds):
    """PR-10 shared-scan bars: a batch of 8 concurrent Table-1 queries
    over one Log A archive vs running the same 8 sequentially, plus the
    warm query-cache repeat of the selective incident query.

    Bytes are exactly reproducible (range-read counter deltas); the wall
    times are min-of-rounds with a fresh handle per round so neither side
    inherits the other's warm caches.
    """
    spec = spec_by_name("Log A")
    lines = spec.generate(lines_per_spec)
    store = MemoryStore()
    LogGrep(
        store=store, config=LogGrepConfig(block_bytes=BLOCK_BYTES)
    ).compress(lines)
    # Eight concurrent Table-1-style queries an incident triage fans out:
    # the headline query plus selective refinements over the same fields,
    # so most of the per-query cost is the shared block work (prune,
    # load, locate) rather than reconstruction both sides pay alike.
    queries = [
        spec.query,
        "ERROR and state:REQ_ST_CLOSED",
        "ERROR and code:20012",
        "reqId:5E9D21AD5E473938",
        "WARNING and state:REQ_ST_ABORT",
        "ERROR and state:REQ_ST_ABORT",
        "ERROR and accept conn",
        "WARNING and code:20012",
    ]
    range_counter = get_registry().counter(
        "loggrep_store_range_read_bytes_total"
    )
    loads_counter = get_registry().counter(
        "loggrep_batch_shared_block_loads_total"
    )

    seq_s = batch_s = float("inf")
    for _ in range(rounds):
        seq_lg = LogGrep(
            store=store, config=LogGrepConfig(block_bytes=BLOCK_BYTES)
        )
        before = range_counter.value()
        start = time.perf_counter()
        seq_hits = [seq_lg.grep(q).count for q in queries]
        seq_s = min(seq_s, time.perf_counter() - start)
        seq_bytes = int(range_counter.value() - before)

        batch_lg = LogGrep(
            store=store, config=LogGrepConfig(block_bytes=BLOCK_BYTES)
        )
        before = range_counter.value()
        loads_before = loads_counter.value()
        start = time.perf_counter()
        results = batch_lg.grep_many(queries)
        batch_s = min(batch_s, time.perf_counter() - start)
        batch_bytes = int(range_counter.value() - before)
        shared_loads = int(loads_counter.value() - loads_before)
        batch_hits = [result.count for result in results]

    # Warm query-cache repeat: the same selective query again on the
    # same handle resolves every block from cached row sets (COUNT never
    # reopens a box), vs the cold first run on a fresh handle.
    cold_s = warm_s = float("inf")
    for _ in range(rounds):
        warm_lg = LogGrep(
            store=store, config=LogGrepConfig(block_bytes=BLOCK_BYTES)
        )
        start = time.perf_counter()
        cold_count = warm_lg.count_many([spec.query])[0]
        cold_s = min(cold_s, time.perf_counter() - start)
        for _ in range(3):
            start = time.perf_counter()
            warm_count = warm_lg.count_many([spec.query])[0]
            warm_s = min(warm_s, time.perf_counter() - start)

    return {
        "dataset": spec.name,
        "queries": len(queries),
        "selective_query": spec.query,
        "hits_equal": batch_hits == seq_hits,
        "batch_hits": batch_hits,
        "seq_bytes": seq_bytes,
        "batch_bytes": batch_bytes,
        "bytes_ratio": round(batch_bytes / max(1, seq_bytes), 3),
        "seq_over_batch_bytes": round(seq_bytes / max(1, batch_bytes), 3),
        "seq_ms": round(seq_s * 1000, 3),
        "batch_ms": round(batch_s * 1000, 3),
        "time_ratio": round(batch_s / max(1e-9, seq_s), 3),
        "shared_block_loads": shared_loads,
        "cold_count": cold_count,
        "warm_count": warm_count,
        "cold_ms": round(cold_s * 1000, 3),
        "warm_ms": round(warm_s * 1000, 3),
        "warm_speedup": round(cold_s / max(1e-9, warm_s), 3),
    }


def gated_metrics(results):
    """The dimensionless higher-is-better ratios compared vs baseline."""
    out = {}
    for name, row in results["fig7"].items():
        out[f"fig7/{name}/ggrep_over_lg"] = row["ggrep_over_lg"]
    out["lazy_io/eager_over_lazy_bytes"] = results["lazy_io"][
        "eager_over_lazy_bytes"
    ]
    out["aggregation/baseline_over_agg_bytes"] = results["aggregation"][
        "baseline_over_agg_bytes"
    ]
    out["cluster/speedup_1_to_4"] = results["cluster"]["speedup_1_to_4"]
    out["cluster/line_over_partial_bytes"] = results["cluster"][
        "line_over_partial_bytes"
    ]
    # parse_over_visible is deliberately NOT a baseline-gated ratio: both
    # sides are millisecond-scale timings, so the ±25% band flaps on a
    # loaded runner.  The hard bar (visible ≤ 3.6x parse, checked in
    # main()) is the acceptance criterion and has real margin.
    out["lifecycle/offline_over_shared_bytes"] = results["lifecycle"][
        "offline_over_shared_bytes"
    ]
    # warm_speedup and the batch time ratio are deliberately NOT
    # baseline-gated for the same loaded-runner reason; the byte ratio is
    # exact, so it travels.
    out["batch/seq_over_batch_bytes"] = results["batch"][
        "seq_over_batch_bytes"
    ]
    return out


def compare(results, baseline, tolerance):
    """Return a list of human-readable regression failures."""
    failures = []
    current = gated_metrics(results)
    for key, base_value in baseline.items():
        now = current.get(key)
        if now is None:
            failures.append(f"{key}: missing from this run (baseline {base_value})")
            continue
        floor = base_value / (1.0 + tolerance)
        if now < floor:
            failures.append(
                f"{key}: {now:.3f} is a >{tolerance:.0%} regression vs "
                f"baseline {base_value:.3f} (floor {floor:.3f})"
            )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--lines", type=int, default=3000,
        help="base lines per dataset (default: 3000)",
    )
    parser.add_argument(
        "--rounds", type=int, default=5,
        help="timing rounds, min taken (default: 5)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional regression vs baseline (default: 0.25)",
    )
    parser.add_argument(
        "--overhead-tolerance", type=float, default=1.03,
        help="max ledger-on/ledger-off latency ratio (default: 1.03)",
    )
    parser.add_argument(
        "--out", default=os.path.join(REPO, "BENCH_PR10.json"),
        help="result ledger path (default: BENCH_PR10.json at the repo root)",
    )
    parser.add_argument(
        "--agg-bytes-bar", type=float, default=0.25,
        help="max pushdown/baseline bytes ratio for count-by (default: 0.25)",
    )
    parser.add_argument(
        "--agg-time-bar", type=float, default=0.50,
        help="max pushdown/baseline wall-time ratio for count-by (default: 0.50)",
    )
    parser.add_argument(
        "--cluster-speedup-bar", type=float, default=2.0,
        help="min 1-to-4-shard speedup on the selective query (default: 2.0)",
    )
    parser.add_argument(
        "--cluster-bytes-bar", type=float, default=0.30,
        help="max partial-gather/line-shipping bytes ratio (default: 0.30)",
    )
    parser.add_argument(
        "--cluster-hedge-bar", type=float, default=1.5,
        help="max hedged-p99/no-straggler-p99 ratio with one +200ms "
        "replica (default: 1.5)",
    )
    parser.add_argument(
        "--visible-bar", type=float, default=3.6,
        help="max tail-build/single-block-parse latency ratio (default: 3.6)",
    )
    parser.add_argument(
        "--batch-bytes-bar", type=float, default=0.40,
        help="max batched/sequential bytes ratio for the 8-query batch "
        "(default: 0.40)",
    )
    parser.add_argument(
        "--batch-time-bar", type=float, default=0.60,
        help="max batched/sequential wall-time ratio for the 8-query "
        "batch (default: 0.60)",
    )
    parser.add_argument(
        "--warm-speedup-bar", type=float, default=3.0,
        help="min cold/warm speedup for the query-cache repeat of the "
        "selective query (default: 3.0)",
    )
    parser.add_argument(
        "--shared-bytes-bar", type=float, default=0.85,
        help="max shared-cold/per-archive-offline bytes ratio on the "
        "repeated-template workload (default: 0.85)",
    )
    parser.add_argument(
        "--baseline", default=os.path.join(HERE, "baseline.json"),
        help="checked-in baseline path (default: bench/baseline.json)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from this run instead of comparing",
    )
    args = parser.parse_args(argv)

    results = {
        "bench": "PR10 shared-scan batching + generation-keyed query cache",
        "lines_per_spec": args.lines,
        "rounds": args.rounds,
        "fig7": bench_fig7(args.lines, args.rounds),
        "lazy_io": bench_lazy_io(args.lines),
        "aggregation": bench_aggregation(args.lines, args.rounds),
        "cluster": bench_cluster(args.lines, args.rounds),
        "lifecycle": bench_lifecycle(args.lines, args.rounds),
        "batch": bench_batch(args.lines, args.rounds),
        # The overhead bar is the tightest gate (3%), so it gets triple
        # rounds: min-of-rounds on both sides needs the extra samples to
        # stay under the noise floor of shared CI runners.
        "accounting_overhead": bench_accounting_overhead(
            args.lines, max(3 * args.rounds, 9)
        ),
    }

    failures = []
    overhead = results["accounting_overhead"]["overhead_ratio"]
    if overhead > args.overhead_tolerance:
        failures.append(
            f"accounting overhead {overhead:.4f} exceeds the "
            f"{args.overhead_tolerance:.2f} bar (ledger not off the hot path)"
        )

    agg = results["aggregation"]
    if not agg["counts_equal"]:
        failures.append("aggregation: pushdown counts diverge from the baseline")
    if agg["ledger_bytes"] != agg["agg_bytes"]:
        failures.append(
            f"aggregation: ledger read_bytes {agg['ledger_bytes']} does not "
            f"reconcile with loggrep_store_range_read_bytes_total delta "
            f"{agg['agg_bytes']}"
        )
    if agg["bytes_ratio"] > args.agg_bytes_bar:
        failures.append(
            f"aggregation: pushdown read {agg['bytes_ratio']:.1%} of baseline "
            f"bytes (bar {args.agg_bytes_bar:.0%})"
        )
    if agg["time_ratio"] > args.agg_time_bar:
        failures.append(
            f"aggregation: pushdown took {agg['time_ratio']:.1%} of baseline "
            f"wall time (bar {args.agg_time_bar:.0%})"
        )

    cluster = results["cluster"]
    if not cluster["counts_equal"]:
        failures.append("cluster: gathered count-by diverges from single-node")
    if cluster["speedup_1_to_4"] < args.cluster_speedup_bar:
        failures.append(
            f"cluster: 1->4 shard speedup {cluster['speedup_1_to_4']:.2f}x "
            f"is under the {args.cluster_speedup_bar:.1f}x bar"
        )
    if cluster["partial_over_line_bytes"] > args.cluster_bytes_bar:
        failures.append(
            f"cluster: partial gather shipped "
            f"{cluster['partial_over_line_bytes']:.1%} of line-shipping "
            f"bytes (bar {args.cluster_bytes_bar:.0%})"
        )
    if cluster["hedged_over_clean_p99"] > args.cluster_hedge_bar:
        failures.append(
            f"cluster: hedged p99 is {cluster['hedged_over_clean_p99']:.2f}x "
            f"the no-straggler p99 (bar {args.cluster_hedge_bar:.1f}x) — "
            f"hedging is not hiding the +{cluster['straggle_ms']:.0f}ms replica"
        )

    lifecycle = results["lifecycle"]
    if not lifecycle["tail_equiv"]:
        failures.append(
            "lifecycle: tail-inclusive grep diverges from the post-flush grep"
        )
    if lifecycle["visible_over_parse"] > args.visible_bar:
        failures.append(
            f"lifecycle: ingest-to-queryable is "
            f"{lifecycle['visible_over_parse']:.2f}x a single-block parse "
            f"(bar {args.visible_bar:.1f}x)"
        )
    if lifecycle["shared_over_offline_bytes"] > args.shared_bytes_bar:
        failures.append(
            f"lifecycle: shared cold storage is "
            f"{lifecycle['shared_over_offline_bytes']:.1%} of per-archive "
            f"offline bytes (bar {args.shared_bytes_bar:.0%})"
        )

    batch = results["batch"]
    if not batch["hits_equal"]:
        failures.append(
            "batch: batched per-query hit counts diverge from sequential"
        )
    if batch["bytes_ratio"] > args.batch_bytes_bar:
        failures.append(
            f"batch: batched execution read {batch['bytes_ratio']:.1%} of "
            f"sequential bytes (bar {args.batch_bytes_bar:.0%})"
        )
    if batch["time_ratio"] > args.batch_time_bar:
        failures.append(
            f"batch: batched execution took {batch['time_ratio']:.1%} of "
            f"sequential wall time (bar {args.batch_time_bar:.0%})"
        )
    if batch["warm_speedup"] < args.warm_speedup_bar:
        failures.append(
            f"batch: warm query-cache repeat is only "
            f"{batch['warm_speedup']:.2f}x the cold run "
            f"(bar {args.warm_speedup_bar:.1f}x)"
        )

    if args.update_baseline:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(gated_metrics(results), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline rewritten: {args.baseline}")
    elif os.path.exists(args.baseline):
        with open(args.baseline, "r", encoding="utf-8") as fh:
            failures.extend(compare(results, json.load(fh), args.tolerance))
    else:
        failures.append(f"no baseline at {args.baseline} (run --update-baseline)")

    results["failures"] = failures
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(json.dumps(results, indent=2, sort_keys=True))
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("benchmark regression ledger: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
