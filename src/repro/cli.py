"""Command-line interface: ``loggrep compress/grep/stats/metrics/report``.

Examples::

    loggrep compress app.log -a /tmp/archive
    loggrep compress app.log -a /tmp/archive -j 4 --executor process
    loggrep grep -a /tmp/archive "ERROR AND dst:11.8.* NOT state:503"
    loggrep grep -a /tmp/archive ERROR --trace       # span tree to stderr
    loggrep stats -a /tmp/archive --json
    loggrep metrics -a /tmp/archive -q ERROR         # Prometheus text format
    loggrep report            # regenerate EXPERIMENTS.md (slow)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .blockstore.store import ArchiveStore
from .core.config import LogGrepConfig
from .core.loggrep import LogGrep
from .query.plan import OutputMode, build_plan


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loggrep",
        description="LogGrep (EuroSys '23 reproduction): compress logs and "
        "run grep-like queries on the compressed archive.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compress = sub.add_parser("compress", help="compress a log file into an archive")
    compress.add_argument("input", help="raw log file (one entry per line)")
    compress.add_argument("-a", "--archive", required=True, help="archive directory")
    compress.add_argument(
        "--block-bytes", type=int, default=LogGrepConfig.block_bytes,
        help="log block size in bytes (default: 64 MiB)",
    )
    compress.add_argument(
        "--preset", type=int, default=1, choices=range(10),
        help="LZMA preset for Capsule payloads",
    )
    compress.add_argument(
        "-j", "--parallelism", type=int, default=None, metavar="N",
        help="encode blocks on an N-worker pool (default: serial; archives "
        "are byte-identical for any N)",
    )
    compress.add_argument(
        "--executor", choices=("thread", "process"), default=None,
        help="worker pool kind for -j: threads overlap LZMA, processes "
        "sidestep the GIL for the encoding loops (default: thread)",
    )
    compress.add_argument(
        "--tier", choices=("hot", "warm", "cold"), default=None,
        help="compress at a lifecycle tier's config: hot = speed-tier "
        "codec, warm = archive default, cold = offline preset with 4x "
        "merged blocks",
    )

    grep = sub.add_parser("grep", help="query a compressed archive")
    grep.add_argument(
        "query", nargs="?", default=None,
        help='e.g. "ERROR AND dst:11.8.* NOT state:503"',
    )
    grep.add_argument(
        "--batch-file", metavar="PATH",
        help="run every query in PATH (one per line, # comments) as one "
        "shared-scan batch: each block is opened once for all queries "
        "and every distinct term is matched once; output is grouped per "
        "query",
    )
    grep.add_argument("-a", "--archive", required=True, help="archive directory")
    grep.add_argument("-c", "--count", action="store_true", help="print only the hit count")
    grep.add_argument("-i", "--ignore-case", action="store_true", help="case-insensitive match")
    grep.add_argument("--stats", action="store_true", help="print execution statistics")
    grep.add_argument(
        "--json", action="store_true",
        help="with --stats: emit the statistics as JSON (stderr)",
    )
    grep.add_argument(
        "--trace", action="store_true",
        help="trace the query and print the span tree with per-stage "
        "percentages to stderr",
    )
    grep.add_argument(
        "--trace-out", metavar="PATH",
        help="trace the query and write a Chrome trace-event JSON file to "
        "PATH (viewable in chrome://tracing or ui.perfetto.dev)",
    )
    grep.add_argument(
        "--analyze", action="store_true",
        help="EXPLAIN ANALYZE: execute the query with the per-query "
        "resource ledger and print the per-operator table to stderr",
    )
    grep.add_argument(
        "-j", "--parallelism", type=int, default=1, metavar="N",
        help="query blocks on an N-thread pool (default: 1, serial)",
    )
    grep.add_argument(
        "--from", dest="from_time", metavar="TIME",
        help='start of the time window ("2024-01-01 00:00:00" or epoch '
        "seconds); blocks wholly before it are pruned without any read",
    )
    grep.add_argument(
        "--to", dest="to_time", metavar="TIME",
        help="end of the time window (same formats as --from)",
    )
    grep.add_argument(
        "--templates", metavar="DIR",
        help="shared template store directory (needed to read cold-tier "
        "archives that were demoted with cross-archive dedup and not "
        "exported self-contained)",
    )

    stats = sub.add_parser("stats", help="show archive statistics")
    stats.add_argument("-a", "--archive", required=True, help="archive directory")
    stats.add_argument("--json", action="store_true", help="emit JSON instead of text")

    metrics = sub.add_parser(
        "metrics", help="dump the process metrics registry (Prometheus or JSON)"
    )
    metrics.add_argument("-a", "--archive", required=True, help="archive directory")
    metrics.add_argument(
        "--format", choices=("prom", "prometheus", "json"), default="prometheus",
        help="export format (default: prometheus text format; "
        '"prom" is an alias)',
    )
    metrics.add_argument(
        "-q", "--query", metavar="QUERY",
        help="run this query first so query metrics are populated",
    )
    metrics.add_argument(
        "--reset", action="store_true",
        help="zero every metric after printing (fresh baseline for the "
        "next in-process reading)",
    )

    analyze = sub.add_parser(
        "analyze", help="structure-based aggregation without reconstruction"
    )
    analyze.add_argument("-a", "--archive", required=True, help="archive directory")
    analyze.add_argument("--fields", action="store_true", help="list discovered fields")
    analyze.add_argument("--count-by", metavar="FIELD", help="value histogram of a field")
    analyze.add_argument("--stats-of", metavar="FIELD", help="numeric summary of a field")
    analyze.add_argument("--top", type=int, default=20, help="rows to print (default 20)")
    analyze.add_argument("-w", "--where", help="optional query filter")

    agg = sub.add_parser(
        "agg",
        help="pushed-down aggregation: GROUP BY / top-k / stats / timeseries "
        "without reconstructing lines",
    )
    agg.add_argument(
        "kind",
        choices=("count-by", "top-k", "stats", "timeseries", "count-templates"),
        help="aggregate to run",
    )
    agg.add_argument(
        "field", nargs="?",
        help="field to aggregate (required for count-by/top-k/stats)",
    )
    agg.add_argument("-a", "--archive", required=True, help="archive directory")
    agg.add_argument("-w", "--where", help="optional query filter (WHERE clause)")
    agg.add_argument(
        "-k", "--top", type=int, default=10, metavar="K",
        help="rows for top-k / rows printed for count-by (default 10)",
    )
    agg.add_argument(
        "--buckets", type=int, default=20,
        help="bucket count for timeseries (default 20)",
    )
    agg.add_argument("-i", "--ignore-case", action="store_true")
    agg.add_argument(
        "-j", "--parallelism", type=int, default=1, metavar="N",
        help="aggregate blocks on an N-thread pool (default: 1, serial)",
    )
    agg.add_argument(
        "--analyze", action="store_true",
        help="EXPLAIN ANALYZE: run with the per-query resource ledger and "
        "print the per-operator table to stderr",
    )
    agg.add_argument("--json", action="store_true", help="emit the result as JSON")
    agg.add_argument(
        "--templates", metavar="DIR",
        help="shared template store directory (see grep --templates)",
    )

    lifecycle = sub.add_parser(
        "lifecycle",
        help="tier state machine: inspect and demote blocks between "
        "hot/warm/cold",
    )
    lsub = lifecycle.add_subparsers(dest="lifecycle_command", required=True)
    lstatus = lsub.add_parser(
        "status", help="per-tier block and byte accounting of an archive"
    )
    lstatus.add_argument("-a", "--archive", required=True, help="archive directory")
    lstatus.add_argument("--json", action="store_true", help="emit JSON instead of text")
    ldemote = lsub.add_parser(
        "demote",
        help="rewrite the eligible block prefix at a colder tier's config "
        "(cold merges blocks and rewrites the prune-index sidecar)",
    )
    ldemote.add_argument("-a", "--archive", required=True, help="archive directory")
    ldemote.add_argument(
        "--tier", choices=("warm", "cold"), required=True,
        help="target tier",
    )
    ldemote.add_argument(
        "--older-than", default="0s", metavar="AGE",
        help="age cutoff: seconds or <number><s|m|h|d|w>, e.g. 30d "
        "(default 0s = everything; blocks with no parseable timestamps "
        "are treated as eligible)",
    )
    ldemote.add_argument(
        "--templates", metavar="DIR",
        help="shared template store directory: cold rewrites deduplicate "
        "templates/dictionaries into it across archives",
    )
    ldemote.add_argument(
        "--self-contained", action="store_true",
        help="export the fallback bank after demotion so the archive "
        "reads without the shared store",
    )

    explain = sub.add_parser("explain", help="show the query plan (stamp/pattern decisions)")
    explain.add_argument("query", help="query command to plan")
    explain.add_argument("-a", "--archive", required=True, help="archive directory")
    explain.add_argument("-i", "--ignore-case", action="store_true")

    verify = sub.add_parser("verify", help="deep integrity check of an archive")
    verify.add_argument("-a", "--archive", required=True, help="archive directory")

    cluster = sub.add_parser(
        "cluster",
        help="one-shot distributed run: ingest a log file into an in-memory "
        "cluster and scatter a query (hedged reads, per-shard ANALYZE)",
    )
    cluster.add_argument("input", help="raw log file (one entry per line)")
    cluster.add_argument("query", help='e.g. "ERROR AND dst:11.8.*"')
    cluster.add_argument(
        "-n", "--nodes", type=int, default=4, help="worker nodes (default 4)"
    )
    cluster.add_argument(
        "-r", "--replication", type=int, default=2,
        help="replicas per block (default 2)",
    )
    cluster.add_argument(
        "--block-bytes", type=int, default=1024 * 1024,
        help="log block size in bytes (default: 1 MiB — small blocks shard "
        "better in a demo cluster)",
    )
    cluster.add_argument("-c", "--count", action="store_true", help="print only the hit count")
    cluster.add_argument("-i", "--ignore-case", action="store_true")
    cluster.add_argument("--from", dest="from_time", metavar="TIME",
                         help="start of the time window (see grep --from)")
    cluster.add_argument("--to", dest="to_time", metavar="TIME",
                         help="end of the time window")
    cluster.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="reconstruct at most N matches (bounds the final fetch)",
    )
    cluster.add_argument(
        "--analyze", action="store_true",
        help="print the per-shard delivery table (attempts, retries, "
        "hedges, gather bytes) to stderr",
    )
    cluster.add_argument(
        "--store-latency-ms", type=float, default=0.0,
        help="inject this per-request latency into every node's store "
        "(simulated object-store RTT)",
    )
    cluster.add_argument(
        "--store-jitter-ms", type=float, default=0.0,
        help="add up to this much random extra latency per store request",
    )
    cluster.add_argument(
        "--straggler-ms", type=float, default=0.0,
        help="make one node this much slower per RPC (hedged reads should "
        "route around it)",
    )
    cluster.add_argument(
        "--no-hedge", action="store_true",
        help="disable hedged replica reads (observe the straggler's tail)",
    )

    sub.add_parser("report", help="run the full benchmark suite and write EXPERIMENTS.md")
    return parser


def _parse_window(args) -> tuple:
    """Resolve --from/--to into epoch floats (None when absent)."""
    from .common.timeparse import parse_time_arg

    window = []
    for text in (getattr(args, "from_time", None), getattr(args, "to_time", None)):
        if text is None:
            window.append(None)
        else:
            window.append(parse_time_arg(text))
    return tuple(window)


def _shared_store(path: Optional[str]):
    if path is None:
        return None
    from .blockstore.shared import SharedTemplateStore

    return SharedTemplateStore(ArchiveStore(path))


def _open(
    archive: str,
    templates: Optional[str] = None,
    config: Optional[LogGrepConfig] = None,
    **config_overrides,
) -> LogGrep:
    store = ArchiveStore(archive)
    lg = LogGrep(
        store=store,
        config=config or LogGrepConfig(**config_overrides),
        templates=_shared_store(templates),
    )
    # Resume block numbering after existing archives.
    existing = store.names()
    lg._next_block_id = len(existing)
    return lg


def _run_grep_batch(lg, args, from_time, to_time) -> int:
    """``grep --batch-file``: one block pass over many queries."""
    with open(args.batch_file, "r", encoding="utf-8") as fh:
        queries = [
            line.strip()
            for line in fh
            if line.strip() and not line.lstrip().startswith("#")
        ]
    if not queries:
        print("loggrep: batch file holds no queries", file=sys.stderr)
        return 2
    mode = OutputMode.COUNT if args.count else OutputMode.LINES
    results, report = lg.executor.run_plans(
        [
            build_plan(
                query, mode, args.ignore_case,
                from_time=from_time, to_time=to_time,
            )
            for query in queries
        ]
    )
    for query, result in zip(queries, results):
        if args.count:
            print(f"{result.count}\t{query}")
            continue
        print(f"# query: {query} ({result.count} hit(s))")
        for _, line in result.entries:
            print(line)
    if args.stats:
        print(
            f"# batch: {report.queries} quer(ies) over {report.blocks} "
            f"block(s) in {report.elapsed * 1000:.1f} ms; shared block "
            f"loads: {report.shared_loads}",
            file=sys.stderr,
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    # Only compress creates an archive (cluster and report take none):
    # every other subcommand reads one, and ArchiveStore would otherwise
    # make the directory and answer from an empty archive.
    archive = getattr(args, "archive", None)
    if (
        archive is not None
        and args.command != "compress"
        and not os.path.isdir(archive)
    ):
        print(f"loggrep: no such archive: {archive}", file=sys.stderr)
        return 2

    if args.command == "compress":
        overrides = {"block_bytes": args.block_bytes, "preset": args.preset}
        if args.parallelism is not None:
            overrides["compress_parallelism"] = args.parallelism
        if args.executor is not None:
            overrides["compress_executor"] = args.executor
        config = LogGrepConfig(**overrides)
        if args.tier is not None:
            from .core.lifecycle import Tier, tier_config

            config = tier_config(Tier(args.tier), config)
        lg = _open(args.archive, config=config)
        with open(args.input, "r", encoding="utf-8", errors="replace") as fh:
            lines = fh.read().split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        report = lg.compress(lines)
        print(
            f"compressed {report.blocks} block(s): {report.raw_bytes} -> "
            f"{report.compressed_bytes} bytes "
            f"(ratio {report.ratio:.2f}x, {report.speed_mb_s:.2f} MB/s)"
        )
        return 0

    if args.command == "grep":
        from .common.errors import BudgetExceeded

        if (args.query is None) == (args.batch_file is None):
            print(
                "loggrep: grep needs a query or --batch-file (not both)",
                file=sys.stderr,
            )
            return 2
        lg = _open(
            args.archive,
            templates=args.templates,
            query_parallelism=args.parallelism,
        )
        tracing_wanted = args.trace or args.trace_out is not None
        from_time, to_time = _parse_window(args)
        if args.batch_file is not None:
            return _run_grep_batch(lg, args, from_time, to_time)
        if args.analyze and (from_time is not None or to_time is not None):
            print(
                "loggrep: note: --from/--to are ignored under --analyze",
                file=sys.stderr,
            )
        try:
            if args.count and not args.stats and not tracing_wanted and not args.analyze:
                # Counting skips reconstruction entirely (grep -c fast path).
                print(
                    lg.count(
                        args.query,
                        ignore_case=args.ignore_case,
                        from_time=from_time,
                        to_time=to_time,
                    )
                )
                return 0

            def run_query():
                if args.analyze:
                    return lg.explain_analyze(args.query, ignore_case=args.ignore_case)
                return lg.grep(
                    args.query,
                    ignore_case=args.ignore_case,
                    from_time=from_time,
                    to_time=to_time,
                )

            if tracing_wanted:
                from .obs import render_span_tree, tracing

                with tracing() as tracer:
                    result = run_query()
                root = tracer.last_root()
            else:
                result = run_query()
        except BudgetExceeded as exc:
            print(f"loggrep: {exc}", file=sys.stderr)
            if exc.ledger is not None:
                spent = exc.ledger.totals()
                print(
                    f"loggrep: partial ledger at abort: "
                    f"{spent.read_bytes} byte(s) read in {spent.range_reads} "
                    f"range read(s), {exc.ledger.decoded_values} value(s) "
                    "decoded",
                    file=sys.stderr,
                )
            return 1
        if args.count:
            print(result.count)
        else:
            for line in result.lines:
                print(line)
        if args.trace:
            print(render_span_tree(root), file=sys.stderr)
        if args.trace_out is not None:
            from .obs import write_chrome_trace

            events = write_chrome_trace(args.trace_out, tracer.roots)
            print(
                f"# wrote {events} trace event(s) to {args.trace_out}",
                file=sys.stderr,
            )
        if args.analyze:
            print(result.report, file=sys.stderr)
        if args.stats:
            if args.json:
                doc = {
                    "query": args.query,
                    "hits": result.count,
                    "elapsed_ms": result.elapsed * 1000,
                    "stats": result.stats.as_dict(),
                }
                print(json.dumps(doc, indent=2), file=sys.stderr)
            else:
                print(
                    f"# {result.count} hit(s) in {result.elapsed * 1000:.1f} ms; "
                    f"capsules decompressed: {result.stats.capsules_decompressed}, "
                    f"filtered: {result.stats.capsules_filtered}",
                    file=sys.stderr,
                )
        return 0

    if args.command == "stats":
        store = ArchiveStore(args.archive)
        from .blockstore.shared import as_resolver
        from .capsule.box import CapsuleBox

        resolver = as_resolver(None, store)
        blocks = []
        total = 0
        for name in store.names():
            box = CapsuleBox.deserialize(store.get(name), templates=resolver)
            total += box.num_lines
            blocks.append(
                {
                    "name": name,
                    "lines": box.num_lines,
                    "groups": len(box.groups),
                    "capsules": box.capsule_count(),
                    "payload_bytes": box.payload_bytes(),
                    "codecs": box.codec_usage(),
                }
            )
        if args.json:
            doc = {
                "blocks": blocks,
                "total_lines": total,
                "stored_bytes": store.total_bytes(),
            }
            print(json.dumps(doc, indent=2))
            return 0
        for b in blocks:
            codecs = ", ".join(
                f"{name} {use['capsules']}/{use['payload_bytes']} B"
                for name, use in b["codecs"].items()
            )
            print(
                f"{b['name']}: {b['lines']} lines, {b['groups']} groups, "
                f"{b['capsules']} capsules, {b['payload_bytes']} payload bytes "
                f"({codecs})"
            )
        print(f"total: {total} lines, {store.total_bytes()} stored bytes")
        return 0

    if args.command == "metrics":
        from .obs import get_registry

        lg = _open(args.archive)
        registry = get_registry()
        registry.gauge(
            "loggrep_store_bytes", "Total stored bytes of the archive"
        ).set(lg.storage_bytes())
        registry.gauge(
            "loggrep_store_blocks", "Blocks in the archive"
        ).set(len(lg.store.names()))
        if args.query:
            lg.grep(args.query)
        if args.format == "json":
            print(registry.to_json(indent=2))
        else:  # "prometheus" or its "prom" alias
            print(registry.to_prometheus(), end="")
        if args.reset:
            registry.reset()
        return 0

    if args.command == "explain":
        lg = _open(args.archive)
        print(lg.explain(args.query, ignore_case=args.ignore_case))
        return 0

    if args.command == "verify":
        from .blockstore.shared import as_resolver
        from .capsule.box import CapsuleBox
        from .common.errors import ReproError

        store = ArchiveStore(args.archive)
        resolver = as_resolver(None, store)
        bad = 0
        for name in store.names():
            try:
                problems = CapsuleBox.deserialize(
                    store.get(name), templates=resolver
                ).verify()
            except ReproError as exc:
                problems = [str(exc)]
            if problems:
                bad += 1
                for problem in problems:
                    print(f"{name}: {problem}")
            else:
                print(f"{name}: ok")
        print(f"{len(store.names()) - bad}/{len(store.names())} block(s) healthy")
        return 1 if bad else 0

    if args.command == "analyze":
        from .analytics import Analyzer

        analyzer = Analyzer(_open(args.archive))
        did_something = False
        if args.fields:
            print("fields:", ", ".join(analyzer.fields()))
            did_something = True
        if args.count_by:
            for value, count in analyzer.count_by(
                args.count_by, where=args.where
            ).most_common(args.top):
                print(f"{count:8d}  {value}")
            did_something = True
        if args.stats_of:
            stats = analyzer.stats_of(args.stats_of, where=args.where)
            print(
                f"count={stats.count} min={stats.minimum} max={stats.maximum} "
                f"mean={stats.mean:.2f} p50={stats.p50} p95={stats.p95} p99={stats.p99}"
            )
            did_something = True
        if not did_something:
            print("nothing to do: pass --fields, --count-by or --stats-of")
            return 2
        return 0

    if args.command == "agg":
        from .query.aggregate import AggregateSpec, NumericStats
        from .query.modes import AggregateKind

        needs_field = args.kind in ("count-by", "top-k", "stats")
        if needs_field and not args.field:
            print(f"loggrep: agg {args.kind} requires a FIELD", file=sys.stderr)
            return 2

        lg = _open(
            args.archive,
            templates=args.templates,
            query_parallelism=args.parallelism,
        )
        if args.kind == "timeseries":
            total = lg.total_lines()
            if total == 0 or args.buckets <= 0:
                spec = None
            else:
                spec = LogGrep._timeseries_spec(total, args.buckets)
        elif args.kind == "count-templates":
            spec = AggregateSpec(AggregateKind.COUNT_BY_TEMPLATE)
        elif args.kind == "count-by":
            spec = AggregateSpec(AggregateKind.COUNT_BY, args.field)
        elif args.kind == "top-k":
            spec = AggregateSpec(AggregateKind.TOP_K, args.field, k=args.top)
        else:  # stats
            spec = AggregateSpec(AggregateKind.STATS, args.field)

        if spec is None:
            result_value: object = []
            report = ""
        else:
            result = lg.aggregate(
                spec,
                args.where,
                ignore_case=args.ignore_case,
                analyze=args.analyze,
            )
            result_value = result.value
            report = result.report

        if args.json:
            if isinstance(result_value, NumericStats):
                doc: object = result_value.__dict__
            elif hasattr(result_value, "most_common"):
                doc = dict(result_value)  # type: ignore[call-overload]
            else:
                doc = result_value
            print(json.dumps(doc, indent=2, default=str))
        elif args.kind == "stats":
            s = result_value
            assert isinstance(s, NumericStats)
            print(
                f"count={s.count} nulls={s.nulls} min={s.minimum} "
                f"max={s.maximum} mean={s.mean:.2f} p50={s.p50} "
                f"p95={s.p95} p99={s.p99}"
            )
        elif args.kind == "timeseries":
            for low, high, hits in result_value:  # type: ignore[union-attr]
                print(f"[{low:10d} .. {high:10d}]  {hits}")
        elif args.kind == "top-k":
            for value, count in result_value:  # type: ignore[union-attr]
                print(f"{count:8d}  {value}")
        else:  # count-by / count-templates: a Counter
            for value, count in result_value.most_common(args.top):  # type: ignore[union-attr]
                print(f"{count:8d}  {value}")
        if args.analyze and report:
            print(report, file=sys.stderr)
        return 0

    if args.command == "lifecycle":
        from .core.lifecycle import LifecycleManager, Tier

        store = ArchiveStore(args.archive)
        if args.lifecycle_command == "status":
            mgr = LifecycleManager(store, LogGrepConfig())
            status = mgr.status()
            if args.json:
                doc = {
                    tier.value: {
                        "blocks": status.blocks[tier],
                        "bytes": status.bytes[tier],
                    }
                    for tier in Tier
                }
                print(json.dumps(doc, indent=2))
            else:
                for tier in Tier:
                    print(
                        f"{tier.value:5s}: {status.blocks[tier]:5d} block(s), "
                        f"{status.bytes[tier]} bytes"
                    )
                print(
                    f"total: {status.total_blocks():5d} block(s), "
                    f"{status.total_bytes()} bytes"
                )
            return 0

        # demote
        from .common.timeparse import parse_age_arg

        try:
            age = parse_age_arg(args.older_than)
        except ValueError as exc:
            print(f"loggrep: {exc}", file=sys.stderr)
            return 2
        mgr = LifecycleManager(
            store, LogGrepConfig(), shared=_shared_store(args.templates)
        )
        report = mgr.demote(Tier(args.tier), older_than_seconds=age)
        print(
            f"demoted to {report.tier.value}: "
            f"{report.blocks_before} -> {report.blocks_after} block(s), "
            f"{report.bytes_before} -> {report.bytes_after} bytes "
            f"({report.ratio_gain:.2f}x) in {report.rewrite_seconds:.2f}s"
        )
        if report.shared_bytes:
            print(f"shared store: {report.shared_bytes} bytes (cross-archive)")
        if args.self_contained:
            size = mgr.export_bank()
            print(f"fallback bank exported: {size} bytes")
        return 0

    if args.command == "cluster":
        from .blockstore.remote import FaultProfile
        from .cluster import ClusterLogGrep, ScatterConfig

        with open(args.input, "r", encoding="utf-8", errors="replace") as fh:
            lines = fh.read().split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        profile = None
        if args.store_latency_ms > 0 or args.store_jitter_ms > 0:
            profile = FaultProfile(
                latency_s=args.store_latency_ms / 1000.0,
                jitter_s=args.store_jitter_ms / 1000.0,
            )
        scatter = ScatterConfig(
            fanout_concurrency=max(2, args.nodes),
            hedge=not args.no_hedge,
        )
        from_time, to_time = _parse_window(args)
        with ClusterLogGrep(
            args.nodes,
            args.replication,
            config=LogGrepConfig(block_bytes=args.block_bytes),
            scatter=scatter,
            remote_profile=profile,
        ) as cluster:
            cluster.compress(lines)
            if args.straggler_ms > 0:
                victim = sorted(cluster.nodes)[-1]
                cluster.set_straggler(victim, args.straggler_ms / 1000.0)
                print(
                    f"# straggler: {victim} +{args.straggler_ms:.0f} ms/RPC",
                    file=sys.stderr,
                )
            if args.count:
                print(
                    cluster.count(
                        args.query,
                        ignore_case=args.ignore_case,
                        from_time=from_time,
                        to_time=to_time,
                    )
                )
                if args.analyze and cluster.last_report is not None:
                    print(cluster.last_report.render(), file=sys.stderr)
                return 0
            result = cluster.grep(
                args.query,
                ignore_case=args.ignore_case,
                from_time=from_time,
                to_time=to_time,
                limit=args.limit,
                analyze=args.analyze,
            )
            for line in result.lines:
                print(line)
            if args.analyze:
                print(result.report, file=sys.stderr)
        return 0

    if args.command == "report":
        from .bench.report import main as report_main

        return report_main()

    return 2  # pragma: no cover - argparse enforces the command set


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
