"""Tests for the observability layer: spans, metrics, export, integration."""

import json
import pathlib
import threading

import pytest

from repro import LogGrep, LogGrepConfig
from repro.blockstore.store import MemoryStore
from repro.obs import (
    NULL_SPAN,
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    get_registry,
    get_tracer,
    render_span_tree,
    set_tracer,
    tracing,
)
from tests.conftest import make_mixed_lines

CONFIG = LogGrepConfig(block_bytes=8 * 1024)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_and_attributes(self):
        tracer = Tracer()
        with tracer.span("outer", command="q") as outer:
            with tracer.span("inner") as inner:
                inner.set("bytes", 7).add("count").add("count")
        assert tracer.roots == [outer]
        assert outer.children == [inner]
        assert inner.parent is outer
        assert outer.attrs == {"command": "q"}
        assert inner.attrs == {"bytes": 7, "count": 2}
        assert outer.seconds >= inner.seconds >= 0.0
        assert inner.end is not None

    def test_siblings_and_walk(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("a"):
                with tracer.span("leaf"):
                    pass
            with tracer.span("b"):
                pass
        root = tracer.last_root()
        assert [s.name for s in root.walk()] == ["root", "a", "leaf", "b"]
        assert [s.name for s in root.find("leaf")] == ["leaf"]

    def test_explicit_parent_across_threads(self):
        """Fan-out: spans entered in worker threads attach to the parent."""
        tracer = Tracer()
        with tracer.span("fan_out") as fan:
            def work(i):
                with tracer.span("child", parent=fan, idx=i):
                    pass

            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(fan.children) == 4
        assert sorted(c.attrs["idx"] for c in fan.children) == [0, 1, 2, 3]

    def test_thread_stacks_are_independent(self):
        """A worker thread without an explicit parent starts a new root."""
        tracer = Tracer()
        with tracer.span("main_root"):
            t = threading.Thread(target=lambda: tracer.span("other").__enter__().__exit__())
            t.start()
            t.join()
        assert sorted(s.name for s in tracer.roots) == ["main_root", "other"]

    def test_render_tree(self):
        tracer = Tracer()
        with tracer.span("query", command="ERROR"):
            with tracer.span("plan"):
                pass
        text = render_span_tree(tracer.last_root())
        assert "query" in text and "  plan" in text
        assert "100." in text  # root is 100% of itself
        assert "command='ERROR'" in text
        assert render_span_tree(None) == "(no spans recorded)"


class TestNullTracer:
    def test_default_tracer_is_null(self):
        assert get_tracer() is NULL_TRACER

    def test_null_span_is_shared_noop(self):
        span = NULL_TRACER.span("anything", parent=None, key="value")
        assert span is NULL_SPAN
        with span as inner:
            assert inner is NULL_SPAN
            assert inner.set("k", 1) is NULL_SPAN
            assert inner.add("k") is NULL_SPAN
        assert NULL_TRACER.roots == ()
        assert NULL_TRACER.last_root() is None
        assert not NULL_TRACER.enabled

    def test_tracing_context_installs_and_restores(self):
        before = get_tracer()
        with tracing() as tracer:
            assert get_tracer() is tracer
            assert tracer.enabled
        assert get_tracer() is before

    def test_set_tracer_none_restores_null(self):
        previous = set_tracer(Tracer())
        assert set_tracer(previous) is not NULL_TRACER or previous is NULL_TRACER
        set_tracer(None)
        assert get_tracer() is NULL_TRACER


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("jobs_total", "Jobs")
        c.inc()
        c.inc(2)
        c.inc(node="n0")
        assert c.value() == 3
        assert c.value(node="n0") == 1
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth", "Queue depth")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value() == 4

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "Latency", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == pytest.approx(55.55)

    def test_get_or_create_is_idempotent_and_typed(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total")
        assert reg.counter("x_total") is a
        with pytest.raises(TypeError):
            reg.gauge("x_total")

    def test_reset_zeroes_but_keeps_objects(self):
        reg = MetricsRegistry()
        c = reg.counter("y_total")
        c.inc(9)
        reg.reset()
        assert c.value() == 0
        assert reg.get("y_total") is c

    def test_prometheus_export_golden(self):
        reg = MetricsRegistry()
        reg.counter("req_total", "Requests").inc(3)
        reg.gauge("temp", "Temperature").set(21.5)
        c = reg.counter("node_jobs_total", "Per-node jobs")
        c.inc(2, node="n0")
        h = reg.histogram("lat_seconds", "Latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        expected = (
            "# HELP lat_seconds Latency\n"
            "# TYPE lat_seconds histogram\n"
            'lat_seconds_bucket{le="0.1"} 1\n'
            'lat_seconds_bucket{le="1"} 2\n'
            'lat_seconds_bucket{le="+Inf"} 2\n'
            "lat_seconds_sum 0.55\n"
            "lat_seconds_count 2\n"
            "# HELP node_jobs_total Per-node jobs\n"
            "# TYPE node_jobs_total counter\n"
            'node_jobs_total{node="n0"} 2\n'
            "# HELP req_total Requests\n"
            "# TYPE req_total counter\n"
            "req_total 3\n"
            "# HELP temp Temperature\n"
            "# TYPE temp gauge\n"
            "temp 21.5\n"
        )
        assert reg.to_prometheus() == expected

    def test_prometheus_export_golden_file(self):
        """Full exposition against tests/golden/metrics_exposition.prom.

        Covers the cases the inline golden above does not: cumulative
        ``_bucket`` counts with several observations per bucket, labelled
        histograms, label-value escaping (backslash, double quote,
        newline) and HELP escaping.
        """
        reg = MetricsRegistry()
        reg.counter("req_total", "Requests").inc(3)
        reg.gauge("temp", "Temperature").set(21.5)
        escapes = reg.counter(
            "path_hits_total", "Hits per path (backslash \\ in help)"
        )
        escapes.inc(1, path='C:\\logs\\"app"\nnext')
        h = reg.histogram(
            "lat_seconds", "Latency", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.06, 0.5, 5.0, 50.0):
            h.observe(value, op="grep")
        h.observe(0.2, op="count")
        golden = (
            pathlib.Path(__file__).parent / "golden" / "metrics_exposition.prom"
        )
        assert reg.to_prometheus() == golden.read_text(encoding="utf-8")

    def test_histogram_buckets_are_cumulative_in_exposition(self):
        """Each ``le`` bucket counts every observation at or below it."""
        reg = MetricsRegistry()
        h = reg.histogram("x_seconds", buckets=(1.0, 2.0, 3.0))
        for value in (0.5, 1.5, 2.5):
            h.observe(value)
        text = reg.to_prometheus()
        assert 'x_seconds_bucket{le="1"} 1' in text
        assert 'x_seconds_bucket{le="2"} 2' in text
        assert 'x_seconds_bucket{le="3"} 3' in text
        assert 'x_seconds_bucket{le="+Inf"} 3' in text

    def test_histogram_edge_values_export_unchanged(self):
        """Bounds, zero, negatives, values past the last bound and NaN:
        the exposition and JSON are the ones the walk-every-bucket
        ``observe`` produced (recorded below), byte for byte."""
        series = [
            0.0, 0.01, 0.05, 0.1, 0.5, 1.0, 2.0, float("nan"),
            0.003, 7.5, -1.0, 10.0, 11.0, 0.0025,
        ]
        reg = MetricsRegistry()
        small = reg.histogram("t_seconds", "help", buckets=(0.01, 0.1, 1.0))
        default = reg.histogram("u_seconds", "latency")
        for value in series:
            small.observe(value)
            default.observe(value)
        for value in (0.2, 1.0):
            small.observe(value, op="x")
        assert reg.to_prometheus() == (
            "# HELP t_seconds help\n"
            "# TYPE t_seconds histogram\n"
            't_seconds_bucket{le="0.01"} 5\n'
            't_seconds_bucket{le="0.1"} 7\n'
            't_seconds_bucket{le="1"} 9\n'
            't_seconds_bucket{le="+Inf"} 14\n'
            "t_seconds_sum nan\n"
            "t_seconds_count 14\n"
            't_seconds_bucket{op="x",le="0.01"} 0\n'
            't_seconds_bucket{op="x",le="0.1"} 0\n'
            't_seconds_bucket{op="x",le="1"} 2\n'
            't_seconds_bucket{op="x",le="+Inf"} 2\n'
            't_seconds_sum{op="x"} 1.2\n'
            't_seconds_count{op="x"} 2\n'
            "# HELP u_seconds latency\n"
            "# TYPE u_seconds histogram\n"
            'u_seconds_bucket{le="0.001"} 2\n'
            'u_seconds_bucket{le="0.0025"} 3\n'
            'u_seconds_bucket{le="0.005"} 4\n'
            'u_seconds_bucket{le="0.01"} 5\n'
            'u_seconds_bucket{le="0.025"} 5\n'
            'u_seconds_bucket{le="0.05"} 6\n'
            'u_seconds_bucket{le="0.1"} 7\n'
            'u_seconds_bucket{le="0.25"} 7\n'
            'u_seconds_bucket{le="0.5"} 8\n'
            'u_seconds_bucket{le="1"} 9\n'
            'u_seconds_bucket{le="2.5"} 10\n'
            'u_seconds_bucket{le="5"} 10\n'
            'u_seconds_bucket{le="10"} 12\n'
            'u_seconds_bucket{le="+Inf"} 14\n'
            "u_seconds_sum nan\n"
            "u_seconds_count 14\n"
        )
        # NaN != NaN, so the dict is compared through its JSON text.
        assert json.dumps(reg.to_dict(), sort_keys=True) == (
            '{"t_seconds": {"buckets": [0.01, 0.1, 1.0], "help": "help", '
            '"samples": [{"count": 14, "counts": [5, 7, 9], "labels": {}, '
            '"sum": NaN}, {"count": 2, "counts": [0, 0, 2], "labels": '
            '{"op": "x"}, "sum": 1.2}], "type": "histogram"}, "u_seconds": '
            '{"buckets": [0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, '
            '0.25, 0.5, 1.0, 2.5, 5.0, 10.0], "help": "latency", "samples": '
            '[{"count": 14, "counts": [2, 3, 4, 5, 5, 6, 7, 7, 8, 9, 10, 10, '
            '12], "labels": {}, "sum": NaN}], "type": "histogram"}}'
        )

    def test_json_export_golden(self):
        reg = MetricsRegistry()
        reg.counter("req_total", "Requests").inc(3)
        h = reg.histogram("lat_seconds", "Latency", buckets=(0.1, 1.0))
        h.observe(0.5)
        doc = json.loads(reg.to_json())
        assert doc == {
            "req_total": {
                "type": "counter",
                "help": "Requests",
                "samples": [{"labels": {}, "value": 3}],
            },
            "lat_seconds": {
                "type": "histogram",
                "help": "Latency",
                "buckets": [0.1, 1.0],
                "samples": [
                    {"labels": {}, "counts": [0, 1], "sum": 0.5, "count": 1}
                ],
            },
        }


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
class TestChromeTraceExport:
    def test_span_forest_exports_complete_events(self):
        from repro.obs import to_chrome_trace

        tracer = Tracer()
        with tracer.span("query", command="ERROR") as q:
            with tracer.span("plan"):
                pass

            def work():
                with tracer.span("block", parent=q, block="b0"):
                    pass

            t = threading.Thread(target=work)
            t.start()
            t.join()
        doc = to_chrome_trace(tracer.roots)
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert [e["name"] for e in events] == ["query", "plan", "block"]
        for event in events:
            assert event["ph"] == "X"
            assert event["cat"] == "loggrep"
            assert event["ts"] >= 0.0 and event["dur"] >= 0.0
            assert event["pid"] == 1
        # Timestamps are normalized: the earliest span starts at 0.
        assert min(e["ts"] for e in events) == 0.0
        # The worker-thread span gets its own compact lane.
        by_name = {e["name"]: e for e in events}
        assert by_name["query"]["tid"] == by_name["plan"]["tid"]
        assert by_name["block"]["tid"] != by_name["query"]["tid"]
        assert by_name["query"]["args"] == {"command": "ERROR"}
        # Nested spans fit inside their parent's interval.
        q_event, p_event = by_name["query"], by_name["plan"]
        assert q_event["ts"] <= p_event["ts"]
        assert p_event["ts"] + p_event["dur"] <= q_event["ts"] + q_event["dur"] + 1e-6

    def test_write_chrome_trace_is_loadable_json(self, tmp_path):
        from repro.obs import write_chrome_trace

        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        path = tmp_path / "trace.json"
        count = write_chrome_trace(str(path), tracer.roots)
        assert count == 2
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert len(doc["traceEvents"]) == 2

    def test_empty_forest_exports_empty_trace(self):
        from repro.obs import to_chrome_trace

        assert to_chrome_trace([]) == {
            "traceEvents": [],
            "displayTimeUnit": "ms",
        }
        assert to_chrome_trace([None]) == {
            "traceEvents": [],
            "displayTimeUnit": "ms",
        }

    def test_traced_grep_exports_pipeline_events(self, tmp_path):
        from repro.obs import write_chrome_trace

        lines = make_mixed_lines(400, seed=13)
        lg = LogGrep(store=MemoryStore(), config=CONFIG)
        lg.compress(lines)
        with tracing() as tracer:
            lg.grep("ERROR")
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), tracer.roots)
        doc = json.loads(path.read_text(encoding="utf-8"))
        names = {e["name"] for e in doc["traceEvents"]}
        # One plan roots the trace at "query" (with a "plan" child).
        assert {"query", "plan", "block", "locate", "match"} <= names
        assert "batch" not in names


# ----------------------------------------------------------------------
# QueryStats refactor (satellites)
# ----------------------------------------------------------------------
class TestQueryStats:
    def test_merge_covers_every_field(self):
        """Drift test: merge must aggregate every dataclass field."""
        import dataclasses

        from repro.query.stats import QueryStats

        a = QueryStats(**{f.name: 1 for f in dataclasses.fields(QueryStats)})
        b = QueryStats(**{f.name: 2 for f in dataclasses.fields(QueryStats)})
        a.merge(b)
        for f in dataclasses.fields(QueryStats):
            assert getattr(a, f.name) == 3, f"merge dropped {f.name}"

    def test_as_dict(self):
        from repro.query.stats import QueryStats

        stats = QueryStats(capsules_decompressed=4)
        assert stats.as_dict()["capsules_decompressed"] == 4

    def test_capsule_is_decompressed_property(self):
        from repro.capsule.capsule import Capsule

        capsule = Capsule.pack_fixed(["alpha", "beta", "gamma"] * 20)
        assert not capsule.is_decompressed
        capsule.plain()
        assert capsule.is_decompressed

    def test_publish_updates_registry(self):
        from repro.query.stats import QueryStats

        reg = get_registry()
        queries = reg.counter("loggrep_queries_total")
        before = queries.value()
        stats = QueryStats(
            capsules_considered=4, capsules_filtered=3, capsules_decompressed=1
        )
        stats.publish(0.01)
        assert queries.value() == before + 1
        assert reg.gauge("loggrep_capsule_filter_ratio").value() == pytest.approx(0.75)


# ----------------------------------------------------------------------
# end-to-end integration
# ----------------------------------------------------------------------
class TestTracedQuery:
    def test_traced_grep_matches_query_stats(self):
        """The span tree and QueryStats report the same decompressions."""
        lines = make_mixed_lines(700, seed=5)
        lg = LogGrep(store=MemoryStore(), config=CONFIG)
        lg.compress(lines)
        with tracing() as tracer:
            result = lg.grep("ERROR")
        root = tracer.last_root()
        assert root.name == "query"
        assert root.attrs["capsules_decompressed"] == result.stats.capsules_decompressed
        assert root.attrs["entries_matched"] == result.count
        decompress_spans = root.find("decompress")
        assert len(decompress_spans) == result.stats.capsules_decompressed
        total_bytes = sum(s.attrs["bytes"] for s in decompress_spans)
        assert total_bytes == result.stats.bytes_decompressed

    def test_stage_times_sum_to_total(self):
        lines = make_mixed_lines(700, seed=5)
        lg = LogGrep(store=MemoryStore(), config=CONFIG)
        lg.compress(lines)
        with tracing() as tracer:
            lg.grep("ERROR")
        root = tracer.last_root()
        stage_sum = sum(child.seconds for child in root.children)
        # Direct children (plan + per-block spans) cover nearly the whole
        # query; only sort/bookkeeping in between is unaccounted.
        assert stage_sum <= root.seconds
        assert stage_sum >= 0.5 * root.seconds

    def test_traced_compress_has_fig2_stages(self):
        lines = make_mixed_lines(400, seed=6)
        lg = LogGrep(store=MemoryStore(), config=CONFIG)
        with tracing() as tracer:
            lg.compress(lines)
        root = tracer.last_root()
        assert root.name == "compress"
        block = root.children[0]
        assert block.name == "compress.block"
        names = {child.name for child in block.children}
        assert {"parse", "classify", "encode", "serialize"} <= names

    def test_untraced_grep_records_no_spans(self):
        lines = make_mixed_lines(300, seed=7)
        lg = LogGrep(store=MemoryStore(), config=CONFIG)
        lg.compress(lines)
        assert get_tracer() is NULL_TRACER
        result = lg.grep("ERROR")  # must run clean with the null tracer
        assert result.count > 0

    def test_parallel_grep_attaches_blocks_and_merges_stats(self):
        lines = make_mixed_lines(700, seed=8)
        config = LogGrepConfig(block_bytes=8 * 1024, query_parallelism=4)
        lg = LogGrep(store=MemoryStore(), config=config)
        lg.compress(lines)
        serial = LogGrep(store=MemoryStore(), config=CONFIG)
        serial.compress(lines)
        with tracing() as tracer:
            result = lg.grep("ERROR")
        root = tracer.last_root()
        blocks = [c for c in root.children if c.name == "block"]
        assert len(blocks) == len(lg.store.names())
        # Parallel stats now merge per-block counters instead of dropping them.
        expected = serial.grep("ERROR").stats
        assert result.stats.capsules_decompressed == expected.capsules_decompressed
        assert result.stats.blocks_visited == expected.blocks_visited

    def test_parallel_block_spans_attach_to_query_root(self):
        """Satellite: spans opened on worker threads parent under the root.

        With ``query_parallelism > 1`` each per-block span is created on a
        pool thread whose thread-local span stack is empty, so attachment
        relies on the explicit ``parent=`` hand-off — verify every block
        span landed under the query root (no orphans, no mis-parenting) and
        that the work really ran off the main thread.
        """
        lines = make_mixed_lines(900, seed=31)
        config = LogGrepConfig(block_bytes=8 * 1024, query_parallelism=4)
        lg = LogGrep(store=MemoryStore(), config=config)
        lg.compress(lines)
        with tracing() as tracer:
            lg.grep("ERROR")
        root = tracer.last_root()
        assert root is not None and root.name == "query"
        assert tracer.roots == [root]  # no orphaned roots from pool threads

        def walk(span):
            yield span
            for child in span.children:
                yield from walk(child)

        blocks = [s for s in walk(root) if s.name == "block"]
        assert len(blocks) == len(lg.store.names()) > 1
        for span in blocks:
            assert span.parent is root
        # Descendants of a block (locate/match/...) stay under that block.
        for span in walk(root):
            if span is root or span.parent is root:
                continue
            cursor = span
            while cursor.parent is not root:
                cursor = cursor.parent
            assert cursor.name == "block"
        # At least one block span actually ran on a non-main thread.
        tids = {s.tid for s in blocks}
        assert len(tids) > 1 or threading.get_ident() not in tids

    def test_query_metrics_accumulate(self):
        lines = make_mixed_lines(300, seed=9)
        lg = LogGrep(store=MemoryStore(), config=CONFIG)
        lg.compress(lines)
        reg = get_registry()
        queries_before = reg.counter("loggrep_queries_total").value()
        latency_before = reg.histogram("loggrep_query_seconds").count()
        lg.grep("ERROR")
        lg.grep("SUC")
        assert reg.counter("loggrep_queries_total").value() == queries_before + 2
        assert reg.histogram("loggrep_query_seconds").count() == latency_before + 2


class TestClusterTracing:
    def test_fan_out_child_spans_per_block(self):
        from repro.cluster.coordinator import ClusterLogGrep

        lines = make_mixed_lines(600, seed=11)
        with ClusterLogGrep(num_nodes=3, replication=2, config=CONFIG) as cluster:
            cluster.compress(lines)
            with tracing() as tracer:
                result = cluster.grep("ERROR")
        # The whole query, bounded fetch included, is one tree:
        # cluster.query → query → block → cluster.query_block → node stages.
        assert len(tracer.roots) == 1
        query = tracer.roots[0]
        assert query.name == "cluster.query"
        (run,) = [c for c in query.children if c.name == "query"]
        blocks = [c for c in run.children if c.name == "block"]
        assert len(blocks) == len(cluster._placement)
        for block in blocks:
            rpcs = block.find("cluster.query_block")
            assert rpcs  # a hedge may add a second attempt
            assert all(span.attrs["node"] in cluster.nodes for span in rpcs)
            # Node-side stages nest under the RPC span of their thread.
            assert any(span.find("locate") for span in rpcs)
        fetched = {
            span.attrs["block"]
            for span in query.find("cluster.query_block")
            if span.attrs["phase"] == "lines" and span.find("reconstruct")
        }
        kept = {s.block for s in cluster.last_report.shards if s.phase == "lines"}
        assert fetched == kept and kept
        assert result.count > 0

    def test_cluster_ingest_spans_and_node_metrics(self):
        from repro.cluster.coordinator import ClusterLogGrep

        reg = get_registry()
        counter = reg.counter("loggrep_cluster_node_queries_total")
        lines = make_mixed_lines(400, seed=12)
        with ClusterLogGrep(num_nodes=2, replication=1, config=CONFIG) as cluster:
            with tracing() as tracer:
                cluster.compress(lines)
            cluster.grep("ERROR")
            served = sum(
                counter.value(node=node_id) for node_id in cluster.nodes
            )
            assert served >= len(cluster._placement)
        root = tracer.last_root()
        assert root.name == "cluster.compress"
        assert all(c.name == "cluster.ingest_block" for c in root.children)
        assert len(root.children) == len(cluster._placement)
