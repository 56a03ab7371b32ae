"""Tests for structure-based aggregation (§2's second phase) on LogGrep."""

import math
import re
from collections import Counter

import pytest

from repro import LogGrep, LogGrepConfig
from repro.blockstore.store import MemoryStore
from repro.capsule.box import CapsuleBox
from repro.obs import get_registry
from repro.query.aggregate import (
    AggregateSpec,
    group_count,
    histogram,
    numeric_stats,
    parse_number,
    top_k,
)
from repro.query.modes import AggregateKind
from repro.query.schema import discover_schema
from repro.query.stats import QueryStats
from repro.workloads import spec_by_name


@pytest.fixture(scope="module")
def archive():
    spec = spec_by_name("Log B")
    lines = spec.generate(3000)
    lg = LogGrep(config=LogGrepConfig(block_bytes=1 << 17))
    lg.compress(lines)
    return lg, lines


def reference_counts(lines, key, where=None):
    counts = Counter()
    pattern = re.compile(rf"{key}[:=](\S+)")
    for line in lines:
        if where and where not in line:
            continue
        match = pattern.search(line)
        if match:
            counts[match.group(1)] += 1
    return counts


class TestSchemaDiscovery:
    def test_key_fields_found(self, archive):
        lg, _ = archive
        fields = lg.fields()
        for expected in ("Project", "RequestId", "latency", "shard"):
            assert expected in fields

    def test_positional_names_for_anonymous_vectors(self, archive):
        lg, _ = archive
        fields = lg.fields()
        assert any(name.startswith("g") and "_v" in name for name in fields)

    def test_constant_pseudo_fields(self, archive):
        lg, _ = archive
        name = lg.store.names()[0]
        schema = discover_schema(CapsuleBox.deserialize(lg.store.get(name)))
        # The incident template plants Project:2963 as a constant token in
        # at least one block's schema across the archive.
        refs = [r for r in schema.fields if r.name == "Project"]
        assert refs

    def test_strip_prefix(self, archive):
        lg, lines = archive
        spec = AggregateSpec(AggregateKind.VALUES, "Project")
        values = set(lg.aggregate(spec).value)
        assert all(not value.startswith("Project:") for value in values)


class TestAggregations:
    def test_count_by_matches_reference(self, archive):
        lg, lines = archive
        ours = lg.count_by("Project")
        assert dict(ours) == dict(reference_counts(lines, "Project"))

    def test_count_by_with_where(self, archive):
        lg, lines = archive
        ours = lg.count_by("Project", where="ERROR")
        assert dict(ours) == dict(reference_counts(lines, "Project", where="ERROR"))

    def test_top_k(self, archive):
        lg, lines = archive
        (top_value, top_count), *_ = lg.top_k("RequestId", 1, where="ERROR")
        reference = reference_counts(lines, "RequestId", where="ERROR")
        assert reference[top_value] == top_count == max(reference.values())

    def test_numeric_stats(self, archive):
        lg, lines = archive
        stats = lg.stats_of("latency")
        numbers = [
            float(m.group(1))
            for m in (re.search(r"latency:(\d+)us", l) for l in lines)
            if m
        ]
        assert stats.count == len(numbers)
        assert stats.minimum == min(numbers)
        assert stats.maximum == max(numbers)
        assert stats.mean == pytest.approx(sum(numbers) / len(numbers))

    def test_distinct(self, archive):
        lg, lines = archive
        values = lg.aggregate(AggregateSpec(AggregateKind.VALUES, "Project")).value
        assert set(values) == set(reference_counts(lines, "Project"))

    def test_unknown_field_empty(self, archive):
        lg, _ = archive
        assert lg.count_by("NoSuchField") == Counter()

    def test_pairs_group_by(self, archive):
        lg, lines = archive
        spec = AggregateSpec(
            AggregateKind.PAIRS, "Project", value_field="RequestId"
        )
        grouped = group_count(lg.aggregate(spec, "ERROR").value)
        reference = {}
        for line in lines:
            if "ERROR" not in line:
                continue
            project = re.search(r"Project:(\S+)", line)
            request = re.search(r"RequestId:(\S+)", line)
            if project and request:
                reference.setdefault(project.group(1), Counter())[
                    request.group(1)
                ] += 1
        assert {k: dict(v) for k, v in grouped.items()} == {
            k: dict(v) for k, v in reference.items()
        }


class TestAggregateHelpers:
    def test_parse_number(self):
        assert parse_number("40719us") == 40719.0
        assert parse_number("-3.5ms") == -3.5
        assert parse_number("abc") is None
        assert parse_number("") is None

    def test_numeric_stats_empty(self):
        stats = numeric_stats(["abc", ""])
        assert stats.count == 0
        assert stats.nulls == 2
        assert math.isnan(stats.p50) and math.isnan(stats.mean)

    def test_numeric_stats_no_values(self):
        stats = numeric_stats([])
        assert stats.count == 0 and stats.nulls == 0
        assert math.isnan(stats.minimum) and math.isnan(stats.p99)

    def test_numeric_stats_singleton(self):
        # A one-value column: every percentile is that value.
        stats = numeric_stats(["42us"])
        assert stats.count == 1
        assert stats.minimum == stats.maximum == 42.0
        assert stats.p50 == stats.p95 == stats.p99 == 42.0

    def test_numeric_stats_two_values_interpolates(self):
        stats = numeric_stats(["0", "10"])
        assert stats.p50 == 5.0
        assert stats.p95 == pytest.approx(9.5)
        assert stats.p99 == pytest.approx(9.9)

    def test_numeric_stats_percentiles(self):
        # Linear interpolation between closest ranks (numpy's default):
        # for 0..99 the midpoint is 49.5, p95 sits at position 94.05.
        stats = numeric_stats([str(i) for i in range(100)])
        assert stats.p50 == 49.5
        assert stats.p95 == pytest.approx(94.05)
        assert stats.p99 == pytest.approx(98.01)

    def test_numeric_stats_counts_nulls(self):
        # Unparseable cells are reported, not silently dropped.
        stats = numeric_stats(["1us", "oops", "3us", ""])
        assert stats.count == 2
        assert stats.nulls == 2
        assert stats.mean == 2.0

    def test_top_k_helper(self):
        assert top_k(["a", "b", "a"], 1) == [("a", 2)]

    def test_histogram(self):
        buckets = histogram([str(i) for i in range(100)], bucket_count=10)
        assert len(buckets) == 10
        assert sum(count for _, _, count in buckets) == 100

    def test_histogram_uniform_values(self):
        assert histogram(["5", "5", "5"]) == [(5.0, 5.0, 3)]

    def test_histogram_empty(self):
        assert histogram(["x"]) == []


class TestNoReconstruction:
    def test_aggregation_cheaper_than_grep(self, archive):
        """count_by must open fewer Capsules than reconstructing hits."""
        lg, _ = archive
        spec = AggregateSpec(AggregateKind.COUNT_BY, "Project")
        agg_decompressed = lg.aggregate(spec, "ERROR").stats.capsules_decompressed
        lg.clear_query_cache()
        grep_stats = lg.grep("ERROR").stats
        assert agg_decompressed <= grep_stats.capsules_decompressed + 4

    def test_pushdown_reads_a_quarter_of_reconstruct_bytes(self):
        """count-by ``state`` where ``request`` on Log A (3 000 lines,
        64 KiB blocks), each side on a cold handle over one store: the
        pushdown reads at most 25 % of the bytes grep-then-count reads
        (0.211 here), bills exactly those bytes, and counts the same."""
        config = LogGrepConfig(block_bytes=64 * 1024)
        store = MemoryStore()
        LogGrep(store=store, config=config).compress(
            spec_by_name("Log A").generate(3000)
        )
        ranged = get_registry().counter("loggrep_store_range_read_bytes_total")

        before = ranged.value()
        result = LogGrep(store=store, config=config).aggregate(
            AggregateSpec(AggregateKind.COUNT_BY, "state"), "request", analyze=True
        )
        agg_bytes = ranged.value() - before
        before = ranged.value()
        hits = LogGrep(store=store, config=config).grep("request").lines
        grep_bytes = ranged.value() - before

        assert result.ledger.totals().read_bytes == agg_bytes
        assert result.value == reference_counts(hits, "state")
        assert 0 < agg_bytes <= 0.25 * grep_bytes


class TestTimeline:
    def test_total_and_buckets(self, archive):
        lg, lines = archive
        timeline = lg.timeseries("ERROR", buckets=10)
        assert len(timeline) == 10
        expected = sum(1 for l in lines if "ERROR" in l)
        assert sum(count for _, _, count in timeline) == expected
        # Buckets tile the id space without gaps.
        for (a_lo, a_hi, _), (b_lo, _, _) in zip(timeline, timeline[1:]):
            assert b_lo == a_hi + 1

    def test_bucket_counts_match_reference(self, archive):
        lg, lines = archive
        timeline = lg.timeseries("ERROR", buckets=7)
        for low, high, count in timeline:
            expected = sum(
                1 for i in range(low, min(high + 1, len(lines)))
                if "ERROR" in lines[i]
            )
            assert count == expected

    def test_empty_result(self, archive):
        lg, _ = archive
        timeline = lg.timeseries("zz_nothing_zz", buckets=5)
        assert sum(c for _, _, c in timeline) == 0


class TestPushdownExecution:
    """Aggregates ride the executor pipeline, not private block loops."""

    def test_stats_accumulate_through_facade(self, archive):
        lg, _ = archive
        count_by = AggregateSpec(AggregateKind.COUNT_BY, "Project")
        numeric = AggregateSpec(AggregateKind.STATS, "latency")
        stats = QueryStats()
        stats.merge(lg.aggregate(count_by, "ERROR").stats)
        assert stats.blocks_visited > 0
        before = stats.blocks_visited
        stats.merge(lg.aggregate(numeric).stats)
        assert stats.blocks_visited > before

    def test_parallel_merge_order_independent(self, archive):
        """-j N partial merging must be commutative: any completion order
        yields the serial result."""
        _, lines = archive
        serial = LogGrep(config=LogGrepConfig(block_bytes=1 << 15))
        serial.compress(lines)
        parallel = LogGrep(
            config=LogGrepConfig(block_bytes=1 << 15, query_parallelism=4)
        )
        parallel.compress(lines)
        for _ in range(3):  # thread completion order varies run to run
            assert parallel.count_by("Project", where="ERROR") == serial.count_by(
                "Project", where="ERROR"
            )
            assert parallel.top_k("RequestId", 5) == serial.top_k("RequestId", 5)
            assert parallel.stats_of("latency") == serial.stats_of("latency")
            assert parallel.timeseries("ERROR", buckets=9) == serial.timeseries(
                "ERROR", buckets=9
            )


def count_numeric(lg, field, keep, where=None):
    """Entries whose numeric *field* passes *keep*, read off the
    per-distinct-value counts of a pushed-down count-by."""
    return sum(
        n
        for value, n in lg.count_by(field, where).items()
        if (number := parse_number(value)) is not None and keep(number)
    )


class TestNumericFilter:
    def test_filter_numeric(self, archive):
        lg, lines = archive
        count = count_numeric(lg, "latency", lambda x: x > 50000)
        expected = sum(
            1
            for m in (re.search(r"latency:(\d+)us", l) for l in lines)
            if m and int(m.group(1)) > 50000
        )
        assert count == expected

    def test_filter_numeric_with_where(self, archive):
        lg, lines = archive
        count = count_numeric(lg, "latency", lambda x: x <= 1000, where="ERROR")
        expected = sum(
            1
            for l in lines
            if "ERROR" in l
            for m in [re.search(r"latency:(\d+)us", l)]
            if m and int(m.group(1)) <= 1000
        )
        assert count == expected
