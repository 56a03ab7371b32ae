"""Tests for the query planner (logical plan IR) and the operator-pipeline
executor: term ordering, output modes, schedulers, the box-cache LRU and
the executor-level match memo."""

import pytest

from repro import LogGrep, LogGrepConfig
from repro.baselines.evalutil import grep_lines
from repro.capsule.box import CapsuleBox
from repro.obs.metrics import get_registry
from repro.query.executor import BoxCache, QueryExecutor, StoreBoxSource
from repro.query.language import parse_query
from repro.query.plan import (
    OutputMode,
    QueryPlan,
    build_plan,
    term_selectivity,
)
from tests.conftest import make_mixed_lines


@pytest.fixture(scope="module")
def corpus():
    return make_mixed_lines(600, seed=11)


@pytest.fixture(scope="module")
def store(corpus):
    lg = LogGrep(config=LogGrepConfig(block_bytes=8 * 1024))
    lg.compress(corpus)
    return lg


# ----------------------------------------------------------------------
# logical plan IR
# ----------------------------------------------------------------------
class TestPlanIR:
    def test_build_plan_from_string_and_command(self):
        from_str = build_plan("ERROR AND read")
        from_cmd = build_plan(parse_query("ERROR AND read"))
        assert from_str.raw == from_cmd.raw == "ERROR AND read"
        assert from_str.mode is OutputMode.LINES
        assert isinstance(from_str, QueryPlan)

    def test_terms_ordered_most_selective_first(self):
        plan = build_plan("ab AND abcdef AND abcd")
        (disjunct,) = plan.disjuncts
        assert [t.search.text for t in disjunct.terms] == [
            "abcdef",
            "abcd",
            "ab",
        ]
        assert [t.selectivity for t in disjunct.terms] == [6, 4, 2]

    def test_negated_terms_sorted_last(self):
        plan = build_plan("aa NOT zzzzzz")
        (disjunct,) = plan.disjuncts
        assert [(t.search.text, t.negated) for t in disjunct.terms] == [
            ("aa", False),
            ("zzzzzz", True),
        ]

    def test_selectivity_uses_longest_literal_of_wildcards(self):
        plan = build_plan("abc*d")
        term = plan.disjuncts[0].terms[0]
        assert term.selectivity == 3  # "abc", not "abc*d"
        parsed = parse_query("plain")
        assert term_selectivity(parsed.disjuncts[0][0]) == 5

    def test_search_strings_dedup_by_cache_key(self):
        plan = build_plan("aa AND bb OR aa AND cc")
        texts = [s.text for s in plan.search_strings()]
        assert sorted(texts) == ["aa", "bb", "cc"]

    def test_ignore_case_flows_through(self):
        plan = build_plan("error", ignore_case=True)
        assert plan.ignore_case
        assert not build_plan("error").ignore_case

    def test_describe_mentions_terms_and_mode(self):
        plan = build_plan("ERROR NOT read", OutputMode.COUNT)
        text = plan.describe()
        assert "mode=count" in text
        assert "'ERROR'(sel=5)" in text
        assert "NOT 'read'(sel=4)" in text


# ----------------------------------------------------------------------
# executor modes and schedulers
# ----------------------------------------------------------------------
class TestExecutor:
    def test_lines_mode_matches_reference(self, store, corpus):
        result = store._executor.run("ERROR", OutputMode.LINES)
        expected = grep_lines("ERROR", corpus)
        assert [text for _, text in result.entries] == expected
        assert result.count == len(expected)

    def test_count_mode_skips_reconstruction(self, store):
        grep_result = store._executor.run("read", OutputMode.LINES)
        count_result = store._executor.run("read", OutputMode.COUNT)
        assert count_result.count == grep_result.count
        assert count_result.entries == []

    def test_parallel_count_equals_serial(self, corpus):
        # Regression: count() used to ignore config.query_parallelism.
        serial = LogGrep(
            config=LogGrepConfig(block_bytes=8 * 1024, query_parallelism=1)
        )
        parallel = LogGrep(
            config=LogGrepConfig(block_bytes=8 * 1024, query_parallelism=4)
        )
        serial.compress(corpus)
        parallel.compress(corpus)
        for command in ["read", "ERROR OR state:", "T1* NOT SUC"]:
            assert parallel.count(command) == serial.count(command)
            assert parallel.grep(command).lines == serial.grep(command).lines

    def test_parallel_stats_match_serial(self, corpus):
        serial = LogGrep(
            config=LogGrepConfig(block_bytes=8 * 1024, query_parallelism=1)
        )
        parallel = LogGrep(
            config=LogGrepConfig(block_bytes=8 * 1024, query_parallelism=3)
        )
        serial.compress(corpus)
        parallel.compress(corpus)
        a = serial.grep("state:").stats.as_dict()
        b = parallel.grep("state:").stats.as_dict()
        assert a == b

    def test_explain_mode_is_a_dry_run(self, store):
        registry = get_registry()
        queries = registry.counter("loggrep_queries_total", "")
        before = queries.value()
        result = store._executor.run("ERROR", OutputMode.EXPLAIN)
        # A dry run decompresses nothing and publishes no query metrics.
        assert result.stats.capsules_decompressed == 0
        assert queries.value() == before
        assert result.renderings
        assert "keyword-vector pairs filtered" in result.rendering

    def test_describe_renders_physical_plan(self, store):
        plan = build_plan("ERROR AND read", OutputMode.COUNT)
        text = store._executor.describe(plan)
        assert "physical plan for 'ERROR AND read' (mode=count)" in text
        assert (
            "BloomPrune(off) -> LoadBox -> Locate -> "
            "Match(query_cache=on) -> Reconstruct(elided)" in text
        )
        assert "scheduler: serial over" in text

    def test_describe_thread_pool_scheduler(self, corpus):
        lg = LogGrep(
            config=LogGrepConfig(block_bytes=8 * 1024, query_parallelism=4)
        )
        lg.compress(corpus)
        text = lg._executor.describe(build_plan("read"))
        assert "thread-pool(4)" in text
        assert "-> Reconstruct" in text

    def test_explain_facade_includes_physical_plan(self, store):
        text = store.explain("ERROR")
        assert "physical plan for 'ERROR'" in text
        assert "block block-00000000.lgcb" in text

    def test_match_memo_hits_on_repeat(self, corpus):
        lg = LogGrep(config=LogGrepConfig(block_bytes=8 * 1024))
        lg.compress(corpus)
        first = lg.grep("ERROR")
        second = lg.grep("ERROR")
        assert first.stats.cache_hits == 0
        assert second.stats.cache_hits > 0
        assert second.lines == first.lines

    def test_match_memo_respects_cache_switch(self, corpus):
        lg = LogGrep(
            config=LogGrepConfig(block_bytes=8 * 1024, use_query_cache=False)
        )
        lg.compress(corpus)
        lg.grep("ERROR")
        assert lg.grep("ERROR").stats.cache_hits == 0

    def test_no_query_logic_left_on_the_facade(self):
        # Acceptance: grep/count/explain are thin wrappers over the
        # executor; the old per-block helpers are gone.
        assert not hasattr(LogGrep, "_grep_block")
        assert not hasattr(LogGrep, "_locate_block")

    def test_engine_readers_public_accessor(self, store):
        from repro.query.engine import BlockEngine
        from repro.query.stats import QueryStats

        name = store.store.names()[0]
        box = CapsuleBox.deserialize(store.store.get(name))
        engine = BlockEngine(box, store.config.query_settings(), QueryStats())
        engine.search_string_rows(parse_query("read").disjuncts[0][0].search)
        assert engine.readers is engine._readers
        assert isinstance(engine.readers, dict)


# ----------------------------------------------------------------------
# the bounded box cache
# ----------------------------------------------------------------------
class TestBoxCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            BoxCache(0)

    def test_lru_eviction_bound(self):
        cache = BoxCache(2)
        cache.put("a", "box-a")
        cache.put("b", "box-b")
        cache.put("c", "box-c")  # evicts "a"
        assert len(cache) == 2
        assert "a" not in cache
        assert cache.get("a") is None
        assert cache.get("b") == "box-b"

    def test_get_refreshes_recency(self):
        cache = BoxCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # "b" is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache

    def test_clear(self):
        cache = BoxCache(4)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_metrics_track_cache_activity(self):
        registry = get_registry()
        hits = registry.counter("loggrep_box_cache_hits_total", "")
        misses = registry.counter("loggrep_box_cache_misses_total", "")
        evictions = registry.counter("loggrep_box_cache_evictions_total", "")
        entries = registry.gauge("loggrep_box_cache_entries", "")
        h0, m0, e0 = hits.value(), misses.value(), evictions.value()
        cache = BoxCache(1)
        cache.get("a")
        cache.put("a", 1)
        cache.get("a")
        cache.put("b", 2)  # evicts "a"
        assert hits.value() == h0 + 1
        assert misses.value() == m0 + 1
        assert evictions.value() == e0 + 1
        assert entries.value() == 1

    def test_pinning_respects_lru_bound(self, corpus):
        lg = LogGrep(
            config=LogGrepConfig(block_bytes=4 * 1024, box_cache_capacity=2)
        )
        lg.compress(corpus)
        assert len(lg.store.names()) > 2
        lg.pin_blocks_in_memory()
        assert len(lg._box_cache) == 2
        # Pinned or not, queries stay correct.
        assert lg.grep("read").count == lg.count("read")
        lg.unpin_blocks()
        assert len(lg._box_cache) == 0

    def test_session_grep_uses_pinned_boxes(self, corpus):
        lg = LogGrep(config=LogGrepConfig(block_bytes=8 * 1024))
        lg.compress(corpus)
        expected = grep_lines("ERROR", corpus)
        with lg.open_session() as session:
            assert session.grep("ERROR").lines == expected
            assert "physical plan" in session.explain("ERROR")
            assert session.queries_run == 1  # explain is not a query


# ----------------------------------------------------------------------
# plumbing: sources over stores
# ----------------------------------------------------------------------
class TestStoreBoxSource:
    def test_source_without_cache(self, store):
        source = StoreBoxSource(store.store)
        assert source.names() == store.store.names()
        assert source.cached(source.names()[0]) is None

    def test_executor_over_bare_source(self, store, corpus):
        executor = QueryExecutor(StoreBoxSource(store.store), store.config)
        result = executor.run("read", OutputMode.COUNT)
        assert result.count == len(grep_lines("read", corpus))
