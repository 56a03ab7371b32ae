"""Tests for the query planner (logical plan IR) and the operator-pipeline
executor: term ordering, output modes, schedulers, the box pin map,
session pins and the executor-level match memo."""

import pytest

from repro import LogGrep, LogGrepConfig
from repro.baselines.evalutil import grep_lines
from repro.capsule.box import CapsuleBox
from repro.core import loggrep as loggrep_module
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
            "BlockFilter -> LoadBox -> Locate -> "
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

        name = store.store.names()[0]
        box = CapsuleBox.deserialize(store.store.get(name))
        engine = BlockEngine(box, store.config.query_settings())
        engine.search_string_rows(parse_query("read").disjuncts[0][0].search)
        # The readers belong to the box: every engine over it shares them.
        assert engine.readers is BlockEngine(box).readers
        assert isinstance(engine.readers, dict) and engine.readers


# ----------------------------------------------------------------------
# the box pin map and the sessions that fill it
# ----------------------------------------------------------------------
class TestBoxCache:
    def test_unpin_of_unheld_name_is_noop(self):
        cache = BoxCache()
        cache.unpin("a")
        cache.pin("a", "box-a")
        cache.unpin("b")
        assert len(cache) == 1
        assert cache.get("a") == "box-a"

    def test_last_unpin_drops_box(self):
        cache = BoxCache()
        cache.pin("a", "box-a")
        cache.pin("b", "box-b")
        cache.pin("c", "box-c")
        cache.unpin("a")
        assert len(cache) == 2
        assert "a" not in cache
        assert cache.get("a") is None
        assert cache.get("b") == "box-b"

    def test_pins_are_counted(self):
        cache = BoxCache()
        cache.pin("a", 1)
        cache.pin("a", 2)  # the box already held stays
        assert cache.get("a") == 1
        cache.unpin("a")
        assert "a" in cache
        cache.unpin("a")
        assert "a" not in cache

    def test_clear(self):
        cache = BoxCache()
        cache.pin("a", 1)
        cache.pin("b", 2)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_a_pin_dropped_by_clear_is_not_released_again(self):
        cache = BoxCache()
        cache.pin("a", 1)
        old = cache.generation
        cache.clear()
        cache.pin("a", 2)
        cache.unpin("a", old)
        assert cache.get("a") == 2
        cache.unpin("a", cache.generation)
        assert "a" not in cache

    def test_metrics_track_cache_activity(self):
        registry = get_registry()
        hits = registry.counter("loggrep_box_cache_hits_total", "")
        misses = registry.counter("loggrep_box_cache_misses_total", "")
        entries = registry.gauge("loggrep_box_cache_entries", "")
        h0, m0 = hits.value(), misses.value()
        cache = BoxCache()
        cache.get("a")
        cache.pin("a", 1)
        cache.get("a")
        cache.pin("b", 2)
        cache.unpin("a")
        assert hits.value() == h0 + 1
        assert misses.value() == m0 + 1
        assert entries.value() == 1

    def test_session_pins_newest_blocks(self, corpus, monkeypatch):
        monkeypatch.setattr(loggrep_module, "MAX_PINNED_BOXES", 2)
        lg = LogGrep(config=LogGrepConfig(block_bytes=4 * 1024))
        lg.compress(corpus)
        names = lg.store.names()
        assert len(names) > 2
        with lg.open_session():
            assert len(lg._box_cache) == 2
            assert all(name in lg._box_cache for name in names[-2:])
            # Pinned or not, queries stay correct.
            assert lg.grep("read").count == lg.count("read")
            lg.unpin_blocks()  # drops every session's pins
            assert len(lg._box_cache) == 0

    def test_session_grep_uses_pinned_boxes(self, corpus):
        lg = LogGrep(config=LogGrepConfig(block_bytes=8 * 1024))
        lg.compress(corpus)
        expected = grep_lines("ERROR", corpus)
        with lg.open_session() as session:
            assert session.grep("ERROR").lines == expected
            assert "physical plan" in session.explain("ERROR")
            assert session.queries_run == 1  # explain is not a query


class TestSessionPins:
    """Sessions over an archive of more blocks than one session pins."""

    @pytest.fixture(scope="class")
    def wide(self):
        lines = make_mixed_lines(12000, seed=5)
        lg = LogGrep(config=LogGrepConfig(block_bytes=4 * 1024))
        lg.compress(lines)
        assert len(lg.store.names()) > loggrep_module.MAX_PINNED_BOXES
        return lg.store, lines

    @staticmethod
    def _spy_opens(monkeypatch):
        """The block name of every ``CapsuleBox.open``."""
        opened = []
        real = CapsuleBox.open

        def spy(cls, source):
            opened.append(source.name)
            return real(source)

        monkeypatch.setattr(CapsuleBox, "open", classmethod(spy))
        return opened

    def test_each_block_opens_once_per_handle(self, wide, monkeypatch):
        store, lines = wide
        lg = LogGrep(store=store)
        opened = self._spy_opens(monkeypatch)
        newest = store.names()[-loggrep_module.MAX_PINNED_BOXES:]
        with lg.open_session() as first:
            assert opened == newest
            opened.clear()
            with lg.open_session() as second:
                assert opened == []
                for session in (first, second):
                    assert session.grep("ERROR").lines == grep_lines("ERROR", lines)

    def test_close_releases_only_own_pins(self, wide, monkeypatch):
        store, lines = wide
        lg = LogGrep(store=store)
        newest = store.names()[-loggrep_module.MAX_PINNED_BOXES:]
        first = lg.open_session()
        second = lg.open_session()
        first.close()
        assert len(lg._box_cache) == len(newest)
        assert all(name in lg._box_cache for name in newest)
        opened = self._spy_opens(monkeypatch)
        lg.clear_query_cache()
        assert second.grep("state").lines == grep_lines("state", lines)
        assert opened and not set(opened) & set(newest)
        first.close()  # a second close releases nothing
        assert len(lg._box_cache) == len(newest)
        second.close()
        assert len(lg._box_cache) == 0
        assert lg.grep("state").lines == grep_lines("state", lines)

    def test_a_session_closed_after_unpin_blocks_keeps_newer_pins(self, corpus):
        lg = LogGrep(config=LogGrepConfig(block_bytes=1800))
        lg.compress(corpus)
        names = lg.store.names()
        assert len(names) == 10
        first = lg.open_session()
        lg.unpin_blocks()
        assert len(lg._box_cache) == 0
        with lg.open_session():
            first.close()
            assert len(lg._box_cache) == 10
            assert all(name in lg._box_cache for name in names)
        assert len(lg._box_cache) == 0
        # With no session open, unpin_blocks still empties the cache.
        with lg.open_session():
            pass
        lg.open_session()
        lg.unpin_blocks()
        assert len(lg._box_cache) == 0


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
