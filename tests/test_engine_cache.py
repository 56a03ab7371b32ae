"""Tests for the per-block query engine and the Query Cache."""

import pytest

from repro.baselines.evalutil import grep_lines
from repro.blockstore.block import LogBlock
from repro.core.compressor import compress_block
from repro.core.config import LogGrepConfig
from repro.query.cache import QueryCache
from repro.query.engine import BlockEngine
from repro.query.language import parse_query
from repro.common.rowset import RowSet
from tests.conftest import make_mixed_lines


@pytest.fixture(scope="module")
def engine_and_lines():
    lines = make_mixed_lines(500)
    box = compress_block(LogBlock(0, 0, lines), LogGrepConfig())
    return BlockEngine(box), lines


def hits_to_line_ids(box, hits):
    ids = []
    for group_idx, rows in hits.items():
        group = box.groups[group_idx]
        ids.extend(group.line_ids[row] for row in rows)
    return sorted(ids)


def reference_ids(lines, command):
    matched = set(grep_lines(command, lines))
    # grep_lines returns lines; map back to ids (duplicates share text, so
    # compare via per-line evaluation instead).
    from repro.baselines.evalutil import line_matches

    parsed = parse_query(command)
    return [i for i, line in enumerate(lines) if line_matches(parsed, line)]


QUERIES = [
    "ERROR",
    "read",
    "state: ERR",
    "ERR#16",
    "read AND bk.FF",
    "state: NOT SUC",
    "ERROR OR read",
    "write to file: AND code=3",
    "bk.F?.1*",
    "T1* AND read",
]


class TestEngine:
    @pytest.mark.parametrize("command", QUERIES)
    def test_matches_reference(self, engine_and_lines, command):
        engine, lines = engine_and_lines
        hits = engine.execute(parse_query(command))
        assert hits_to_line_ids(engine.box, hits) == reference_ids(lines, command)

    def test_no_hits(self, engine_and_lines):
        engine, _ = engine_and_lines
        assert engine.execute(parse_query("nosuchtoken")) == {}

    def test_template_hit_returns_full_groups(self, engine_and_lines):
        engine, lines = engine_and_lines
        hits = engine.execute(parse_query("read"))
        expected = reference_ids(lines, "read")
        assert hits_to_line_ids(engine.box, hits) == expected

    def test_resolver_hook_used(self, engine_and_lines):
        engine, _ = engine_and_lines
        calls = []

        def resolver(search, alive):
            calls.append((search.text, alive))
            return engine.search_string_rows(search, alive)

        hits = engine.execute(parse_query("ERROR AND read"), resolver)
        # The first term sees every row; the second only what survived it.
        first = engine.search_string_rows(parse_query("ERROR").disjuncts[0][0].search)
        assert calls == [("ERROR", None), ("read", first)]
        assert hits == engine.execute(parse_query("ERROR AND read"))


class TestQueryCache:
    def test_miss_then_hit(self):
        cache = QueryCache()
        assert cache.get("b0", "ERROR") is None
        rows = {0: RowSet.from_rows(4, [1])}
        cache.put("b0", "ERROR", rows)
        assert cache.get("b0", "ERROR") == rows
        assert cache.hits == 1 and cache.misses == 1

    def test_keyed_per_block(self):
        cache = QueryCache()
        cache.put("b0", "q", {})
        assert cache.get("b1", "q") is None

    def test_keyed_per_term(self):
        cache = QueryCache()
        cache.put("b0", "q", {})
        assert cache.get("b0", "r") is None
        assert cache.get("b0", "q") is not None

    def test_lru_eviction(self):
        cache = QueryCache(capacity=2)
        cache.put("b", "q1", {})
        cache.put("b", "q2", {})
        cache.get("b", "q1")  # refresh q1
        cache.put("b", "q3", {})  # evicts q2
        assert cache.get("b", "q2") is None
        assert cache.get("b", "q1") is not None

    def test_shape_lookups_are_uncounted(self):
        cache = QueryCache()
        assert cache.get_shape("b0") is None
        cache.put_shape("b0", (3, 0, 7))
        assert cache.get_shape("b0") == (3, 0, 7)
        assert cache.hits == 0 and cache.misses == 0

    def test_clear(self):
        cache = QueryCache()
        cache.put("b", "q", {})
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0

    def test_partial_entry_answers_only_inside_its_coverage(self):
        cache = QueryCache()
        coverage = {0: RowSet.from_rows(8, [1, 2, 3]), 1: RowSet.full(4)}
        rows = {0: RowSet.from_rows(8, [2]), 1: RowSet.from_rows(4, [0, 3])}
        cache.put("b", "q", rows, coverage)
        inside = {0: RowSet.from_rows(8, [1, 2]), 1: RowSet.from_rows(4, [3])}
        assert cache.get("b", "q", inside) == {
            0: RowSet.from_rows(8, [2]),
            1: RowSet.from_rows(4, [3]),
        }
        assert cache.get("b", "q", {0: RowSet.from_rows(8, [4])}) is None
        assert cache.get("b", "q", {2: RowSet.full(1)}) is None
        assert cache.get("b", "q") is None  # every row: not covered
        assert cache.hits == 1 and cache.misses == 3

    def test_widen_unions_rows_and_coverage(self):
        from repro.query.cache import covered_rows, widen

        first = ({0: RowSet.from_rows(8, [2])}, {0: RowSet.from_rows(8, [1, 2])})
        entry = widen(first, {0: RowSet.from_rows(8, [6])}, {0: RowSet.from_rows(8, [5, 6])})
        assert entry == (
            {0: RowSet.from_rows(8, [2, 6])},
            {0: RowSet.from_rows(8, [1, 2, 5, 6])},
        )
        assert covered_rows(entry, {0: RowSet.from_rows(8, [1, 5])}) == {}
        # A complete evaluation replaces the entry; a complete entry stays.
        complete = widen(entry, {0: RowSet.from_rows(8, [2, 6, 7])}, None)
        assert complete[1] is None
        assert widen(complete, {}, {0: RowSet.from_rows(8, [0])}) is complete
        assert covered_rows(complete, {0: RowSet.from_rows(8, [0])}) == complete[0]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            QueryCache(capacity=0)

    def test_hit_counter_counts_each_hit_once(self):
        """``loggrep_query_cache_hits_total`` counts lookups that hit: over
        one grep it rises exactly as much as the cache's own ``hits``."""
        from repro.core.loggrep import LogGrep
        from repro.obs.metrics import get_registry

        lg = LogGrep(config=LogGrepConfig(block_bytes=16 * 1024))
        lg.compress(make_mixed_lines(3000, seed=31))
        lg.grep("ERROR")
        counter = get_registry().counter("loggrep_query_cache_hits_total")
        before, hits = counter.value(), lg.fragments.hits
        result = lg.grep("ERROR AND state")
        assert result.stats.cache_hits > 0
        assert counter.value() - before == lg.fragments.hits - hits
        assert lg.fragments.hits - hits == result.stats.cache_hits
