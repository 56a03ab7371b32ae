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

        def resolver(search):
            calls.append(search.text)
            return engine.search_string_rows(search)

        engine.execute(parse_query("ERROR AND read"), resolver)
        assert calls == ["ERROR", "read"]


class TestQueryCache:
    def test_miss_then_hit(self):
        cache = QueryCache()
        assert cache.get(0, "b0", "ERROR") is None
        rows = {0: RowSet.from_rows(4, [1])}
        cache.put(0, "b0", "ERROR", rows)
        assert cache.get(0, "b0", "ERROR") == rows
        assert cache.hits == 1 and cache.misses == 1

    def test_keyed_per_block(self):
        cache = QueryCache()
        cache.put(0, "b0", "q", {})
        assert cache.get(0, "b1", "q") is None

    def test_keyed_per_generation(self):
        cache = QueryCache()
        cache.put(3, "b0", "q", {})
        assert cache.get(4, "b0", "q") is None
        assert cache.get(3, "b0", "q") is not None

    def test_lru_eviction(self):
        cache = QueryCache(capacity=2)
        cache.put(0, "b", "q1", {})
        cache.put(0, "b", "q2", {})
        cache.get(0, "b", "q1")  # refresh q1
        cache.put(0, "b", "q3", {})  # evicts q2
        assert cache.get(0, "b", "q2") is None
        assert cache.get(0, "b", "q1") is not None

    def test_generation_advance_drops_stale_entries(self):
        from repro.obs.metrics import get_registry

        counter = get_registry().counter(
            "loggrep_query_cache_invalidations_total"
        )
        before = counter.value()
        cache = QueryCache()
        cache.set_generation(1)
        cache.put(1, "b0", "q", {})
        cache.put_shape(1, "b0", (4, 2))
        cache.set_generation(1)  # same token: nothing moves
        assert len(cache) == 2
        cache.set_generation(2)  # a block was rewritten
        assert len(cache) == 0
        assert cache.invalidations == 2
        assert counter.value() == before + 2

    def test_shape_lookups_are_uncounted(self):
        cache = QueryCache()
        assert cache.get_shape(0, "b0") is None
        cache.put_shape(0, "b0", (3, 0, 7))
        assert cache.get_shape(0, "b0") == (3, 0, 7)
        assert cache.hits == 0 and cache.misses == 0

    def test_clear(self):
        cache = QueryCache()
        cache.put(0, "b", "q", {})
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            QueryCache(capacity=0)


class TestCapsuleValueCache:
    def _capsule(self, values):
        from repro.capsule.capsule import Capsule

        return Capsule.pack_fixed(values)

    def test_decode_happens_once(self):
        from repro.query.cache import CapsuleValueCache

        cache = CapsuleValueCache(capacity_values=100)
        capsule = self._capsule(["a", "bb", "ccc"])
        calls = []

        def loader():
            calls.append(1)
            return capsule.values()

        assert cache.get(capsule, loader) == ["a", "bb", "ccc"]
        assert cache.get(capsule, loader) == ["a", "bb", "ccc"]
        assert len(calls) == 1

    def test_value_at_uses_cached_column(self):
        from repro.query.cache import CapsuleValueCache

        cache = CapsuleValueCache(capacity_values=100)
        capsule = self._capsule(["x", "y"])
        assert cache.value_at(capsule, 1) == "y"  # no column cached yet
        cache.get(capsule)
        assert cache.value_at(capsule, 0) == "x"

    def test_capacity_counts_values_not_entries(self):
        from repro.query.cache import CapsuleValueCache

        cache = CapsuleValueCache(capacity_values=5)
        big = self._capsule(["v"] * 4)
        small = self._capsule(["w"] * 2)
        cache.get(big)
        cache.get(small)  # 4 + 2 > 5 → big (LRU) must go
        assert cache.peek(big) is None
        assert cache.peek(small) is not None
        assert cache.cached_values == 2

    def test_oversized_column_not_cached(self):
        from repro.query.cache import CapsuleValueCache

        cache = CapsuleValueCache(capacity_values=3)
        capsule = self._capsule(["v"] * 10)
        assert cache.get(capsule) == ["v"] * 10
        assert len(cache) == 0

    def test_entry_dies_with_capsule(self):
        import gc

        from repro.query.cache import CapsuleValueCache

        cache = CapsuleValueCache(capacity_values=100)
        capsule = self._capsule(["a", "b"])
        cache.get(capsule)
        assert len(cache) == 1
        del capsule
        gc.collect()
        assert len(cache) == 0
        assert cache.cached_values == 0

    def test_set_capacity_shrinks(self):
        from repro.query.cache import CapsuleValueCache

        cache = CapsuleValueCache(capacity_values=100)
        keep = [self._capsule([str(i)] * 4) for i in range(5)]
        for capsule in keep:
            cache.get(capsule)
        cache.set_capacity(8)
        assert cache.cached_values <= 8
        assert cache.peek(keep[-1]) is not None  # most recent survives

    def test_capacity_validation(self):
        from repro.query.cache import CapsuleValueCache

        with pytest.raises(ValueError):
            CapsuleValueCache(capacity_values=0)

    def test_discard_reentrant_while_lock_held(self):
        """_discard is a weakref.finalize callback, so the GC can run it
        on the SAME thread while _store holds the cache lock (any
        allocation in the critical section may trigger a collection).
        With a non-reentrant lock that self-deadlocks; this pins the
        reentrant behavior without depending on GC timing."""
        import threading

        from repro.query.cache import CapsuleValueCache

        cache = CapsuleValueCache(capacity_values=10)
        capsule = self._capsule(["a", "b"])
        cache.get(capsule)

        done = threading.Event()

        def reenter():
            with cache._lock:  # what _store holds when GC fires
                cache._discard(id(capsule))
            done.set()

        worker = threading.Thread(target=reenter, daemon=True)
        worker.start()
        worker.join(timeout=5)
        assert done.is_set(), "ValueCache._discard deadlocked under its own lock"
        assert cache.peek(capsule) is None
