"""Tests for the compression scheduler and the template warm-start cache."""

import time

import pytest

from repro.blockstore.block import LogBlock, block_name, split_lines
from repro.blockstore.store import MemoryStore
from repro.core.config import LogGrepConfig
from repro.core.schedule import CompressionScheduler
from repro.obs.metrics import get_registry
from repro.obs.trace import tracing
from repro.staticparse.cache import TemplateCache, template_key
from repro.staticparse.parser import BlockParser
from repro.staticparse.template import Template
from tests.conftest import make_mixed_lines

CONFIG = LogGrepConfig(block_bytes=4 * 1024)


def make_blocks(lines, config=CONFIG):
    blocks = []
    next_line = 0
    for block in split_lines(lines, config.block_bytes):
        block.first_line_id = next_line
        next_line += block.num_lines
        blocks.append(block)
    return blocks


class TestTemplateCache:
    def test_merge_dedupes_and_orders(self):
        cache = TemplateCache()
        a = template_key(Template(0, ["read", None]))
        b = template_key(Template(1, ["write", None, "done"]))
        assert cache.merge([a, b, a]) == 2
        assert cache.merge([a]) == 0
        assert cache.snapshot() == [a, b]
        assert len(cache) == 2
        assert a in cache

    def test_catch_all_templates_rejected(self):
        """All-variable templates would absorb every same-width line of
        later blocks, so the cache refuses them."""
        cache = TemplateCache()
        assert cache.merge([(None, None, None)]) == 0
        assert len(cache) == 0

    def test_clear(self):
        cache = TemplateCache()
        cache.merge([template_key(Template(0, ["x", None]))])
        cache.clear()
        assert len(cache) == 0


class TestWarmStartParse:
    def test_cold_cache_trips_drift_guard(self):
        lines = make_mixed_lines(300, seed=1)
        cache = TemplateCache()
        parser = BlockParser(seed=1)
        parsed, outcome = parser.parse_cached(lines, cache)
        assert outcome.remined
        assert outcome.cache_hits == 0
        assert len(cache) > 0  # seeded for the next block
        # A remined parse is exactly a fresh parse.
        fresh = parser.parse(lines)
        assert [t.tokens for t in parsed.templates] == [
            t.tokens for t in fresh.templates
        ]

    def test_warm_cache_assigns_without_mining(self):
        lines = make_mixed_lines(300, seed=1)
        cache = TemplateCache()
        parser = BlockParser(seed=1)
        parser.parse_cached(lines, cache)  # seed
        repeat = make_mixed_lines(300, seed=2)  # same shapes, new values
        parsed, outcome = parser.parse_cached(repeat, cache)
        assert not outcome.remined
        assert outcome.cache_hits > outcome.cache_misses
        assert outcome.hit_rate > 0.5
        # Coverage stays total: every line landed in a group.
        assert sum(g.num_entries for g in parsed.groups) == len(repeat)

    def test_warm_parse_round_trips(self):
        lines = make_mixed_lines(400, seed=3)
        cache = TemplateCache()
        parser = BlockParser(seed=3)
        parser.parse_cached(lines, cache)
        repeat = make_mixed_lines(400, seed=4)
        parsed, _ = parser.parse_cached(repeat, cache)
        rebuilt = {}
        for group in parsed.groups:
            for row, line_id in enumerate(group.line_ids):
                rebuilt[line_id] = group.render_entry(row)
        assert [rebuilt[i] for i in range(len(repeat))] == repeat

    def test_drift_guard_remines_on_format_change(self):
        cache = TemplateCache()
        parser = BlockParser(seed=5)
        parser.parse_cached(make_mixed_lines(300, seed=5), cache)
        # A completely different format: the cache matches almost nothing.
        alien = [f"kernel: oom-killer invoked pid={i} rss={i * 7}" for i in range(200)]
        _, outcome = parser.parse_cached(alien, cache)
        assert outcome.remined
        assert outcome.cache_misses == len(alien)

    def test_warm_start_spans_emitted(self):
        cache = TemplateCache()
        parser = BlockParser(seed=6)
        with tracing() as tracer:
            with tracer.span("root") as root:
                parser.parse_cached(make_mixed_lines(200, seed=6), cache)
                parser.parse_cached(make_mixed_lines(200, seed=7), cache)
        assert root.find("parse_cached")
        assert root.find("mine_fallback")

    def test_cached_parse_faster_than_fresh_mine(self):
        """The acceptance-criterion timing: on a repeat block, assigning
        against cached templates beats re-mining from a sample.  A high
        sample rate makes mining the dominant cost, as with production
        blocks (millions of lines through the miner)."""
        lines = make_mixed_lines(3000, seed=11)
        parser = BlockParser(sample_rate=0.5, seed=11)
        cache = TemplateCache()
        parser.parse_cached(lines, cache)  # seed the cache

        def best_of(fn, rounds=3):
            best = float("inf")
            for _ in range(rounds):
                start = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - start)
            return best

        warm = best_of(lambda: parser.parse_cached(lines, cache))
        fresh = best_of(lambda: parser.parse(lines))
        assert warm < fresh, f"warm {warm:.4f}s not faster than fresh {fresh:.4f}s"

    def test_cache_hit_metric_exported(self):
        registry = get_registry()
        hits = registry.counter("loggrep_template_cache_hits_total")
        before = hits.value()
        cache = TemplateCache()
        parser = BlockParser(seed=8)
        parser.parse_cached(make_mixed_lines(200, seed=8), cache)
        parser.parse_cached(make_mixed_lines(200, seed=9), cache)
        assert hits.value() > before
        assert "loggrep_template_cache_hits_total" in registry.to_prometheus()


class TestCompressionScheduler:
    def test_commit_hook_runs_in_block_order(self):
        lines = make_mixed_lines(500, seed=22)
        committed = []
        scheduler = CompressionScheduler(
            MemoryStore(),
            CONFIG,
            template_cache=TemplateCache(),
            on_commit=lambda name, block, data: committed.append(name),
        )
        with scheduler:
            blocks = make_blocks(lines)
            for block in blocks:
                scheduler.submit(block)
        assert committed == [block_name(b.block_id) for b in blocks]

    def test_rejects_bad_configuration(self):
        # Ingest encodes on the calling thread: no other width exists.
        for width in (0, 2):
            with pytest.raises(ValueError):
                LogGrepConfig(compress_parallelism=width)

    def test_submit_after_close_rejected(self):
        scheduler = CompressionScheduler(MemoryStore(), CONFIG)
        scheduler.close()
        with pytest.raises(RuntimeError):
            scheduler.submit(LogBlock(0, 0, ["x"]))

    def test_stage_timing_metrics_observed(self):
        registry = get_registry()
        parse_hist = registry.histogram("loggrep_compress_parse_seconds")
        encode_hist = registry.histogram("loggrep_compress_encode_seconds")
        before = parse_hist.count()
        scheduler = CompressionScheduler(
            MemoryStore(), CONFIG, template_cache=TemplateCache()
        )
        with scheduler:
            for block in make_blocks(make_mixed_lines(300, seed=24)):
                scheduler.submit(block)
        assert parse_hist.count() > before
        assert encode_hist.count() == parse_hist.count()

    def test_without_template_cache_matches_legacy_blocks(self):
        """cache=None compresses every block exactly like compress_block."""
        from repro.core.compressor import compress_block

        lines = make_mixed_lines(400, seed=25)
        store = MemoryStore()
        scheduler = CompressionScheduler(store, CONFIG, template_cache=None)
        blocks = make_blocks(lines)
        with scheduler:
            for block in blocks:
                scheduler.submit(block)
        for block in blocks:
            expected = compress_block(block, CONFIG).serialize()
            assert store.get(block_name(block.block_id)) == expected
