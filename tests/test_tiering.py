"""Lifecycle tier engine: hot → warm → cold demotion and the
sidecar-rewrite guarantees.

The load-bearing regression here is the zero-read property: after a cold
demotion merges blocks, a time-pruned query against the rewritten archive
must cost **zero** block reads — the sidecar was rewritten with fresh v2
summaries (timestamps included) and the merged-away names discarded.
"""

from __future__ import annotations

import random

import pytest

from tests.conftest import make_mixed_lines
from repro.baselines.evalutil import grep_lines
from repro.blockstore.block import parse_block_name
from repro.blockstore.index import INDEX_AUX_NAME, load_index
from repro.blockstore.store import MemoryStore
from repro.common.timeparse import parse_age_arg
from repro.core.config import LogGrepConfig
from repro.core.lifecycle import (
    LifecycleManager,
    Tier,
    TierPolicy,
    load_tiers,
    save_tiers,
    tier_config,
)
from repro.core.loggrep import LogGrep

DAY = 86400.0
#: 2024-01-01 00:00:00 UTC.
EPOCH_JAN1 = 1704067200.0


def _ts_lines(n, day, seed=0):
    """Timestamped mixed lines, all within 2024-01-<day>."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        stamp = f"2024-01-{day:02d} {i // 3600:02d}:{(i // 60) % 60:02d}:{i % 60:02d}"
        if i % 3 == 0:
            out.append(f"{stamp} T{1000 + rng.randrange(40)} bk.{rng.randrange(256):02X}.n read")
        elif i % 3 == 1:
            out.append(f"{stamp} T{1000 + rng.randrange(40)} state: "
                       f"{'ERR' if rng.randrange(4) == 0 else 'SUC'}#16{rng.randrange(100):02d}")
        else:
            out.append(f"{stamp} gc pause {rng.randrange(1, 500)}ms")
    return out


def _build(lines, store=None, **overrides):
    store = store if store is not None else MemoryStore()
    lg = LogGrep(store=store, config=LogGrepConfig(block_bytes=2048, **overrides))
    lg.compress(lines)
    return lg


class CountingStore(MemoryStore):
    """MemoryStore that counts block reads (aux sidecar reads are free —
    the sidecar is the thing that *saves* reads)."""

    def __init__(self):
        super().__init__()
        self.reads = 0

    def get(self, name):
        self.reads += 1
        return super().get(name)

    def get_range(self, name, offset, length):
        self.reads += 1
        return super().get_range(name, offset, length)


# ======================================================================
# tier configs and the age parser
# ======================================================================
class TestTierConfig:
    def test_hot_uses_speed_tier_codec(self):
        base = LogGrepConfig(block_bytes=2048)
        assert tier_config(Tier.HOT, base).codec_speed_tier is True

    def test_warm_is_archive_default(self):
        base = LogGrepConfig(block_bytes=2048, codec_speed_tier=True)
        warm = tier_config(Tier.WARM, base)
        assert warm.codec_speed_tier is False
        assert warm.preset == base.preset
        assert warm.block_bytes == base.block_bytes

    def test_cold_merges_and_maxes_preset(self):
        base = LogGrepConfig(block_bytes=2048)
        cold = tier_config(Tier.COLD, base)
        assert cold.preset == 9
        assert cold.block_bytes == 4 * base.block_bytes

    def test_tier_ranks_order(self):
        assert Tier.HOT.rank < Tier.WARM.rank < Tier.COLD.rank

    def test_hot_tier_at_preset_0_is_compressed(self):
        # The speed-tier codec at preset 0 writes a persisted archive like
        # any other: its Capsules go through the codec rule, not stored
        # raw as the hot tail's in-memory boxes are.
        lines = make_mixed_lines(2000, seed=8)
        config = tier_config(Tier.HOT, LogGrepConfig(block_bytes=32 * 1024, preset=0))
        lg = LogGrep(store=MemoryStore(), config=config)
        lg.compress(lines)
        compressed = 0
        for name in lg.store.names():
            usage = lg.executor.load_box(name).codec_usage()
            compressed += usage["zlib"]["capsules"] + usage["lzma"]["capsules"]
        assert compressed > 0
        for query in ("state: ERR", "read"):
            assert lg.grep(query).lines == grep_lines(query, lines)


class TestParseAgeArg:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3600", 3600.0),
            ("3600s", 3600.0),
            ("45m", 2700.0),
            ("12h", 43200.0),
            ("30d", 30 * 86400.0),
            ("2w", 2 * 604800.0),
            (" 5D ", 5 * 86400.0),
            ("0s", 0.0),
            ("1.5h", 5400.0),
        ],
    )
    def test_values(self, text, expected):
        assert parse_age_arg(text) == expected

    @pytest.mark.parametrize("text", ["", "soon", "d", "-1h", "3x"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_age_arg(text)


class TestTierPolicy:
    def test_age_thresholds(self):
        policy = TierPolicy()
        assert policy.tier_for(0.0) is Tier.HOT
        assert policy.tier_for(6 * DAY) is Tier.HOT
        assert policy.tier_for(7 * DAY) is Tier.WARM
        assert policy.tier_for(29 * DAY) is Tier.WARM
        assert policy.tier_for(30 * DAY) is Tier.COLD

    def test_query_rate_holds_at_warm(self):
        policy = TierPolicy(max_cold_queries_per_day=1.0)
        assert policy.tier_for(60 * DAY, queries_per_day=5.0) is Tier.WARM
        assert policy.tier_for(60 * DAY, queries_per_day=0.5) is Tier.COLD

    def test_recommend_applies_equation_1(self):
        policy = TierPolicy()
        # A real ratio gain: recompression pays off, COLD stands.
        assert (
            policy.recommend(
                60 * DAY,
                nearline_ratio=10.0,
                offline_ratio=20.0,
                recompress_speed_mb_s=50.0,
            )
            is Tier.COLD
        )
        # No ratio gain: break-even is infinite, held at WARM.
        assert (
            policy.recommend(
                60 * DAY,
                nearline_ratio=20.0,
                offline_ratio=20.0,
                recompress_speed_mb_s=50.0,
            )
            is Tier.WARM
        )
        # Without measured ratios the age decision stands unchecked.
        assert policy.recommend(60 * DAY) is Tier.COLD


# ======================================================================
# in-place demotion
# ======================================================================
class TestWarmDemotion:
    def test_rewrites_under_new_names_preserving_ids_and_results(self):
        lines = make_mixed_lines(400, seed=3)
        lg = _build(lines, codec_speed_tier=True)
        names_before = list(lg.store.names())
        hits_before = lg.grep("state: ERR")
        manager = LifecycleManager(lg.store, lg.config)
        report = manager.demote(Tier.WARM)
        assert report.blocks_before == report.blocks_after == len(names_before)
        # One new name per old one, with the same ids, in the same order.
        names_after = list(lg.store.names())
        assert not set(names_after) & set(names_before)
        assert [parse_block_name(name)[0] for name in names_after] == [
            parse_block_name(name)[0] for name in names_before
        ]
        assert manager.tiers == {name: Tier.WARM for name in names_after}
        after = manager.open_reader().grep("state: ERR")
        assert after.lines == hits_before.lines
        assert after.line_ids == hits_before.line_ids

    def test_demote_hot_rejected(self):
        manager = LifecycleManager(MemoryStore())
        with pytest.raises(ValueError):
            manager.demote(Tier.HOT)

    def test_warm_is_idempotent(self):
        lg = _build(make_mixed_lines(200, seed=4))
        manager = LifecycleManager(lg.store, lg.config)
        manager.demote(Tier.WARM)
        bytes_after_first = manager.status().total_bytes()
        report = manager.demote(Tier.WARM)  # nothing left below WARM
        assert report.bytes_after == bytes_after_first


class TestColdDemotion:
    def test_merges_blocks_and_preserves_results(self):
        lines = make_mixed_lines(600, seed=5)
        lg = _build(lines)
        hits_before = lg.grep("read")
        blocks_before = len(lg.store.names())
        assert blocks_before >= 3
        manager = LifecycleManager(lg.store, lg.config)
        report = manager.demote(Tier.COLD)
        assert report.blocks_after < blocks_before
        reader = manager.open_reader()
        after = reader.grep("read")
        assert after.lines == hits_before.lines
        assert after.line_ids == hits_before.line_ids
        assert reader.decompress_all() == lines
        assert all(tier is Tier.COLD for tier in manager.tiers.values())

    def test_merge_at_a_smaller_budget_keeps_every_line(self):
        """A manager whose cold budget is below the ingest block size must
        not number its output past the merged blocks: it would write over
        the younger blocks that follow and lose their lines."""
        lines = make_mixed_lines(1000, seed=9)
        lg = LogGrep(config=LogGrepConfig(block_bytes=8 * 1024))
        lg.compress(lines)
        names = lg.store.names()
        assert len(names) >= 4
        save_tiers(lg.store, {name: Tier.COLD for name in names[2:]})
        manager = LifecycleManager(lg.store, LogGrepConfig(block_bytes=256))
        manager.demote(Tier.COLD)
        assert lg.store.names()[-len(names[2:]) :] == names[2:]
        fresh = LogGrep(store=lg.store, config=lg.config)
        assert fresh.total_lines() == len(lines)
        assert fresh.decompress_all() == lines
        for query in ("read", "state: ERR", "ERROR"):
            assert fresh.grep(query).lines == grep_lines(query, lines)

    def test_cold_block_between_hot_ones_splits_the_merge(self):
        """A hand-edited tier map can mark a middle block COLD: the demote
        merges the HOT blocks on each side of it separately, so the lines
        after it keep their ids."""
        lines = make_mixed_lines(1000, seed=11)
        lg = LogGrep(config=LogGrepConfig(block_bytes=4 * 1024))
        lg.compress(lines)
        names = lg.store.names()
        assert len(names) >= 5
        save_tiers(lg.store, {names[2]: Tier.COLD})
        LifecycleManager(lg.store, lg.config).demote(Tier.COLD)
        assert names[2] in lg.store.names()
        fresh = LogGrep(store=lg.store, config=lg.config)
        assert fresh.total_lines() == len(lines)
        assert fresh.decompress_all() == lines
        for query in ("read", "state: ERR", "ERROR"):
            got = fresh.grep(query)
            assert got.lines == grep_lines(query, lines)
            assert [lines[i] for i in got.line_ids] == got.lines

    def test_status_accounts_every_block(self):
        lg = _build(make_mixed_lines(400, seed=6))
        manager = LifecycleManager(lg.store, lg.config)
        status = manager.status()
        assert status.blocks[Tier.HOT] == len(lg.store.names())
        manager.demote(Tier.COLD)
        status = manager.status()
        assert status.blocks[Tier.HOT] == status.blocks[Tier.WARM] == 0
        assert status.blocks[Tier.COLD] == len(lg.store.names())
        assert status.total_bytes() == sum(
            lg.store.size(n) for n in lg.store.names()
        )

    def test_tier_map_persists(self):
        lg = _build(make_mixed_lines(300, seed=7))
        LifecycleManager(lg.store, lg.config).demote(Tier.COLD)
        # A fresh manager over the same store reloads the map from the
        # tiers.json aux blob.
        reloaded = load_tiers(lg.store)
        assert reloaded == {n: Tier.COLD for n in lg.store.names()}
        assert LifecycleManager(lg.store).tiers == reloaded


class TestEligiblePrefix:
    def test_old_prefix_only(self):
        lines = _ts_lines(150, day=1) + _ts_lines(150, day=8, seed=1)
        lg = _build(lines)
        manager = LifecycleManager(lg.store, lg.config)
        now = EPOCH_JAN1 + 9 * DAY  # 2024-01-10
        eligible = manager.eligible_prefix(5 * DAY, now=now)
        names = list(lg.store.names())
        # Day-1 blocks qualify (age ≥ 9 days); day-8 blocks do not.
        assert 0 < len(eligible) < len(names)
        assert eligible == names[: len(eligible)]
        index = load_index(lg.store)
        for name in eligible:
            assert index.get(name).max_ts <= now - 5 * DAY
        assert index.get(names[len(eligible)]).max_ts > now - 5 * DAY

    def test_demote_respects_age_cutoff(self):
        lines = _ts_lines(150, day=1) + _ts_lines(150, day=8, seed=1)
        lg = _build(lines)
        hits = lg.grep("state: ERR")
        manager = LifecycleManager(lg.store, lg.config)
        now = EPOCH_JAN1 + 9 * DAY
        manager.demote(Tier.COLD, older_than_seconds=5 * DAY, now=now)
        status = manager.status()
        assert status.blocks[Tier.COLD] > 0
        assert status.blocks[Tier.HOT] > 0  # the young suffix stayed put
        after = manager.open_reader().grep("state: ERR")
        assert after.lines == hits.lines and after.line_ids == hits.line_ids

    def test_rebuilt_sidecar_keeps_time_ranges(self):
        lines = _ts_lines(150, day=1) + _ts_lines(150, day=8, seed=1)
        lg = _build(lines)
        committed = load_index(lg.store).blocks
        lg.store.delete_aux(INDEX_AUX_NAME)
        reopened = LogGrep(store=lg.store, config=lg.config)  # rebuilds it
        assert load_index(lg.store).blocks == committed
        assert all(s.max_ts is not None for s in committed.values())
        hits = reopened.grep("state: ERR")
        manager = LifecycleManager(lg.store, lg.config)
        now = EPOCH_JAN1 + 9 * DAY
        eligible = manager.eligible_prefix(5 * DAY, now=now)
        assert 0 < len(eligible) < len(committed)
        manager.demote(Tier.COLD, older_than_seconds=5 * DAY, now=now)
        status = manager.status()
        assert status.blocks[Tier.COLD] > 0
        assert status.blocks[Tier.HOT] > 0  # the young suffix stayed put
        after = manager.open_reader().grep("state: ERR")
        assert after.lines == hits.lines and after.line_ids == hits.line_ids

    def test_untimestamped_blocks_are_eligible(self):
        lg = _build(make_mixed_lines(200, seed=8))  # no timestamps at all
        manager = LifecycleManager(lg.store, lg.config)
        assert manager.eligible_prefix(365 * DAY) == list(lg.store.names())


# ======================================================================
# the sidecar-rewrite regression (satellite 1)
# ======================================================================
class TestSidecarRewrite:
    def test_cold_demote_rewrites_sidecar(self):
        lines = _ts_lines(400, day=1)
        lg = _build(lines)
        stale_names = set(lg.store.names())
        manager = LifecycleManager(lg.store, lg.config)
        manager.demote(Tier.COLD)
        index = load_index(lg.store)
        live_names = set(lg.store.names())
        # Exactly the live blocks are indexed; merged-away names are gone.
        assert set(index.blocks) == live_names
        assert not (stale_names - live_names) & set(index.blocks)
        # Fresh v2 summaries carry the merged blocks' time ranges.
        for name in live_names:
            summary = index.get(name)
            assert summary.min_ts is not None and summary.max_ts is not None
            assert EPOCH_JAN1 <= summary.min_ts <= summary.max_ts < EPOCH_JAN1 + DAY
            assert summary.num_lines > 0

    def test_pruned_query_costs_zero_reads_after_demote(self):
        """The satellite-1 acceptance test: a time-pruned query against a
        recompressed archive performs zero store reads."""
        lines = _ts_lines(400, day=1)
        store = CountingStore()
        _build(lines, store=store)
        LifecycleManager(store, LogGrepConfig(block_bytes=2048)).demote(Tier.COLD)
        store.reads = 0
        reader = LogGrep(store=store, config=LogGrepConfig(block_bytes=2048))
        # A window a month after every line: all blocks time-pruned.
        result = reader.grep(
            "state", from_time=EPOCH_JAN1 + 30 * DAY, to_time=EPOCH_JAN1 + 31 * DAY
        )
        assert result.count == 0
        assert store.reads == 0

    def test_in_window_query_still_correct_after_demote(self):
        lines = _ts_lines(400, day=1)
        lg = _build(lines)
        want = lg.grep("state: ERR", from_time=EPOCH_JAN1, to_time=EPOCH_JAN1 + DAY)
        manager = LifecycleManager(lg.store, lg.config)
        manager.demote(Tier.COLD)
        got = manager.open_reader().grep(
            "state: ERR", from_time=EPOCH_JAN1, to_time=EPOCH_JAN1 + DAY
        )
        assert got.lines == want.lines and got.line_ids == want.line_ids

