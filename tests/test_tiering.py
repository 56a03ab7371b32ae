"""Lifecycle tier engine: hot → warm → cold demotion, the cross-archive
shared template store, and the sidecar-rewrite guarantees.

The load-bearing regression here is the zero-read property: after a cold
demotion merges blocks, a time-pruned query against the rewritten archive
must cost **zero** block reads — the sidecar was rewritten with fresh v2
summaries (timestamps included) and the merged-away names discarded.
"""

from __future__ import annotations

import random

import pytest

from tests.conftest import make_mixed_lines
from repro.blockstore.index import load_index
from repro.blockstore.shared import SharedTemplateStore, as_resolver
from repro.blockstore.store import MemoryStore
from repro.capsule.box import FLAG_SHARED_TEMPLATES, CapsuleBox
from repro.common.errors import FormatError
from repro.common.timeparse import parse_age_arg
from repro.core.config import LogGrepConfig
from repro.core.lifecycle import (
    LifecycleManager,
    Tier,
    TierPolicy,
    archive_offline,
    load_tiers,
    tier_config,
)
from repro.core.loggrep import LogGrep
from repro.staticparse.cache import template_signature

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
        assert cold.use_block_bloom is False

    def test_tier_ranks_order(self):
        assert Tier.HOT.rank < Tier.WARM.rank < Tier.COLD.rank


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
    def test_rewrites_in_place_preserving_names_and_results(self):
        lines = make_mixed_lines(400, seed=3)
        lg = _build(lines, codec_speed_tier=True)
        names_before = list(lg.store.names())
        hits_before = lg.grep("state: ERR")
        manager = LifecycleManager(lg.store, lg.config)
        report = manager.demote(Tier.WARM)
        assert report.blocks_before == report.blocks_after == len(names_before)
        assert list(lg.store.names()) == names_before
        assert manager.tiers == {name: Tier.WARM for name in names_before}
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

    def test_pruned_query_costs_zero_reads_after_archive_offline(self):
        lines = _ts_lines(400, day=1)
        lg = _build(lines)
        store = CountingStore()
        offline, _ = archive_offline(lg, store=store)
        store.reads = 0
        reader = LogGrep(store=store, config=offline.config)
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


# ======================================================================
# the cross-archive shared template store
# ======================================================================
class TestSharedStore:
    def _cold_with_shared(self, lines, shared):
        lg = _build(lines)
        manager = LifecycleManager(lg.store, lg.config, shared=shared)
        manager.demote(Tier.COLD)
        return lg.store, manager

    def test_cold_boxes_carry_the_shared_flag(self):
        shared = SharedTemplateStore(MemoryStore())
        store, _ = self._cold_with_shared(make_mixed_lines(300, seed=9), shared)
        resolver = as_resolver(shared, store)
        for name in store.names():
            data = store.get(name)
            box = CapsuleBox.deserialize(data, templates=resolver)
            assert box.num_lines > 0
        # Flag byte is set in the container header.
        assert shared.total_bytes() > 0

    def test_second_identical_archive_dedups_fully(self):
        lines = make_mixed_lines(400, seed=10)
        shared = SharedTemplateStore(MemoryStore())
        self._cold_with_shared(lines, shared)
        bytes_after_first = shared.total_bytes()
        assert bytes_after_first > 0
        self._cold_with_shared(lines, shared)
        # Identical content → identical content ids → zero new bytes.
        assert shared.total_bytes() == bytes_after_first

    def test_shared_cold_tier_undercuts_per_archive_offline(self):
        """Three archives of one service — the same 40 templates and 120
        long low-cardinality values (3 000 lines, 64 KiB blocks): per-
        archive offline rewrites store those dictionaries three times,
        the shared store once, so cold-demoting into it costs at most
        85 % of the offline bytes (0.794 here)."""
        rng = random.Random(7)
        values = ["req-%024x" % rng.getrandbits(96) for _ in range(120)]
        lines = [
            f"T{1000 + i % 40} handler state: {values[rng.randrange(120)]} ok"
            for i in range(3000)
        ]

        def build():
            lg = LogGrep(
                store=MemoryStore(), config=LogGrepConfig(block_bytes=64 * 1024)
            )
            lg.compress(lines)
            return lg

        shared = SharedTemplateStore(MemoryStore())
        offline_bytes = shared_bytes = 0
        for _ in range(3):
            _, report = archive_offline(build())
            offline_bytes += report.offline_bytes
            lg = build()
            LifecycleManager(lg.store, lg.config, shared=shared).demote(Tier.COLD)
            shared_bytes += lg.storage_bytes()
        shared_bytes += shared.total_bytes()
        assert 0 < shared_bytes <= 0.85 * offline_bytes

    def test_shared_archive_queries_match_plain(self):
        lines = make_mixed_lines(400, seed=11)
        plain = _build(lines)
        want = plain.grep("read")
        shared = SharedTemplateStore(MemoryStore())
        store, manager = self._cold_with_shared(lines, shared)
        got = manager.open_reader().grep("read")
        assert got.lines == want.lines
        reader = LogGrep(
            store=store, config=LogGrepConfig(block_bytes=2048), templates=shared
        )
        assert reader.grep("read").lines == want.lines

    def test_opening_without_resolver_fails_actionably(self):
        shared = SharedTemplateStore(MemoryStore())
        store, _ = self._cold_with_shared(make_mixed_lines(300, seed=12), shared)
        name = store.names()[0]
        with pytest.raises(FormatError, match="resolver"):
            CapsuleBox.deserialize(store.get(name))
        # A resolver with neither store nor bank fails at resolve time
        # with a message that names the missing content.
        with pytest.raises(FormatError):
            CapsuleBox.deserialize(
                store.get(name), templates=as_resolver(None, store)
            ).groups  # resolution is eager: deserialize itself raises

    def test_export_bank_makes_archive_self_contained(self):
        shared = SharedTemplateStore(MemoryStore())
        lines = make_mixed_lines(300, seed=13)
        store, manager = self._cold_with_shared(lines, shared)
        size = manager.export_bank()
        assert size > 0
        # No shared store attached: the bank alone resolves everything.
        reader = LogGrep(store=store, config=LogGrepConfig(block_bytes=2048))
        assert reader.decompress_all() == lines


class TestTemplateSignature:
    def test_deterministic_and_content_addressed(self):
        key = ("worker", None, "read")
        assert template_signature(key) == template_signature(("worker", None, "read"))
        assert len(template_signature(key)) == 16
        assert template_signature(key) != template_signature(("worker", None, "write"))
        # None (a variable slot) and the empty string are distinct tokens.
        assert template_signature((None,)) != template_signature(("",))
