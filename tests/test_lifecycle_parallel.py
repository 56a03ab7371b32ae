"""Tests for the lifecycle manager and parallel query execution."""

import pytest

from repro import LogGrep, LogGrepConfig
from repro.baselines.evalutil import grep_lines
from repro.core.lifecycle import (
    archive_offline,
    offline_config,
    transition_analysis,
)
from repro.cost.model import CostParameters
from tests.conftest import make_mixed_lines


@pytest.fixture(scope="module")
def nearline():
    lg = LogGrep(config=LogGrepConfig(block_bytes=8 * 1024))
    lg.compress(make_mixed_lines(900, seed=51))
    return lg


class TestOfflineArchiving:
    def test_offline_config(self):
        config = offline_config(LogGrepConfig(block_bytes=1 << 20))
        assert config.preset == 9
        assert config.block_bytes >= 4 << 20
        assert not config.use_block_bloom

    def test_rewrite_preserves_data(self, nearline):
        offline, report = archive_offline(nearline)
        assert offline.decompress_all() == nearline.decompress_all()
        assert report.raw_bytes == nearline.raw_bytes
        assert report.recompress_seconds > 0

    def test_offline_compresses_harder(self, nearline):
        offline, report = archive_offline(nearline)
        assert report.offline_blocks < report.nearline_blocks  # merged
        assert report.ratio_gain > 1.0  # smaller than near-line

    def test_offline_still_queryable(self, nearline):
        offline, _ = archive_offline(nearline)
        lines = nearline.decompress_all()
        assert offline.grep("ERROR").lines == grep_lines("ERROR", lines)


class TestTransitionAnalysis:
    def test_breakeven_math(self):
        analysis = transition_analysis(
            nearline_ratio=10.0, offline_ratio=20.0, recompress_speed_mb_s=2.0
        )
        # Monthly saving = 0.017*1000*(1/10 - 1/20) = 0.85 $/TB-month.
        assert analysis.nearline_monthly_per_tb == pytest.approx(1.7)
        assert analysis.offline_monthly_per_tb == pytest.approx(0.85)
        expected_cost = 0.016 * (1e12 / 2e6) / 3600
        assert analysis.recompression_cost_per_tb == pytest.approx(expected_cost)
        assert analysis.breakeven_months == pytest.approx(expected_cost / 0.85)

    def test_no_gain_never_breaks_even(self):
        analysis = transition_analysis(10.0, 10.0, 2.0)
        assert analysis.breakeven_months == float("inf")
        assert not analysis.worthwhile_within

    def test_validation(self):
        with pytest.raises(ValueError):
            transition_analysis(0, 1, 1)

    def test_custom_params(self):
        cheap_cpu = CostParameters(cpu_dollars_per_hour=0.001)
        fast = transition_analysis(5.0, 10.0, 2.0, cheap_cpu)
        default = transition_analysis(5.0, 10.0, 2.0)
        assert fast.breakeven_months < default.breakeven_months


class TestParallelQueries:
    def test_parallel_matches_serial(self):
        lines = make_mixed_lines(900, seed=52)
        serial = LogGrep(config=LogGrepConfig(block_bytes=8 * 1024))
        serial.compress(lines)
        parallel = LogGrep(
            config=LogGrepConfig(block_bytes=8 * 1024, query_parallelism=4)
        )
        parallel.compress(lines)
        for command in ["ERROR", "read AND bk.FF", "state: NOT SUC"]:
            assert parallel.grep(command).lines == serial.grep(command).lines

    def test_parallel_cache_shared(self):
        lines = make_mixed_lines(500, seed=53)
        lg = LogGrep(config=LogGrepConfig(block_bytes=8 * 1024, query_parallelism=4))
        lg.compress(lines)
        lg.grep("ERROR")
        assert len(lg.fragments) > 0  # workers populated the shared cache
        again = lg.grep("ERROR")
        assert again.lines == grep_lines("ERROR", lines)
