"""Smoke tests for the benchmark harness and figure drivers."""

import pytest

from repro.bench.figures import (
    figure3,
    figure8,
    figure9,
    is_single_pattern,
    padding_effect,
    refining_commands,
    section23_stats,
)
from repro.bench.report import format_table
from repro.bench.runner import (
    Measurement,
    by_system,
    geomean,
    measure_system,
    run_suite,
    system_factories,
)
from repro.workloads import production_specs, spec_by_name


@pytest.fixture(scope="module")
def tiny_suite():
    specs = production_specs()[:2]
    return specs, run_suite(specs, lines_per_spec=400)


class TestRunner:
    def test_measurements_complete(self, tiny_suite):
        specs, measurements = tiny_suite
        assert len(measurements) == len(specs) * 5
        for m in measurements:
            assert m.compression_ratio > 0
            assert m.compression_speed_mb_s > 0
            assert m.query_latency_s > 0
            assert m.hits > 0

    def test_all_systems_same_hits(self, tiny_suite):
        _, measurements = tiny_suite
        for dataset, group in by_system(measurements).items():
            pass
        per_dataset = {}
        for m in measurements:
            per_dataset.setdefault(m.dataset, set()).add(m.hits)
        for dataset, hit_counts in per_dataset.items():
            assert len(hit_counts) == 1, f"{dataset}: {hit_counts}"

    def test_latency_per_tb_extrapolation(self):
        m = Measurement("d", "s", 10**9, 1, 1.0, 1.0, 0.001, 1, "q")
        assert m.query_latency_s_per_tb == pytest.approx(1.0)

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([]) == 0.0

    def test_system_factories_complete(self):
        assert set(system_factories()) == {"ggrep", "CLP", "ES", "LG-SP", "LG"}

    def test_measure_single_system(self):
        spec = spec_by_name("Log C")
        lines = spec.generate(300)
        m = measure_system(spec, lines, system_factories()["LG"])
        assert m.system == "LG"
        assert m.dataset == "Log C"


class TestFigureDrivers:
    def test_figure3_buckets(self):
        buckets = figure3(production_specs()[:2], 400)
        assert len(buckets) == 10
        assert sum(b.single + b.multi for b in buckets) > 0
        # The real-vector assumption: low-duplication vectors are nearly
        # all single-pattern.
        low = [b for b in buckets[:5]]
        assert sum(b.single for b in low) >= sum(b.multi for b in low)

    def test_is_single_pattern(self):
        assert is_single_pattern([f"blk_{i}" for i in range(50)])
        assert not is_single_pattern(
            ["%x.9" % i for i in range(25)] + [f"word-{i}!" for i in range(25)]
        )

    def test_section23_ordering(self):
        stats = section23_stats(production_specs()[:3], 400)
        # Finer granularity ⇒ fewer char classes (the §2.2/§2.3 claim).
        assert stats.block_char_types >= stats.vector_char_types
        assert stats.vector_char_types >= stats.subvar_char_types
        assert stats.block_length_variance >= stats.vector_length_variance

    def test_figure8_costs(self, tiny_suite):
        _, measurements = tiny_suite
        costs = figure8(measurements)
        assert set(costs) == {"ggrep", "CLP", "ES", "LG-SP", "LG"}
        assert costs["LG"].total < costs["ggrep"].total

    def test_refining_commands(self):
        commands = refining_commands("a and b not c")
        assert commands == ["a", "a and b", "a and b not c"]

    def test_figure9_smoke(self):
        results = figure9(production_specs()[:1], 400, ablations=("w/o stamp",))
        assert set(results) == {"w/o stamp"}
        assert results["w/o stamp"] > 0

    def test_padding_effect(self):
        effect = padding_effect(production_specs()[:1], 400)
        (value,) = effect.values()
        # §6.3: padding is roughly free (0.99x-1.10x in the paper).
        assert 0.7 < value < 1.5


class TestReportHelpers:
    def test_format_table(self):
        text = format_table(["a", "bb"], [["1", "2"], ["33", "4"]])
        lines = text.split("\n")
        assert len(lines) == 4
        assert "--" in lines[1]
