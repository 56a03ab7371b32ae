"""Benchmark harness: runners, figure drivers and table rendering."""

from .runner import (
    BENCH_BLOCK_BYTES,
    DEFAULT_BASE_LINES,
    Measurement,
    SYSTEM_ORDER,
    base_lines,
    by_system,
    geomean,
    measure_system,
    run_suite,
    system_factories,
)

__all__ = [
    "Measurement",
    "SYSTEM_ORDER",
    "BENCH_BLOCK_BYTES",
    "DEFAULT_BASE_LINES",
    "base_lines",
    "by_system",
    "geomean",
    "measure_system",
    "run_suite",
    "system_factories",
]
