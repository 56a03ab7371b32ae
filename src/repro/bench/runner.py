"""Measurement harness driving all five systems over the dataset suite.

For every (dataset, system) pair the runner records the three quantities
Fig 7 plots — query latency (the dataset's Table 1 query, direct mode),
compression ratio and compression speed — plus the raw sizes Equation 1
needs.  ``REPRO_SCALE`` (base lines per dataset, default 2000) trades
runtime for fidelity; relative dataset sizes follow each spec's
``size_factor`` like the paper's logs do.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..baselines.base import LogStoreSystem
from ..baselines.clp import CLP
from ..baselines.elastic import MiniElastic
from ..baselines.gzip_grep import GzipGrep
from ..baselines.loggrep_sp import LogGrepSP
from ..baselines.loggrep_system import LogGrepSystem
from ..core.config import LogGrepConfig
from ..workloads.spec import LogSpec

#: Lines generated per unit of size_factor; override with REPRO_SCALE.
DEFAULT_BASE_LINES = 2000

#: Block size used for all blocked systems at laptop scale (the 64 MB
#: production value would put every test dataset in a single block).
BENCH_BLOCK_BYTES = 1 << 20

#: The five systems of Fig 7/8, in the paper's plotting order.
SYSTEM_ORDER = ("ggrep", "CLP", "ES", "LG-SP", "LG")


def base_lines() -> int:
    return int(os.environ.get("REPRO_SCALE", DEFAULT_BASE_LINES))


def system_factories() -> Dict[str, Callable[[], LogStoreSystem]]:
    def _lg_config() -> LogGrepConfig:
        return LogGrepConfig(block_bytes=BENCH_BLOCK_BYTES)

    return {
        "ggrep": lambda: GzipGrep(block_bytes=BENCH_BLOCK_BYTES),
        "CLP": CLP,
        "ES": MiniElastic,
        "LG-SP": lambda: LogGrepSP(_lg_config()),
        "LG": lambda: LogGrepSystem(_lg_config()),
    }


@dataclass
class Measurement:
    """One (dataset, system) data point."""

    dataset: str
    system: str
    raw_bytes: int
    storage_bytes: int
    compression_ratio: float
    compression_speed_mb_s: float
    query_latency_s: float
    hits: int
    query: str

    @property
    def query_latency_s_per_tb(self) -> float:
        """Latency extrapolated linearly to a TB of raw logs (Eq 1 input)."""
        if self.raw_bytes == 0:
            return 0.0
        return self.query_latency_s * (1e12 / self.raw_bytes)


def measure_system(
    spec: LogSpec,
    lines: Sequence[str],
    factory: Callable[[], LogStoreSystem],
    query_repeats: int = 1,
) -> Measurement:
    """Ingest *lines* into a fresh system and run the dataset's query."""
    system = factory()
    system.ingest(list(lines))
    best = float("inf")
    hits: List[str] = []
    for _ in range(max(1, query_repeats)):
        got, elapsed = system.timed_query(spec.query)
        hits = got
        best = min(best, elapsed)
    return Measurement(
        dataset=spec.name,
        system=system.name,
        raw_bytes=system.raw_bytes,
        storage_bytes=system.storage_bytes(),
        compression_ratio=system.compression_ratio(),
        compression_speed_mb_s=system.compression_speed_mb_s(),
        query_latency_s=best,
        hits=len(hits),
        query=spec.query,
    )


def run_suite(
    specs: Sequence[LogSpec],
    systems: Optional[Sequence[str]] = None,
    lines_per_spec: Optional[int] = None,
) -> List[Measurement]:
    """Measure every (dataset, system) pair of the suite."""
    factories = system_factories()
    chosen = list(systems) if systems else list(SYSTEM_ORDER)
    base = lines_per_spec if lines_per_spec is not None else base_lines()
    out: List[Measurement] = []
    for spec in specs:
        lines = spec.generate(base)
        for name in chosen:
            out.append(measure_system(spec, lines, factories[name]))
    return out


def by_system(measurements: Sequence[Measurement]) -> Dict[str, List[Measurement]]:
    grouped: Dict[str, List[Measurement]] = {}
    for m in measurements:
        grouped.setdefault(m.system, []).append(m)
    return grouped


def geomean(values: Sequence[float]) -> float:
    positives = [v for v in values if v > 0]
    if not positives:
        return 0.0
    product = 1.0
    for v in positives:
        product *= v
    return product ** (1.0 / len(positives))
