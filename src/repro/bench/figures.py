"""Experiment drivers regenerating every table and figure of the paper.

Each function returns plain data structures (and can pretty-print them),
so the pytest benchmarks and ad-hoc exploration share one
implementation:

* :func:`figure3`  — single- vs multi-pattern vectors by duplication rate
* :func:`section23_stats` — char-type/length-variance averages of §2.2/§2.3
* :func:`figure7_summary` — the cross-system ratios quoted in §6.1/§6.2
* :func:`figure8` — Equation-1 overall cost per system (Fig 8a/b)
* :func:`figure9` — per-technique ablations, normalized latency (Fig 9)
* :func:`padding_effect` — padding's compression-ratio impact (§6.3)
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..baselines.loggrep_system import LogGrepSystem
from ..common import chartypes
from ..core.config import ABLATIONS, LogGrepConfig, ablated
from ..cost.model import CostBreakdown, CostParameters, overall_cost
from ..query.language import parse_query
from ..runtime.classify import duplication_rate
from ..runtime.treeexpand import TreeExpandConfig, extract_real_pattern
from ..staticparse.parser import BlockParser
from ..workloads.spec import LogSpec
from .runner import (
    BENCH_BLOCK_BYTES,
    Measurement,
    by_system,
    geomean,
)

#: A pattern is "single" when it covers ≥90% of the vector (§4.1).
SINGLE_PATTERN_COVERAGE = 0.9

#: Vectors shorter than this carry no classification signal.
MIN_VECTOR_VALUES = 20


# ----------------------------------------------------------------------
# Figure 3
# ----------------------------------------------------------------------
@dataclass
class Fig3Bucket:
    low: float
    high: float
    single: int
    multi: int


def harvest_vectors(
    specs: Sequence[LogSpec], lines_per_spec: int
) -> List[List[str]]:
    """Parse every dataset and collect its variable vectors."""
    vectors: List[List[str]] = []
    parser = BlockParser()
    for spec in specs:
        parsed = parser.parse(spec.generate(lines_per_spec))
        for group in parsed.groups:
            for vector in group.variable_vectors:
                if len(vector) >= MIN_VECTOR_VALUES:
                    vectors.append(vector)
    return vectors


def is_single_pattern(vector: Sequence[str]) -> bool:
    """Does one extracted pattern cover ≥90% of the vector's values?"""
    pattern = extract_real_pattern(vector, TreeExpandConfig(sample_rate=1.0))
    if pattern.is_trivial:
        # A bare <*> technically covers everything but represents "no
        # pattern found"; call it single only if the values are uniform.
        return len(set(vector)) == 1
    _, outlier_rows, _ = pattern.split(vector)
    return len(vector) - len(outlier_rows) >= SINGLE_PATTERN_COVERAGE * len(vector)


def figure3(
    specs: Sequence[LogSpec], lines_per_spec: int, buckets: int = 10
) -> List[Fig3Bucket]:
    """Distribution of single-/multi-pattern vectors vs duplication rate."""
    out = [
        Fig3Bucket(i / buckets, (i + 1) / buckets, 0, 0) for i in range(buckets)
    ]
    for vector in harvest_vectors(specs, lines_per_spec):
        rate = duplication_rate(vector)
        idx = min(int(rate * buckets), buckets - 1)
        if is_single_pattern(vector):
            out[idx].single += 1
        else:
            out[idx].multi += 1
    return out


# ----------------------------------------------------------------------
# §2.2 / §2.3 statistics
# ----------------------------------------------------------------------
@dataclass
class StructureStats:
    """The six averages quoted in §2.2 and §2.3."""

    vector_char_types: float  # paper: 3.1
    vector_length_variance: float  # paper: 66.1
    block_char_types: float  # paper: 5.8
    block_length_variance: float  # paper: 198.5
    subvar_char_types: float  # paper: 1.5
    subvar_length_variance: float  # paper: 32.5


def _classes_and_variance(values: Sequence[str]) -> Tuple[int, float]:
    mask = chartypes.type_mask_of_values(values)
    lengths = [len(v) for v in values]
    variance = statistics.pvariance(lengths) if len(lengths) > 1 else 0.0
    return chartypes.class_count(mask), variance


def section23_stats(
    specs: Sequence[LogSpec], lines_per_spec: int
) -> StructureStats:
    vec_types: List[int] = []
    vec_vars: List[float] = []
    blk_types: List[int] = []
    blk_vars: List[float] = []
    sub_types: List[int] = []
    sub_vars: List[float] = []
    parser = BlockParser()
    for spec in specs:
        parsed = parser.parse(spec.generate(lines_per_spec))
        block_values: List[str] = []
        for group in parsed.groups:
            for vector in group.variable_vectors:
                if len(vector) < MIN_VECTOR_VALUES:
                    continue
                block_values.extend(vector)
                types, variance = _classes_and_variance(vector)
                vec_types.append(types)
                vec_vars.append(variance)
                pattern = extract_real_pattern(vector)
                columns, _, _ = pattern.split(vector)
                for column in columns:
                    if len(column) >= MIN_VECTOR_VALUES:
                        types, variance = _classes_and_variance(
                            [cell.decode() for cell in column]
                        )
                        sub_types.append(types)
                        sub_vars.append(variance)
        if block_values:
            types, variance = _classes_and_variance(block_values)
            blk_types.append(types)
            blk_vars.append(variance)
    mean = lambda xs: statistics.fmean(xs) if xs else 0.0  # noqa: E731
    return StructureStats(
        mean(vec_types),
        mean(vec_vars),
        mean(blk_types),
        mean(blk_vars),
        mean(sub_types),
        mean(sub_vars),
    )


# ----------------------------------------------------------------------
# Figure 7
# ----------------------------------------------------------------------
def figure7_summary(
    measurements: Sequence[Measurement],
) -> Dict[str, Dict[str, float]]:
    """Geomean cross-system ratios: LG latency/ratio/speed vs each system."""
    grouped = by_system(measurements)
    lg = {m.dataset: m for m in grouped.get("LG", [])}
    summary: Dict[str, Dict[str, float]] = {}
    for system, ms in grouped.items():
        if system == "LG":
            continue
        latency_ratios = []
        ratio_ratios = []
        speed_ratios = []
        for m in ms:
            base = lg.get(m.dataset)
            if base is None:
                continue
            if base.query_latency_s > 0:
                latency_ratios.append(m.query_latency_s / base.query_latency_s)
            if m.compression_ratio > 0:
                ratio_ratios.append(base.compression_ratio / m.compression_ratio)
            if m.compression_speed_mb_s > 0:
                speed_ratios.append(
                    base.compression_speed_mb_s / m.compression_speed_mb_s
                )
        summary[system] = {
            "latency_vs_lg": geomean(latency_ratios),  # >1 → LG faster
            "ratio_gain": geomean(ratio_ratios),  # >1 → LG compresses better
            "speed_gain": geomean(speed_ratios),  # <1 → LG compresses slower
        }
    return summary


# ----------------------------------------------------------------------
# Figure 8
# ----------------------------------------------------------------------
def figure8(
    measurements: Sequence[Measurement],
    params: CostParameters = CostParameters(),
) -> Dict[str, CostBreakdown]:
    """Average Equation-1 cost ($/TB) per system across a dataset suite."""
    grouped = by_system(measurements)
    out: Dict[str, CostBreakdown] = {}
    for system, ms in grouped.items():
        costs = [
            overall_cost(
                m.compression_ratio,
                m.compression_speed_mb_s,
                m.query_latency_s_per_tb,
                params,
            )
            for m in ms
            if m.compression_ratio > 0 and m.compression_speed_mb_s > 0
        ]
        if not costs:
            continue
        n = len(costs)
        out[system] = CostBreakdown(
            sum(c.storage for c in costs) / n,
            sum(c.compression for c in costs) / n,
            sum(c.query for c in costs) / n,
        )
    return out


# ----------------------------------------------------------------------
# Figure 9
# ----------------------------------------------------------------------
def refining_commands(query: str) -> List[str]:
    """The refining-mode session for a query: grow it term by term."""
    parsed = parse_query(query)
    terms = parsed.disjuncts[0]
    commands: List[str] = []
    parts: List[str] = []
    for term in terms:
        parts.append(("not " if term.negated else "and " if parts else "") + term.search.text)
        commands.append(" ".join(parts))
    return commands


def _bench_config(**overrides) -> LogGrepConfig:
    return LogGrepConfig(block_bytes=BENCH_BLOCK_BYTES, **overrides)


def figure9(
    specs: Sequence[LogSpec],
    lines_per_spec: int,
    ablations: Sequence[str] = ABLATIONS,
) -> Dict[str, float]:
    """Normalized query latency of each ablated version (full = 1.0).

    Structural ablations run the dataset's query in direct mode; the cache
    ablation replays the refining-mode session with and without the Query
    Cache, as §6.3 does.
    """
    results: Dict[str, List[float]] = {name: [] for name in ablations}
    for spec in specs:
        lines = spec.generate(lines_per_spec)
        full_direct = _query_latency(lines, spec.query, _bench_config())
        for name in ablations:
            if name == "w/o cache":
                session = refining_commands(spec.query)
                with_cache = _session_latency(lines, session, _bench_config())
                without = _session_latency(
                    lines, session, ablated(name, _bench_config())
                )
                if with_cache > 0:
                    results[name].append(without / with_cache)
            else:
                lat = _query_latency(lines, spec.query, ablated(name, _bench_config()))
                if full_direct > 0:
                    results[name].append(lat / full_direct)
    return {name: geomean(vals) for name, vals in results.items()}


def _query_latency(lines: Sequence[str], query: str, config: LogGrepConfig) -> float:
    system = LogGrepSystem(config)
    system.ingest(list(lines))
    _, elapsed = system.timed_query(query)
    return elapsed


def _session_latency(
    lines: Sequence[str], commands: Sequence[str], config: LogGrepConfig
) -> float:
    system = LogGrepSystem(config)
    system.ingest(list(lines))
    # Refining mode is interactive: boxes stay pinned for the session, so
    # the with/without-cache difference isolates the Query Cache itself.
    with system.loggrep.open_session() as session:
        total = 0.0
        for command in commands:
            result = session.grep(command)
            total += result.elapsed
    return total


# ----------------------------------------------------------------------
# Padding effect (§6.3)
# ----------------------------------------------------------------------
def padding_effect(
    specs: Sequence[LogSpec], lines_per_spec: int
) -> Dict[str, float]:
    """Per-dataset compression-ratio factor of padding (padded/unpadded)."""
    out: Dict[str, float] = {}
    for spec in specs:
        lines = spec.generate(lines_per_spec)
        padded = LogGrepSystem(_bench_config())
        padded.ingest(list(lines))
        unpadded = LogGrepSystem(ablated("w/o fixed", _bench_config()))
        unpadded.ingest(list(lines))
        if unpadded.compression_ratio() > 0:
            out[spec.name] = padded.compression_ratio() / unpadded.compression_ratio()
    return out
