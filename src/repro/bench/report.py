"""Render benchmark results as the text tables the ``benchmarks/``
suites print."""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..cost.model import CostBreakdown
from .runner import Measurement, SYSTEM_ORDER


def print_banner(title: str) -> None:
    """Visual separator used by the benchmark suites' printed tables."""
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Fixed-width text table."""
    table = [list(map(str, headers))] + [list(map(str, row)) for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(table):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        if idx == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def latency_rows(measurements: Sequence[Measurement]) -> List[List[str]]:
    datasets: Dict[str, Dict[str, Measurement]] = {}
    for m in measurements:
        datasets.setdefault(m.dataset, {})[m.system] = m
    rows = []
    for dataset, per_system in datasets.items():
        row = [dataset]
        for system in SYSTEM_ORDER:
            m = per_system.get(system)
            row.append(f"{m.query_latency_s * 1000:.1f}" if m else "-")
        rows.append(row)
    return rows


def metric_rows(measurements: Sequence[Measurement], metric: str, fmt: str) -> List[List[str]]:
    datasets: Dict[str, Dict[str, Measurement]] = {}
    for m in measurements:
        datasets.setdefault(m.dataset, {})[m.system] = m
    rows = []
    for dataset, per_system in datasets.items():
        row = [dataset]
        for system in SYSTEM_ORDER:
            m = per_system.get(system)
            row.append(format(getattr(m, metric), fmt) if m else "-")
        rows.append(row)
    return rows


def cost_rows(costs: Dict[str, CostBreakdown]) -> List[List[str]]:
    rows = []
    for system in SYSTEM_ORDER:
        cost = costs.get(system)
        if cost is None:
            continue
        rows.append(
            [
                system,
                f"{cost.storage:.2f}",
                f"{cost.compression:.2f}",
                f"{cost.query:.2f}",
                f"{cost.total:.2f}",
            ]
        )
    return rows


def relative_costs(costs: Dict[str, CostBreakdown]) -> Dict[str, float]:
    lg = costs.get("LG")
    if lg is None:
        return {}
    return {
        system: lg.total / cost.total
        for system, cost in costs.items()
        if system != "LG" and cost.total > 0
    }
