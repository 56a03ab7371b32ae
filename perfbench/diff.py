#!/usr/bin/env python3
"""Compare two result sets written by ``run.py``::

    python3 perfbench/diff.py perfbench/results/pr11-a.json perfbench/out/result.json

Per workload: one row per end-to-end metric — A, B, the change as a share
of A, the metric's bound from ``BENCHMARK.json`` and a verdict — then the
per-layer self times and counts of the traced runs, where both sets have
them.  Verdicts:

``ok``          B is no worse than A by more than the bound
``worse``       B is worse than A by more than the bound
``unresolved``  the run-to-run spread recorded in A or B (interquartile
                range over median of the repeated runs) exceeds the
                bound, so a change of that size cannot be told from noise

Every change is printed with its base (``-3.1% of 2.41``).  The exit code
is 1 when any row is not ``ok``.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from run import load_spec


def change(a: float, b: float) -> Optional[float]:
    """(B - A) / A, or None when A is zero."""
    return (b - a) / a if a else None


def verdict(
    a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float
) -> str:
    spreads = [s for s in (a.get("spread"), b.get("spread")) if s is not None]
    if spreads and max(spreads) > bound:
        return "unresolved"
    delta = change(a["value"], b["value"])
    if delta is None:
        return "unresolved"
    worsening = -delta if better == "higher" else delta
    return "worse" if worsening > bound else "ok"


def _percent(delta: Optional[float], base: float) -> str:
    if delta is None:
        return f"n/a of {base:.6g}"
    return f"{delta * 100:+.2f}% of {base:.6g}"


def _spread(body: Dict[str, Any]) -> str:
    spread = body.get("spread")
    return "-" if spread is None else f"{spread * 100:.2f}%"


def compare(a: Dict[str, Any], b: Dict[str, Any], spec: Dict[str, Any]) -> List[str]:
    """The report lines; a line's verdict is its last word."""
    lines: List[str] = []
    for entry in spec["workloads"]:
        name = entry["name"]
        row_a = a["workloads"].get(name)
        row_b = b["workloads"].get(name)
        if row_a is None or row_b is None:
            lines.append(f"{name}: missing from {'A' if row_a is None else 'B'} unresolved")
            continue
        lines.append(f"== {name}")
        lines.append(
            f"  {'metric':<20}{'A':>12}{'B':>12}  {'change':<24}{'spread A/B':<16}{'bound':>6}  verdict"
        )
        for metric in spec["end_to_end"]:
            ma = row_a["end_to_end"].get(metric["name"])
            mb = row_b["end_to_end"].get(metric["name"])
            if ma is None or mb is None:
                lines.append(f"  {metric['name']:<20} not in both sets unresolved")
                continue
            lines.append(
                f"  {metric['name']:<20}{ma['value']:>12.5g}{mb['value']:>12.5g}  "
                f"{_percent(change(ma['value'], mb['value']), ma['value']):<24}"
                f"{_spread(ma) + '/' + _spread(mb):<16}{metric['bound'] * 100:>5.0f}%  "
                f"{verdict(ma, mb, metric['better'], metric['bound'])}"
            )
        for side, row in (("A", row_a), ("B", row_b)):
            share = row["failed"] / row["attempted"]
            lines.append(f"  failed_share {side}: {share:.6g} ({row['failed']} of {row['attempted']})")
        if row_a["per_layer"] and row_b["per_layer"]:
            lines.append("  -- per layer (traced run, per pass)")
            for metric in spec["per_layer"]:
                la = row_a["per_layer"].get(metric["name"])
                lb = row_b["per_layer"].get(metric["name"])
                if la is None or lb is None or not (la["value"] or lb["value"]):
                    continue
                lines.append(
                    f"  {metric['name']:<36}{la['value']:>13.6g}{lb['value']:>13.6g} {metric['unit']:<6}"
                    f"{_percent(change(la['value'], lb['value']), la['value'])}"
                )
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    sets = []
    for path in args:
        with open(path, "r", encoding="utf-8") as fh:
            sets.append(json.load(fh))
    lines = compare(sets[0], sets[1], spec)
    print("\n".join(lines))
    bad = [l for l in lines if l.endswith(("worse", "unresolved"))]
    print(f"{len(bad)} row(s) not ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
