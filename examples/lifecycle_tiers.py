"""The log lifecycle (§1): near-line LogGrep → offline (cold) tier.

Shows the near-line/offline trade-off end-to-end: compress a dataset into
the near-line tier, cold-demote a copy of it into the offline tier
(merged blocks, maximum LZMA), and use Equation 1 to decide whether the
rewrite pays off.

Run with::

    python examples/lifecycle_tiers.py

Exits non-zero when the cold archive's grep differs from grep over the
raw lines.
"""

import sys

from repro import LogGrep, LogGrepConfig
from repro.baselines.evalutil import grep_lines
from repro.blockstore.store import MemoryStore
from repro.core.lifecycle import LifecycleManager, Tier, transition_analysis
from repro.workloads import spec_by_name


def main() -> int:
    spec = spec_by_name("Log H")
    lines = spec.generate(15000)

    nearline = LogGrep(config=LogGrepConfig(block_bytes=256 * 1024))
    report = nearline.compress(lines)
    print(
        f"near-line tier: {report.blocks} blocks, ratio {report.ratio:.1f}x, "
        f"{report.speed_mb_s:.2f} MB/s ingest"
    )
    result = nearline.grep(spec.query)
    print(f"  query latency: {result.elapsed * 1000:.1f} ms ({result.count} hits)")

    # Demote a copy, so the near-line archive stays as it was.
    store = MemoryStore()
    for name in nearline.store.names():
        store.put(name, nearline.store.get(name))
    manager = LifecycleManager(store, nearline.config)
    cold = manager.demote(Tier.COLD)
    offline = manager.open_reader()
    print(
        f"\noffline tier:   {cold.blocks_after} block(s) "
        f"(merged from {cold.blocks_before}), "
        f"{cold.ratio_gain:.2f}x smaller than near-line"
    )
    result = offline.grep(spec.query)
    expected = grep_lines(spec.query, lines)
    print(
        f"  query latency: {result.elapsed * 1000:.1f} ms "
        f"(correct: {result.lines == expected})"
    )

    raw = nearline.raw_bytes
    speed = (raw / 1e6) / cold.rewrite_seconds
    analysis = transition_analysis(raw / cold.bytes_before, raw / cold.bytes_after, speed)
    print(
        f"\nEquation 1 says: near-line storage {analysis.nearline_monthly_per_tb:.2f} "
        f"$/TB-month vs offline {analysis.offline_monthly_per_tb:.2f}; "
        f"rewrite costs {analysis.recompression_cost_per_tb:.2f} $/TB"
    )
    if analysis.breakeven_months == float("inf"):
        print("the rewrite never pays off for this dataset")
    else:
        print(
            f"the rewrite pays for itself after {analysis.breakeven_months:.1f} "
            f"month(s) in the offline tier"
            + (" — worth doing" if analysis.worthwhile_within else "")
        )
    return 0 if result.lines == expected else 1


if __name__ == "__main__":
    sys.exit(main())
