"""Structure-based aggregation on compressed logs — the §2 "second phase".

The query result of phase one usually feeds anomaly detection or SQL-ish
aggregation.  LogGrep's Capsules are already columns, so aggregation runs
directly on the compressed archive: no log line is ever reconstructed.

Run with::

    python examples/structured_analytics.py
"""

from typing import Optional

from repro import LogGrep, LogGrepConfig
from repro.query.aggregate import AggregateSpec, group_count
from repro.query.modes import AggregateKind
from repro.query.stats import QueryStats
from repro.workloads import spec_by_name


def main() -> None:
    spec = spec_by_name("Log B")
    lines = spec.generate(20000)
    lg = LogGrep(config=LogGrepConfig(block_bytes=512 * 1024))
    lg.compress(lines)
    stats = QueryStats()

    def aggregate(spec: AggregateSpec, where: Optional[str] = None) -> object:
        result = lg.aggregate(spec, where)
        stats.merge(result.stats)
        return result.value

    print("discovered fields:", ", ".join(lg.fields()))

    # Which tenants produce the errors?  (SELECT Project, COUNT(*) ...
    # WHERE line matches 'ERROR' GROUP BY Project ORDER BY count DESC)
    print("\ntop error-producing projects:")
    top = aggregate(AggregateSpec(AggregateKind.TOP_K, "Project", k=5), "ERROR")
    for project, count in top:
        print(f"  Project:{project:6s} {count:5d} errors")

    # Latency distribution, straight off the latency column's Capsules.
    latency = aggregate(AggregateSpec(AggregateKind.STATS, "latency"))
    print(
        f"\nlatency (us): n={latency.count} min={latency.minimum:.0f} "
        f"p50={latency.p50:.0f} p95={latency.p95:.0f} p99={latency.p99:.0f} "
        f"max={latency.maximum:.0f}"
    )

    # Group-by join within a template: which request ids hit per project?
    print("\nrequests per erroring project (top project only):")
    pairs = AggregateSpec(AggregateKind.PAIRS, "Project", value_field="RequestId")
    grouped = group_count(aggregate(pairs, "ERROR"))
    (top_project, _), *_ = top
    for request_id, count in grouped[top_project].most_common(3):
        print(f"  Project:{top_project} RequestId:{request_id} x{count}")

    print(
        f"\ncapsules decompressed for all of the above: "
        f"{stats.capsules_decompressed} "
        "(no log line was reconstructed)"
    )


if __name__ == "__main__":
    main()
