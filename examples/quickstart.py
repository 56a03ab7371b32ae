"""Quickstart: compress a log, grep it, reconstruct the hits.

Run with::

    python examples/quickstart.py
"""

from repro import LogGrep, LogGrepConfig
from repro.workloads import spec_by_name


def main() -> None:
    # Any iterable of log lines works; here we synthesize the HDFS-style
    # dataset the paper's §2.3 uses to motivate runtime patterns
    # ("blk_<*>" block numbers).
    spec = spec_by_name("Hdfs")
    lines = spec.generate(5000)

    # 1. Compress.  The store defaults to memory; pass an ArchiveStore for
    #    a directory-backed archive.  Blocks are 64 MB in production; small
    #    here so several blocks exist.
    lg = LogGrep(config=LogGrepConfig(block_bytes=256 * 1024))
    report = lg.compress(lines)
    print(
        f"compressed {report.raw_bytes:,} bytes into {report.compressed_bytes:,} "
        f"({report.ratio:.1f}x) at {report.speed_mb_s:.2f} MB/s "
        f"across {report.blocks} block(s)"
    )

    # 2. Query with grep-like commands: AND / OR / NOT plus in-token
    #    wildcards.  This is the dataset's Table 1 query.
    result = lg.grep(spec.query)
    print(f"\n$ loggrep grep {spec.query!r}")
    for line in result.lines[:5]:
        print(f"  {line}")
    if result.count > 5:
        print(f"  ... {result.count - 5} more")

    # 3. The stats show the paper's central effect: most Capsules are
    #    proven irrelevant by runtime patterns + stamps and never
    #    decompressed.
    stats = result.stats
    print(
        f"\n{result.count} hit(s) in {result.elapsed * 1000:.1f} ms | "
        f"capsules decompressed: {stats.capsules_decompressed}, "
        f"filtered without decompression: {stats.capsules_filtered}"
    )

    # 4. EXPLAIN dry-runs the same Match without reading a Capsule: per
    #    block, which vectors each keyword reaches and what stops it.
    plan = lg.explain("ERROR AND reqId:5E9D*").splitlines()
    print("\n$ loggrep explain 'ERROR AND reqId:5E9D*'")
    for line in plan[:12]:
        print(f"  {line}".rstrip())
    print(f"  ... {len(plan) - 12} more line(s)")

    # 5. Round-trip guarantee: the archive reconstructs every line exactly.
    assert lg.decompress_all() == lines
    print("\nround-trip: exact ✓")


if __name__ == "__main__":
    main()
