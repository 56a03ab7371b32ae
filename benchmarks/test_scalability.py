"""Scalability benchmark (extension).

Query latency vs archive size: selective queries should grow *sub-
linearly* in the raw size thanks to Capsule filtering (most added bytes
are never decompressed), while gzip+grep grows linearly by construction.
"""

from repro.baselines import GzipGrep
from repro.baselines.loggrep_system import LogGrepSystem
from repro.bench.report import format_table, print_banner
from repro.bench.runner import BENCH_BLOCK_BYTES
from repro.core.config import LogGrepConfig
from repro.workloads import spec_by_name

SIZES = (2000, 8000, 32000)


def test_latency_scaling_with_archive_size(benchmark):
    spec = spec_by_name("Log H")

    def measure():
        rows = []
        points = []
        for size in SIZES:
            lines = spec.generate(size)
            lg = LogGrepSystem(LogGrepConfig(block_bytes=BENCH_BLOCK_BYTES))
            lg.ingest(lines)
            gg = GzipGrep(block_bytes=BENCH_BLOCK_BYTES)
            gg.ingest(lines)
            lg.loggrep.clear_query_cache()
            _, lg_seconds = lg.timed_query(spec.query)
            _, gg_seconds = gg.timed_query(spec.query)
            rows.append(
                [size, f"{lg_seconds * 1000:.1f}", f"{gg_seconds * 1000:.1f}"]
            )
            points.append((size, lg_seconds, gg_seconds))
        return rows, points

    rows, points = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_banner("Scaling: query latency vs dataset size")
    print(format_table(["lines", "LG (ms)", "ggrep (ms)"], rows))

    (s0, lg0, gg0), (_, _, _), (s2, lg2, gg2) = points
    growth = s2 / s0
    # ggrep is ~linear in raw bytes; LogGrep must grow strictly slower.
    assert gg2 / gg0 > 0.4 * growth
    assert lg2 / lg0 < gg2 / gg0
    # And LG stays an order of magnitude below ggrep at the largest size.
    assert lg2 * 3 < gg2

