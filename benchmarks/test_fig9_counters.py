"""Fig 9's causes as exact counts (§6.3): Capsule work per ablation.

Each of the 21 production specs' query runs cold at 1 000 lines under
full LogGrep and under every structural ablation.  Counts do not flap,
so unlike the latency bars of ``test_fig9_ablation.py`` these checks are
exact and timing-free:

* summed over the specs, every structural ablation inflates more bytes
  than full LogGrep — removing a technique makes a query decompress
  more, which is the paper's explanation of the slowdown;
* under every configuration, no query filters more Capsules than it
  considered.
"""

import pytest

from repro.bench.figures import _bench_config
from repro.bench.report import format_table, print_banner
from repro.core.config import ABLATIONS, ablated
from repro.core.loggrep import LogGrep
from repro.workloads import production_specs

LINES_PER_SPEC = 1000
#: The cache ablation replays a refining session; its cost is reuse, not
#: Capsule filtering, so it has no direct-mode counter to compare.
STRUCTURAL = tuple(name for name in ABLATIONS if name != "w/o cache")
CONFIGS = ("full LogGrep",) + STRUCTURAL


def _config(name):
    return _bench_config() if name == "full LogGrep" else ablated(name, _bench_config())


@pytest.fixture(scope="module")
def cold_stats():
    """config name → the QueryStats of each spec's cold query."""
    out = {name: [] for name in CONFIGS}
    for spec in production_specs():
        lines = spec.generate(LINES_PER_SPEC)
        for name in CONFIGS:
            lg = LogGrep(config=_config(name))
            lg.compress(lines)
            out[name].append(lg.grep(spec.query).stats)
    return out


def test_every_structural_ablation_inflates_more_bytes(cold_stats):
    full = [stats.bytes_decompressed for stats in cold_stats["full LogGrep"]]
    rows = []
    for name in STRUCTURAL:
        ablated_bytes = [stats.bytes_decompressed for stats in cold_stats[name]]
        more = sum(a > f for a, f in zip(ablated_bytes, full))
        rows.append([name, f"{sum(ablated_bytes):,}", f"{more}/{len(full)}"])
    print_banner("Fig 9: bytes inflated by the specs' cold queries")
    print(
        format_table(
            ["version", "bytes inflated", "specs above full"],
            [["full LogGrep", f"{sum(full):,}", "-"]] + rows,
        )
    )
    for name in STRUCTURAL:
        total = sum(stats.bytes_decompressed for stats in cold_stats[name])
        assert total > sum(full), f"{name} inflated {total} <= full {sum(full)}"


@pytest.mark.parametrize("name", CONFIGS)
def test_filtered_never_exceeds_considered(cold_stats, name):
    for stats in cold_stats[name]:
        assert 0 <= stats.capsules_filtered <= stats.capsules_considered
