"""Design-choice sweeps: check the paper's fixed constants.

* §4.1: the 0.5 real/nominal threshold is claimed insensitive "as long as
  it is somewhere in the middle" — the middle of the sweep must be flat.
* §3: 5% sampling — more sampling buys little, much less costs accuracy.
* LZMA preset: the classic ratio/speed trade the paper's Packer makes.
  Its speeds are timed apart from the sweep, at a scale where LZMA runs
  (:func:`preset_speeds`).
* block size: bigger blocks amortize metadata (better ratio) but raise
  per-query work.
"""

import importlib.util
import statistics
import time
from pathlib import Path
from typing import Dict, Sequence

from repro.baselines.loggrep_system import LogGrepSystem
from repro.bench.report import format_table, print_banner
from repro.bench.runner import BENCH_BLOCK_BYTES
from repro.bench.sweeps import (
    sweep_block_bytes,
    sweep_duplication_threshold,
    sweep_preset,
    sweep_sample_rate,
)
from repro.core.config import LogGrepConfig
from repro.workloads import spec_by_name

SPECS = [spec_by_name(name) for name in ("Log B", "Log H", "Hdfs")]
HEADERS = ["value", "ratio", "speed", "query latency"]

#: Lines per spec for the preset speeds.  At 2 000, one Capsule of about
#: 63 is LZMA's, so presets 0 and 9 ingest within noise of each other
#: (the speed assertion failed in 2 of 4 runs); at 20 000, LZMA packs 67
#: buffers at preset 0 and 83 at preset 9, and preset 9 takes about
#: 1.25x preset 0's ingest time.
SPEED_LINES = 20_000
#: Rounds per preset; each preset's speed is the median.
SPEED_ROUNDS = 5


def _machine_slowdown():
    """perfbench's machine-speed probe (``perfbench/speed.py``)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "speed.py"
    spec = importlib.util.spec_from_file_location("perfbench_speed", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.slowdown


def preset_speeds(presets: Sequence[int]) -> Dict[int, float]:
    """Ingest MB/s at reference speed per LZMA preset.

    Each round ingests the specs at every preset in turn, so a drift of
    the machine's speed hits all presets alike; each ingest is divided
    by the probe's slowdown around it, and a preset's speed is the
    median of its :data:`SPEED_ROUNDS` rounds.
    """
    slowdown = _machine_slowdown()
    corpora = [spec.generate(SPEED_LINES) for spec in SPECS]
    megabytes = sum(len(line) + 1 for lines in corpora for line in lines) / 1e6
    seconds: Dict[int, list] = {preset: [] for preset in presets}
    for _ in range(SPEED_ROUNDS):
        for preset in presets:
            config = LogGrepConfig(block_bytes=BENCH_BLOCK_BYTES, preset=preset)
            before = slowdown()
            start = time.perf_counter()
            for lines in corpora:
                LogGrepSystem(config).ingest(lines)
            elapsed = time.perf_counter() - start
            seconds[preset].append(elapsed / ((before + slowdown()) / 2))
    return {
        preset: megabytes / statistics.median(samples)
        for preset, samples in seconds.items()
    }


def test_duplication_threshold_insensitive(benchmark, scale):
    points = benchmark.pedantic(
        lambda: sweep_duplication_threshold(SPECS, scale), rounds=1, iterations=1
    )
    print_banner("Sweep: duplication-rate threshold (§4.1 claims insensitivity)")
    print(format_table(HEADERS, [p.row() for p in points]))
    middle = [p for p in points if 0.25 <= float(p.value) <= 0.75]
    ratios = [p.compression_ratio for p in middle]
    latencies = [p.query_latency_s for p in middle]
    # The middle of the sweep is flat: ratios within 15%, latencies 3x.
    assert max(ratios) / min(ratios) < 1.15
    assert max(latencies) / min(latencies) < 3.0


def test_sample_rate_sweep(benchmark, scale):
    points = benchmark.pedantic(
        lambda: sweep_sample_rate(SPECS, scale), rounds=1, iterations=1
    )
    print_banner("Sweep: parser/extractor sampling rate (paper: 5%)")
    print(format_table(HEADERS, [p.row() for p in points]))
    by_rate = {float(p.value): p for p in points}
    # Full sampling compresses no better than 5% by a large margin —
    # sampling is nearly free in quality (why the paper can afford 5%).
    assert by_rate[1.0].compression_ratio < 1.25 * by_rate[0.05].compression_ratio


def test_preset_sweep(benchmark, scale):
    points = benchmark.pedantic(
        lambda: sweep_preset(SPECS, scale), rounds=1, iterations=1
    )
    by_preset = {int(p.value): p for p in points}
    for preset, speed in preset_speeds(list(by_preset)).items():
        by_preset[preset].compression_speed_mb_s = speed
    print_banner(
        "Sweep: LZMA preset (the Packer's ratio/speed trade; speed at "
        f"{SPEED_LINES} lines per spec, median of {SPEED_ROUNDS} rounds, "
        "MB/s at reference speed)"
    )
    print(format_table(HEADERS, [p.row() for p in points]))
    assert by_preset[9].compression_ratio >= by_preset[0].compression_ratio
    assert by_preset[0].compression_speed_mb_s > by_preset[9].compression_speed_mb_s


def test_block_size_sweep(benchmark, scale):
    points = benchmark.pedantic(
        lambda: sweep_block_bytes(SPECS, scale), rounds=1, iterations=1
    )
    print_banner("Sweep: log block size")
    print(format_table(HEADERS, [p.row() for p in points]))
    smallest, *_, biggest = points
    # Bigger blocks amortize templates/patterns: the ratio must not drop.
    assert biggest.compression_ratio >= 0.95 * smallest.compression_ratio
