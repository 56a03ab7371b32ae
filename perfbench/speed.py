"""Machine-speed probe: timings are reported at a reference speed.

The boxes this benchmark runs on change speed under it: for seconds at a
time the same single-threaded work runs 15% faster or 50% slower than
usual, with no load inside the machine to explain it (measured: identical
compress calls repeated in one process spread by 9% between quartiles, and
whole runs with one seed differ by 10-30%).  No statistic over the samples
of one run removes a shift that lasts as long as the run.

So the harness brackets every timed unit of work with a short fixed
kernel — token counting in Python plus an lzma round trip, the program's
own instruction mix — and divides the unit's wall time by how much slower
than :data:`REFERENCE_SECONDS` the kernel ran around it.  Every timing the
benchmark prints is therefore *seconds at reference speed*: as measured,
then scaled by a factor that is measured in the same window.  A change to
the program moves the numbers exactly as it moves wall time; a change in
the machine's speed does not move them.
"""

from __future__ import annotations

import lzma
import statistics
import time
from typing import List

#: Kernel time on the reference box (2-core Xeon 2.1 GHz VM) in its usual
#: state.  A constant of the benchmark: changing it rescales every timing.
REFERENCE_SECONDS = 0.0015

#: Kernel runs per reading; the reading is their median.
RUNS_PER_READING = 5

_LINES = [
    f"2020-04-08 05:51:{i % 60:02d} ERROR reqId:{i * 2654435761 % 2 ** 32:08X} "
    f"state:REQ_ST_{i % 7} code={20000 + i % 13} /root/usr/admin/{i % 40}.log"
    for i in range(160)
]
_BLOB = "\n".join(_LINES).encode("utf-8")
_FILTERS = [{"id": lzma.FILTER_LZMA2, "preset": 1}]


def _kernel() -> int:
    counts: dict = {}
    for line in _LINES:
        for token in line.split(" "):
            counts[token] = counts.get(token, 0) + 1
    packed = lzma.compress(_BLOB, format=lzma.FORMAT_RAW, filters=_FILTERS)
    lzma.decompress(packed, format=lzma.FORMAT_RAW, filters=_FILTERS)
    return len(counts)


def slowdown() -> float:
    """How many times slower than the reference the machine is right now
    (1.0 = reference speed; costs about 6 ms)."""
    clock = time.perf_counter
    readings: List[float] = []
    for _ in range(RUNS_PER_READING):
        start = clock()
        _kernel()
        readings.append(clock() - start)
    return statistics.median(readings) / REFERENCE_SECONDS
