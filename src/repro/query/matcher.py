"""Fixed-length matching within decompressed Capsules (paper §5.2).

For the fixed layout, every value occupies ``width`` bytes, so:

* a hit at byte position ``p`` belongs to row ``p // width`` (O(1));
* candidate rows from one Capsule can be *checked directly* in another
  Capsule without scanning it;
* matches never silently cross value boundaries, because values cannot
  contain the NUL pad byte (bounds are still checked explicitly).

:func:`search_capsule` dispatches on the Capsule's layout to the byte
kernels of :mod:`repro.capsule.scan`: ``bytes.find`` hops over the padded
payload with stride-aligned resume points, memoryview slice comparison,
zero per-row decoding.

Every scan is instrumented: ``loggrep_scan_rows_total`` counts rows
covered, ``loggrep_scan_kernel_seconds`` records per-Capsule latency, and
a ``scan`` span nests under the Match operator when tracing is on.

For the variable layout (the ``w/o fixed`` ablation and LogGrep-SP),
values are NUL-separated and rows must be recovered by counting
separators, which costs an offsets scan per Capsule — exactly the overhead
padding exists to remove.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from ..capsule import scan
from ..capsule.capsule import LAYOUT_FIXED, Capsule
from ..common.rowset import RowSet
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .modes import MatchMode

_SCAN_ROWS = get_registry().counter(
    "loggrep_scan_rows_total",
    "Capsule rows covered by scan kernels",
)
_SCAN_SECONDS = get_registry().histogram(
    "loggrep_scan_kernel_seconds",
    "Per-Capsule scan kernel latency",
)


def search_capsule(
    capsule: Capsule,
    fragment: str,
    mode: MatchMode,
    rows_hint: Optional[Sequence[int]] = None,
) -> RowSet:
    """Rows of *capsule* whose value matches *fragment* under *mode*.

    ``rows_hint`` (§5.2's direct checking) restricts the test to candidate
    rows found in another Capsule — only possible with the fixed layout.
    """
    n = capsule.count
    covered = len(rows_hint) if rows_hint is not None else n
    start = time.perf_counter()
    with get_tracer().span("scan", mode=mode.value, rows=covered):
        rows = _scan(capsule, fragment.encode("utf-8"), mode.value, rows_hint)
    _SCAN_ROWS.inc(covered)
    _SCAN_SECONDS.observe(time.perf_counter() - start)
    # Kernel rows are already in-universe; build the bitmap without the
    # per-row bounds check of RowSet.add.
    bits = 0
    for row in rows:
        bits |= 1 << row
    return RowSet(n, bits)


def _scan(
    capsule: Capsule,
    needle: bytes,
    mode: str,
    rows_hint: Optional[Sequence[int]],
) -> Sequence[int]:
    """Dispatch on layout to the kernels of :mod:`repro.capsule.scan`."""
    n = capsule.count
    if n == 0:
        return ()
    plain = capsule.plain()
    if capsule.layout != LAYOUT_FIXED:
        return scan.scan_variable(
            plain, capsule._variable_offsets(), n, needle, mode
        )
    if rows_hint is not None:
        return scan.check_rows_fixed(plain, capsule.width, rows_hint, needle, mode)
    return scan.scan_fixed(plain, capsule.width, n, needle, mode)
