"""The prune that pays: a time window skips whole blocks (LGIX v4).

The prune-index sidecar keeps one wall-clock range per block, and a plan
with a ``from_time``/``to_time`` window skips every block whose range
misses it, with no store read.  This check compresses each timed spec
(one whose lines carry a leading timestamp) at :data:`LINES` lines in
:data:`BLOCK_BYTES` blocks and runs its Table-1 query twice: over the
whole archive, and under the middle third of the spec's time span.

* pruned/visited blocks are printed per spec, and at least one block is
  pruned over all specs;
* the prune is sound: every line of the full result whose timestamp lies
  in the window is returned under the window, and the windowed result
  is a sub-multiset of the full one (the prune is block-granular, so it
  may keep lines outside the window, never drop one inside).

Counts only, no timing is asserted: the result is deterministic.
"""

from collections import Counter

import pytest

from repro.bench.report import format_table, print_banner
from repro.blockstore.store import MemoryStore
from repro.common.timeparse import extract_timestamp
from repro.core.config import LogGrepConfig
from repro.core.loggrep import LogGrep
from repro.workloads import production_specs, public_specs

LINES = 8000
BLOCK_BYTES = 128 * 1024


def _middle_third(lines):
    """The middle third of the span of *lines*' timestamps, or None for
    a spec without any."""
    stamps = [ts for ts in map(extract_timestamp, lines) if ts is not None]
    if not stamps:
        return None
    low, high = min(stamps), max(stamps)
    third = (high - low) / 3
    return low + third, low + 2 * third


@pytest.fixture(scope="module")
def per_spec():
    """``(name, window, full result, windowed result)`` per timed spec."""
    rows = []
    for spec in production_specs() + public_specs():
        lines = spec.generate(LINES)
        window = _middle_third(lines)
        if window is None:
            continue
        lg = LogGrep(store=MemoryStore(), config=LogGrepConfig(block_bytes=BLOCK_BYTES))
        lg.compress(lines)
        full = lg.grep(spec.query)
        windowed = lg.grep(spec.query, from_time=window[0], to_time=window[1])
        rows.append((spec.name, window, full, windowed))
    return rows


def test_a_time_window_prunes_blocks_and_keeps_its_lines(per_spec):
    print_banner(
        f"Time-window prune: each timed spec's Table-1 query under the middle "
        f"third of its span ({LINES} lines, {BLOCK_BYTES // 1024} KiB blocks)"
    )
    print(
        format_table(
            ["dataset", "pruned", "visited", "hits", "hits in window"],
            [
                [name, w.stats.blocks_pruned, w.stats.blocks_visited, full.count, w.count]
                for name, _, full, w in per_spec
            ],
        )
    )
    pruned = sum(w.stats.blocks_pruned for *_, w in per_spec)
    visited = sum(w.stats.blocks_visited for *_, w in per_spec)
    print(f"{len(per_spec)} timed specs: {pruned} of {visited} block visits pruned")
    assert pruned > 0, "a middle-third window must prune some block"
    for name, (start, end), full, windowed in per_spec:
        kept = Counter(windowed.lines)
        assert not kept - Counter(full.lines), name
        inside = Counter(
            line for line in full.lines
            if (ts := extract_timestamp(line)) is not None and start <= ts <= end
        )
        assert not inside - kept, name
