"""Block-level query pruning: the time-window check on the prune index.

:func:`summary_might_match` decides, from a block's
:class:`~repro.blockstore.index.BlockSummary` alone (zero store reads),
whether any line of the block can fall inside a plan's wall-clock
window.  Blocks are written in arrival order, so a window skips whole
blocks before any box is opened.  A plan without a window, or a block
without a known range, is never pruned — the prune is always sound,
never lossy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..blockstore.index import BlockSummary
    from .plan import QueryPlan


def summary_might_match(summary: "BlockSummary", plan: "QueryPlan") -> bool:
    """Could any line of the summarized block fall inside *plan*'s window
    ``[from_time, to_time]``?  Touching edges overlap."""
    if summary.min_ts is None or summary.max_ts is None:
        return True
    if plan.from_time is not None and summary.max_ts < plan.from_time:
        return False
    return plan.to_time is None or summary.min_ts <= plan.to_time
