"""Log blocks.

In Alibaba Cloud, applications write raw text logs into 64 MB blocks and the
blocks are compressed in the background (paper §2).  A :class:`LogBlock` is
the unit every system in this repo compresses and queries independently;
:func:`split_lines` performs the byte-budgeted splitting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Tuple

#: The production block size.  Tests and laptop-scale benchmarks pass a much
#: smaller budget; the splitting logic is identical.
DEFAULT_BLOCK_BYTES = 64 * 1024 * 1024


def block_name(block_id: int, epoch: int = 0) -> str:
    """The archive-store name of a compressed block.

    A name is written once.  Ingest writes epoch 0, ``block-%08d.lgcb``;
    a lifecycle rewrite writes a new epoch, ``block-%08d.e<N>.lgcb``.
    Ids are in line order, so name order is line order.  Every producer
    names blocks here so archives stay interchangeable.
    """
    if epoch:
        return f"block-{block_id:08d}.e{epoch}.lgcb"
    return f"block-{block_id:08d}.lgcb"


_BLOCK_NAME = re.compile(r"block-(\d{8,})(?:\.e(\d+))?\.lgcb\Z")


def parse_block_name(name: str) -> Optional[Tuple[int, int]]:
    """``(block id, epoch)`` of a :func:`block_name`, None for any other
    name."""
    match = _BLOCK_NAME.match(name)
    if match is None:
        return None
    return int(match.group(1)), int(match.group(2) or 0)


@dataclass
class LogBlock:
    """An ordered slice of raw log lines.

    ``first_line_id`` is the global index of the block's first line in the
    originating stream; reconstruction uses it to restore the total order of
    entries across blocks without needing timestamps.
    """

    block_id: int
    first_line_id: int
    lines: List[str] = field(default_factory=list)

    @property
    def raw_bytes(self) -> int:
        """Size of the block's raw text including newline separators."""
        return sum(map(len, self.lines)) + len(self.lines)

    @property
    def num_lines(self) -> int:
        return len(self.lines)

    def text(self) -> str:
        """The raw text of the block, one line per entry."""
        return "\n".join(self.lines) + ("\n" if self.lines else "")


def split_lines(
    lines: Iterable[str], max_bytes: int = DEFAULT_BLOCK_BYTES
) -> Iterator[LogBlock]:
    """Split a line stream into :class:`LogBlock` s of at most *max_bytes*.

    A block always contains at least one line even if that line alone
    exceeds the budget (a log entry is never split across blocks).
    """
    if max_bytes <= 0:
        raise ValueError("max_bytes must be positive")
    block_id = 0
    first_line_id = 0
    current: List[str] = []
    current_bytes = 0
    line_id = 0
    for line_id, line in enumerate(lines):
        cost = len(line) + 1
        if current and current_bytes + cost > max_bytes:
            yield LogBlock(block_id, first_line_id, current)
            block_id += 1
            first_line_id = line_id
            current = []
            current_bytes = 0
        current.append(line)
        current_bytes += cost
    if current:
        yield LogBlock(block_id, first_line_id, current)


def block_from_text(text: str, block_id: int = 0, first_line_id: int = 0) -> LogBlock:
    """Build a single block from raw text (splitting on newlines)."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return LogBlock(block_id, first_line_id, lines)
