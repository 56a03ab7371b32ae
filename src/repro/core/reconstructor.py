"""Reconstruction of original log entries (paper §3).

Given the located rows of a query, the Reconstructor decompresses the
Capsules of each hit group, fetches the rows' values from every variable
vector (an O(1) slice per value thanks to fixed-length padding), fills
them into the static and runtime patterns, and finally merges entries
from different groups back into their global order.

Values are handled as byte columns, never one by one: a hit group is
flattened into *pieces* — the template's constant tokens, its ``" "``
delimiters and the runtime patterns' constants merged into ``bytes``, and
per variable the wanted rows' still-padded cells sliced out of the
decoded Capsule buffers — which are joined row-wise, stripped of the pad
byte and decoded in one pass over the whole group
(:func:`repro.query.vectors.decode_rows`).

A row is rendered once per box.  The texts the Reconstructor builds
join the box's decoded state (:class:`repro.query.vectors.BoxReaders`),
and a later request renders only the rows of each group that the box
has not rendered yet (row-set algebra on the group's rendered bitmap),
picking the rest from the texts it already holds.  A refining session's
revisits and narrowing steps, and a row shared by several plans of one
block pass, read and decode nothing more; a cold single grep renders
what it always did, and its box takes the texts with it.

The paper merges by timestamp; we record each entry's line id inside the
block (plus the block's first global line id), which yields the identical
total order and also covers logs without timestamps — the fallback the
paper describes but did not need for Alibaba logs.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Tuple

from ..capsule.box import CapsuleBox
from ..common.rowset import RowSet
from ..common.tokenizer import DELIMITER
from ..query.vectors import (
    Piece,
    QuerySettings,
    box_readers,
    decode_rows,
    join_cells,
)

_DELIMITER = DELIMITER.encode("utf-8")
_LINE_ID = itemgetter(0)


class BlockReconstructor:
    """Rebuilds entries of one CapsuleBox.

    Values come from the box's own vector readers
    (:func:`~repro.query.vectors.box_readers`), the ones the BlockEngine
    matched with, so Capsules decompressed and dictionaries mapped while
    matching — or by any earlier query over a pinned box — are reused,
    and rows the box has rendered before are not rendered again.
    *settings* are the run's; rendering charges the thread-local channel
    of :mod:`repro.obs.ledger` (the executor's Reconstruct scope, or the
    caller's :func:`~repro.query.stats.collect`).
    """

    def __init__(self, box: CapsuleBox, settings: Optional[QuerySettings] = None):
        self.box = box
        self.settings = settings or QuerySettings()
        self._readers = box_readers(box)

    # ------------------------------------------------------------------
    def reconstruct(self, hits: Dict[int, RowSet]) -> List[Tuple[int, str]]:
        """Rebuild all hit entries, merged into global order."""
        entries: List[Tuple[int, str]] = []
        base = self.box.first_line_id
        runs = 0
        for group_idx, rows in hits.items():
            if not rows:
                continue
            line_ids = self.box.groups[group_idx].line_ids
            # None = every row: whole columns are taken, no row list built.
            wanted = None if rows.is_full() else rows.rows()
            texts = self._texts(group_idx, rows, wanted)
            if wanted is not None:
                line_ids = map(line_ids.__getitem__, wanted)
            entries.extend(zip(map(base.__add__, line_ids), texts))
            runs += 1
        # Each group's entries are in line order already; across groups,
        # line ids are unique, so sorting by the int id alone suffices.
        if runs > 1:
            entries.sort(key=_LINE_ID)
        return entries

    def pending(self, hits: Dict[int, RowSet]) -> List[int]:
        """The groups of *hits* holding a row this box has not rendered
        yet — the only groups whose Capsules Reconstruct will read."""
        rendered = self._readers.rendered
        return [
            group_idx
            for group_idx, rows in hits.items()
            if rows.bits & ~rendered.get(group_idx, 0)
        ]

    def _texts(
        self, group_idx: int, rows: RowSet, wanted: Optional[List[int]]
    ) -> Iterable[str]:
        """The texts of *rows* of a group, listed in *wanted* (None for
        every row).  Only the rows this box has not rendered yet are
        rendered; their texts join the box's, and the rest are picked
        from there.  The result is only read (zipped into fresh
        entries), so it may be a list the box keeps."""
        readers = self._readers
        missing = rows.bits & ~readers.rendered.get(group_idx, 0)
        order = range(rows.n) if wanted is None else wanted
        if missing == rows.bits:
            # Nothing of it shown yet: the rendered list is the answer.
            texts = self._render(group_idx, wanted, len(rows))
            readers.keep(group_idx, missing, order, texts)
            return texts
        if missing:
            new_rows = RowSet(rows.n, missing).rows()
            readers.keep(
                group_idx,
                missing,
                new_rows,
                self._render(group_idx, new_rows, len(new_rows)),
            )
        return map(readers.texts_of(group_idx).__getitem__, order)

    def _render(
        self, group_idx: int, rows: Optional[List[int]], num_rows: int
    ) -> List[str]:
        """The original text of *rows* (every row when None) of a group."""
        group = self.box.groups[group_idx]
        pieces: List[Piece] = []
        var_idx = 0
        for position, token in enumerate(group.template.tokens):
            if position:
                pieces.append(_DELIMITER)
            if token is None:
                reader = self._readers.reader(group_idx, var_idx)
                pieces.extend(reader.pieces(rows))
                var_idx += 1
            else:
                pieces.append(token.encode("utf-8"))
        return decode_rows(join_cells(pieces, num_rows))

    def all_lines(self) -> List[str]:
        """Decompress the entire block (used by round-trip tests)."""
        full = {
            group_idx: RowSet.full(group.num_entries)
            for group_idx, group in enumerate(self.box.groups)
            if group.num_entries
        }
        return [text for _, text in self.reconstruct(full)]
