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

The paper merges by timestamp; we record each entry's line id inside the
block (plus the block's first global line id), which yields the identical
total order and also covers logs without timestamps — the fallback the
paper describes but did not need for Alibaba logs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..capsule.box import CapsuleBox
from ..common.rowset import RowSet
from ..common.tokenizer import DELIMITER
from ..query.stats import QueryStats
from ..query.vectors import (
    Piece,
    QuerySettings,
    decode_rows,
    join_cells,
    make_reader,
)

_DELIMITER = DELIMITER.encode("utf-8")


class BlockReconstructor:
    """Rebuilds entries of one CapsuleBox."""

    def __init__(
        self,
        box: CapsuleBox,
        settings: Optional[QuerySettings] = None,
        stats: Optional[QueryStats] = None,
        readers: Optional[Dict[tuple, object]] = None,
    ):
        self.box = box
        self.settings = settings or QuerySettings()
        self.stats = stats if stats is not None else QueryStats()
        # Reader cache may be shared with the BlockEngine so Capsules
        # decompressed during matching are reused for reconstruction.
        self._readers = readers if readers is not None else {}

    def _reader(self, group_idx: int, var_idx: int):
        key = (group_idx, var_idx)
        reader = self._readers.get(key)
        if reader is None:
            encoded = self.box.groups[group_idx].vectors[var_idx]
            reader = make_reader(encoded, self.settings, self.stats)
            self._readers[key] = reader
        return reader

    # ------------------------------------------------------------------
    def reconstruct(self, hits: Dict[int, RowSet]) -> List[Tuple[int, str]]:
        """Rebuild all hit entries, merged into global order."""
        entries: List[Tuple[int, str]] = []
        base = self.box.first_line_id
        for group_idx, rows in hits.items():
            if not rows:
                continue
            line_ids = self.box.groups[group_idx].line_ids
            # None = every row: whole columns are taken, no row list built.
            wanted = None if rows.is_full() else rows.rows()
            if wanted is not None:
                line_ids = [line_ids[row] for row in wanted]
            texts = self._render(group_idx, wanted, len(rows))
            entries.extend(zip([base + line_id for line_id in line_ids], texts))
        # Line ids are unique, so the tuples order by id alone.
        entries.sort()
        return entries

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
                pieces.extend(self._reader(group_idx, var_idx).pieces(rows))
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
