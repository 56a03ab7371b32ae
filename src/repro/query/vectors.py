"""Query-time views over encoded variable vectors.

A reader answers two questions about one variable vector of one group:

* ``search(fragment, mode)`` — which group rows could contain the
  fragment?  (Locator → stamp filter → fixed-length matching.)
* ``pieces(rows)`` — the values of those rows as still-padded byte cells
  (for reconstruction; ``value_at``/``values_list`` decode single values
  and whole columns for aggregates).

Readers translate between *capsule row space* (rows stored in a Capsule,
excluding outliers) and *group row space* (entry rows of the group).

Candidate filtering runs on payload **bytes**: the scan kernels of
:mod:`repro.capsule.scan` match fragments directly against the padded
buffers, dictionary regions are scanned in place with the §5.2
Σ count·width jump, and index Capsules are compared slot-by-slot as raw
byte cells.  Only rows that survive
matching are ever decoded, and those decoded columns are retained in the
bounded :class:`~repro.query.cache.CapsuleValueCache` so unanchored
wildcard verification, dictionary reads and aggregates never re-decode
the same Capsule across queries.  Reconstruction does not go through
it: it slices cells out of ``Capsule.plain()``, which already stays
resident with the box.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..capsule import scan
from ..obs import ledger as ledger_channel
from ..capsule.assembler import (
    NominalEncodedVector,
    PlainEncodedVector,
    RealEncodedVector,
)
from ..capsule.capsule import LAYOUT_FIXED, LAYOUT_REGION, PAD, Capsule
from ..capsule.stamp import CapsuleStamp
from ..common.errors import FormatError
from ..common.rowset import RowSet
from ..runtime.pattern import Const, RuntimePattern
from .cache import get_value_cache
from .locator import TOO_COMPLEX, locate
from .matcher import search_capsule
from .modes import MatchMode, value_matches
from .stats import QueryStats, touch_capsule

from dataclasses import dataclass


@dataclass
class QuerySettings:
    """Per-query execution switches (see §6.3 ablations)."""

    use_stamps: bool = True


def _cached_values(capsule: Capsule) -> List[str]:
    """Decoded values of *capsule* via the process-wide value cache."""
    return get_value_cache().get(capsule)


def _cached_value_at(capsule: Capsule, row: int) -> str:
    """One decoded value: cached column when present, O(1) fetch otherwise."""
    return get_value_cache().value_at(capsule, row)


#: One rendering piece of a row group: a constant shared by every row, or
#: one (still NUL-padded) cell per row.
Piece = Union[bytes, List[bytes]]


def merge_constants(pieces: Iterable[Piece]) -> List[Piece]:
    """*pieces* with each run of adjacent constants joined into one."""
    merged: List[Piece] = []
    for piece in pieces:
        last = merged[-1] if merged else None
        if isinstance(piece, bytes) and isinstance(last, bytes):
            merged[-1] = last + piece
        else:
            merged.append(piece)
    return merged


def _pattern_pieces(pattern: RuntimePattern, columns: List[List[bytes]]) -> List[Piece]:
    """A runtime pattern as pieces: its constants, and for each
    sub-variable the column of *columns* it names."""
    return [
        el.text.encode("utf-8") if isinstance(el, Const) else columns[el.index]
        for el in pattern.elements
    ]


def join_cells(pieces: Sequence[Piece], num_rows: int) -> List[bytes]:
    """Row-wise concatenation of *pieces*: one ``bytes`` per row, pad
    bytes still inside."""
    parts: List[Iterable[bytes]] = []
    for piece in merge_constants(pieces):
        if isinstance(piece, bytes):
            parts.append(repeat(piece, num_rows))
        elif len(piece) != num_rows:
            raise FormatError(
                f"column holds {len(piece)} cell(s), expected {num_rows}"
            )
        else:
            parts.append(piece)
    return list(map(b"".join, zip(*parts))) if parts else [b""] * num_rows


def decode_rows(rows: List[bytes]) -> List[str]:
    """Strip the padding of joined *rows* and decode them, all at once.

    NUL is the pad byte and no stored value contains one (the packer's
    ``_reject_nul``), so deleting every NUL of the joined buffer removes
    exactly the padding.  The rows are split back at newlines; a value
    that itself holds a newline makes the count disagree, and the rows
    are then stripped and decoded one by one.
    """
    if not rows:
        return []
    blob = b"\n".join(rows).translate(None, PAD)
    if blob.count(b"\n") == len(rows) - 1:
        return blob.decode("utf-8").split("\n")
    return [row.translate(None, PAD).decode("utf-8") for row in rows]


def _take_cells(
    capsule: Capsule, rows: Optional[Sequence[int]], stats: QueryStats
) -> List[bytes]:
    """Padded cells of *capsule* (all rows when None), accounted like
    every other read: the inflate on ``stats``, the cells on the ledger."""
    if rows is not None and not len(rows):
        return []  # nothing wanted: leave the Capsule unopened
    touch_capsule(capsule, stats)
    cells = capsule.cells(rows)
    ledger_channel.charge_decoded_values(len(cells))
    return cells


class RealVectorReader:
    """Reader over a real variable vector (sub-variable Capsules)."""

    def __init__(
        self,
        encoded: RealEncodedVector,
        settings: QuerySettings,
        stats: QueryStats,
    ):
        self.encoded = encoded
        self.settings = settings
        self.stats = stats
        self.num_rows = encoded.num_rows
        self._stamps: List[CapsuleStamp] = [
            capsule.stamp for capsule in encoded.subvar_capsules
        ]
        self._outlier_set = set(encoded.outlier_rows)
        self._matched_map: Optional[List[int]] = None  # capsule row → group row

    # ------------------------------------------------------------------
    def _matched_rows(self) -> List[int]:
        if self._matched_map is None:
            if not self._outlier_set:
                self._matched_map = list(range(self.num_rows))
            else:
                self._matched_map = [
                    row for row in range(self.num_rows) if row not in self._outlier_set
                ]
        return self._matched_map

    @property
    def _num_matched(self) -> int:
        return self.num_rows - len(self.encoded.outlier_rows)

    # ------------------------------------------------------------------
    def search(self, fragment: str, mode: MatchMode) -> RowSet:
        result = RowSet.empty(self.num_rows)
        self._search_matched(fragment, mode, result)
        self._search_outliers_plain(fragment, mode, result)
        return result

    def _search_matched(self, fragment: str, mode: MatchMode, result: RowSet) -> None:
        num_matched = self._num_matched
        if num_matched == 0:
            return
        encoded = self.encoded
        candidates = locate(
            encoded.pattern,
            self._stamps,
            fragment,
            mode,
            use_stamps=self.settings.use_stamps,
        )
        if candidates is TOO_COMPLEX:
            self.stats.fallback_scans += 1
            self._scan_matched(fragment, mode, result)
            return
        capsule_rows = RowSet.empty(num_matched)
        for candidate in candidates:
            self.stats.candidates_evaluated += 1
            if not candidate:
                capsule_rows = RowSet.full(num_matched)
                break
            current: Optional[RowSet] = None
            for subvar, frag, frag_mode in candidate:
                capsule = encoded.subvar_capsules[subvar]
                self.stats.capsules_considered += 1
                hint = None
                if (
                    current is not None
                    and capsule.layout == LAYOUT_FIXED
                    and len(current) <= 64
                ):
                    # §5.2 direct checking: probe only candidate rows.
                    hint = current.rows()
                touch_capsule(capsule, self.stats)
                rows = search_capsule(capsule, frag, frag_mode, rows_hint=hint)
                current = rows if current is None else current & rows
                if not current:
                    break
            if current:
                capsule_rows = capsule_rows | current
        if capsule_rows:
            mapping = self._matched_rows()
            for crow in capsule_rows:
                result.add(mapping[crow])

    def _scan_matched(self, fragment: str, mode: MatchMode, result: RowSet) -> None:
        """Correct-but-slow fallback: reconstruct and test every value.

        Values are rendered and matched as raw bytes — no UTF-8 decode,
        no string materialization beyond one ``bytes`` join per row.
        """
        encoded = self.encoded
        for capsule in encoded.subvar_capsules:
            touch_capsule(capsule, self.stats)
        mapping = self._matched_rows()
        columns = [capsule.values_bytes() for capsule in encoded.subvar_capsules]
        needle = fragment.encode("utf-8")
        values = join_cells(
            _pattern_pieces(encoded.pattern, columns), self._num_matched
        )
        for crow, value in enumerate(values):
            if value_matches(value, needle, mode):
                result.add(mapping[crow])

    def _search_outliers_plain(
        self, fragment: str, mode: MatchMode, result: RowSet
    ) -> None:
        encoded = self.encoded
        if encoded.outlier_capsule is None:
            return
        # Outliers escaped the pattern, so every query must scan them.
        touch_capsule(encoded.outlier_capsule, self.stats)
        rows = search_capsule(encoded.outlier_capsule, fragment, mode)
        for orow in rows:
            result.add(encoded.outlier_rows[orow])

    # ------------------------------------------------------------------
    def search_wildcard(self, keyword, mode: MatchMode) -> RowSet:
        """Wildcard search: literal runs narrow the candidate rows through
        the normal pattern/stamp machinery (byte-level), then only those
        rows are decoded and regex-verified — the structured analogue of
        index-assisted wildcard matching."""
        result = RowSet.empty(self.num_rows)
        encoded = self.encoded
        regex = keyword.regex_for(mode)
        candidates = self._wildcard_candidates(keyword)
        if candidates is None:
            # No usable literal run: verify every matched row.
            if self._num_matched:
                mapping = self._matched_rows()
                for crow, value in enumerate(self._matched_values()):
                    if regex.search(value):
                        result.add(mapping[crow])
        elif candidates:
            # One row-subset fetch: only the candidates' cells are sliced
            # and decoded, once.
            rows = candidates.rows()
            values = decode_rows(join_cells(self.pieces(rows), len(rows)))
            for row, value in zip(rows, values):
                if regex.search(value):
                    result.add(row)
        if encoded.outlier_capsule is not None:
            touch_capsule(encoded.outlier_capsule, self.stats)
            for orow, value in enumerate(_cached_values(encoded.outlier_capsule)):
                if regex.search(value):
                    result.add(encoded.outlier_rows[orow])
        return result

    def _wildcard_candidates(self, keyword) -> Optional[RowSet]:
        """Rows that contain every (case-sensitive) literal run of the
        keyword; None when no run is checkable."""
        literals = [run for run in keyword.literals() if run] if not getattr(
            keyword, "ignore_case", False
        ) else []
        if not literals:
            return None
        candidates: Optional[RowSet] = None
        result_space = RowSet.empty(self.num_rows)
        for run in literals:
            rows = RowSet.empty(self.num_rows)
            self._search_matched(run, MatchMode.SUBSTRING, rows)
            candidates = rows if candidates is None else candidates & rows
            if not candidates:
                self.stats.capsules_filtered += len(
                    self.encoded.subvar_capsules
                )
                return result_space
        return candidates

    def _matched_values(self) -> List[str]:
        encoded = self.encoded
        for capsule in encoded.subvar_capsules:
            touch_capsule(capsule, self.stats)
        columns = [_cached_values(capsule) for capsule in encoded.subvar_capsules]
        render = encoded.pattern.render
        if not columns:
            return [render(())] * self._num_matched
        return [render(parts) for parts in zip(*columns)]

    # ------------------------------------------------------------------
    def pieces(self, rows: Optional[Sequence[int]] = None) -> List[Piece]:
        """The values of *rows* (ascending group rows; every row when
        None) as rendering pieces: the pattern's constants and one padded
        cell column per sub-variable.

        With outliers no constant is common to every row, so the matched
        rows are joined here and the outlier cells spliced in by position:
        the result is then a single column.
        """
        encoded = self.encoded
        outlier_rows = encoded.outlier_rows
        if not outlier_rows:
            return self._matched_pieces(rows)
        assert encoded.outlier_capsule is not None
        # Capsule rows of the matched rows, outlier-Capsule rows of the
        # outliers, and where in the output each outlier belongs.
        matched: List[int] = []
        picked: List[int] = []
        places: List[int] = []
        for slot, row in enumerate(range(self.num_rows) if rows is None else rows):
            pos = bisect_left(outlier_rows, row)
            if pos < len(outlier_rows) and outlier_rows[pos] == row:
                picked.append(pos)
                places.append(slot)
            else:
                matched.append(row - pos)
        column = join_cells(self._matched_pieces(matched), len(matched))
        # Ascending places: each insert lands at its final position.
        outliers = _take_cells(encoded.outlier_capsule, picked, self.stats)
        for place, cell in zip(places, outliers):
            column.insert(place, cell)
        return [column]

    def _matched_pieces(self, crows: Optional[Sequence[int]]) -> List[Piece]:
        """Pieces of the pattern-matched rows, in capsule row space."""
        encoded = self.encoded
        columns = [
            _take_cells(capsule, crows, self.stats)
            for capsule in encoded.subvar_capsules
        ]
        return _pattern_pieces(encoded.pattern, columns)

    # ------------------------------------------------------------------
    def value_at(self, row: int) -> str:
        encoded = self.encoded
        if row in self._outlier_set:
            pos = bisect_left(encoded.outlier_rows, row)
            return _cached_value_at(encoded.outlier_capsule, pos)
        crow = row - bisect_left(encoded.outlier_rows, row)
        subvalues = [
            _cached_value_at(capsule, crow) for capsule in encoded.subvar_capsules
        ]
        return encoded.pattern.render(subvalues)

    def value_counts(self, rows: Optional[RowSet] = None) -> "Counter[str]":
        """value → occurrences among *rows* (all rows when None).

        Real vectors have no dictionary, so counting renders each row's
        sub-variable parts — this is the documented slow path of the
        Aggregate operator (its fast path is nominal index-cell
        counting).
        """
        if rows is None or rows.is_full():
            return Counter(self.values_list())
        return Counter(self.value_at(row) for row in rows)

    def values_list(self) -> List[str]:
        """Every value of the vector, decoded in bulk.

        Reconstruction of many rows amortizes one ``values()`` pass per
        Capsule instead of per-row fetches, and the decoded columns stay
        in the value cache for subsequent queries.
        """
        encoded = self.encoded
        for capsule in encoded.subvar_capsules:
            touch_capsule(capsule, self.stats)
        columns = [_cached_values(capsule) for capsule in encoded.subvar_capsules]
        render = encoded.pattern.render
        matched = iter(zip(*columns)) if columns else iter(())
        if not self._outlier_set:
            if not columns:
                constant = render(())
                return [constant] * self.num_rows
            return [render(parts) for parts in matched]
        outliers = _cached_values(encoded.outlier_capsule)
        out: List[str] = []
        opos = 0
        for row in range(self.num_rows):
            if row in self._outlier_set:
                out.append(outliers[opos])
                opos += 1
            elif columns:
                out.append(render(next(matched)))
            else:
                out.append(render(()))
        return out


class NominalVectorReader:
    """Reader over a nominal variable vector (dictionary + index)."""

    def __init__(
        self,
        encoded: NominalEncodedVector,
        settings: QuerySettings,
        stats: QueryStats,
    ):
        self.encoded = encoded
        self.settings = settings
        self.stats = stats
        self.num_rows = encoded.num_rows
        self._region_slots: List[int] = []  # first slot of each pattern region
        self._table: Optional[Dict[bytes, bytes]] = None  # see _cell_table
        slot = 0
        for dp in encoded.dict_patterns:
            self._region_slots.append(slot)
            slot += dp.count

    # ------------------------------------------------------------------
    def _pattern_stamps(self, dp) -> List[CapsuleStamp]:
        return [
            CapsuleStamp(mask, maxlen)
            for mask, maxlen in zip(dp.subvar_masks, dp.subvar_maxlens)
        ]

    def _decode_dict(self) -> List[str]:
        """Decode the whole dictionary (region metadata aware)."""
        encoded = self.encoded
        if encoded.dict_capsule.layout != LAYOUT_REGION:
            return encoded.dict_capsule.values()
        values: List[str] = []
        byte = 0
        for dp in encoded.dict_patterns:
            for _ in range(dp.count):
                values.append(encoded.dict_capsule.region_value(byte, dp.width))
                byte += dp.width
        return values

    def _dict_values(self) -> List[str]:
        """The decoded dictionary, via the bounded CapsuleValueCache.

        This generalizes the per-reader dictionary memo that used to live
        here: the cache is shared across readers and queries and its
        entries die with the Capsule (BoxCache eviction).
        """
        encoded = self.encoded
        touch_capsule(encoded.dict_capsule, self.stats)
        return get_value_cache().get(encoded.dict_capsule, self._decode_dict)

    def _region_values(self, pattern_idx: int) -> List[str]:
        """Values of one pattern's region — a direct Σ count·width jump."""
        encoded = self.encoded
        dp = encoded.dict_patterns[pattern_idx]
        start = self._region_slots[pattern_idx]
        if encoded.dict_capsule.layout != LAYOUT_REGION:
            return self._dict_values()[start : start + dp.count]
        cached = get_value_cache().peek(encoded.dict_capsule)
        if cached is not None:
            return cached[start : start + dp.count]
        touch_capsule(encoded.dict_capsule, self.stats)
        byte = encoded.region_start_byte(pattern_idx)
        out = []
        for _ in range(dp.count):
            out.append(encoded.dict_capsule.region_value(byte, dp.width))
            byte += dp.width
        return out

    # ------------------------------------------------------------------
    def matching_slots(self, fragment: str, mode: MatchMode) -> List[int]:
        """Dictionary slots whose value matches the fragment.

        In a region-packed dictionary each surviving pattern's region is
        scanned in place on the payload (§5.2 direct locating) — no
        dictionary entry is decoded at all.
        """
        encoded = self.encoded
        in_place = encoded.dict_capsule.layout == LAYOUT_REGION
        needle = fragment.encode("utf-8") if in_place else b""
        slots: List[int] = []
        for pattern_idx, dp in enumerate(encoded.dict_patterns):
            candidates = locate(
                dp.pattern,
                self._pattern_stamps(dp),
                fragment,
                mode,
                use_stamps=self.settings.use_stamps,
            )
            if candidates is not TOO_COMPLEX and not candidates:
                self.stats.capsules_filtered += 1
                continue  # the pattern cannot produce the fragment
            base = self._region_slots[pattern_idx]
            if in_place:
                touch_capsule(encoded.dict_capsule, self.stats)
                plain = encoded.dict_capsule.plain()
                for local in scan.scan_region(
                    plain,
                    encoded.region_start_byte(pattern_idx),
                    dp.width,
                    dp.count,
                    needle,
                    mode.value,
                ):
                    slots.append(base + local)
                continue
            for local, value in enumerate(self._region_values(pattern_idx)):
                if value_matches(value, fragment, mode):
                    slots.append(base + local)
        return slots

    def search(self, fragment: str, mode: MatchMode) -> RowSet:
        slots = self.matching_slots(fragment, mode)
        return self._rows_for_slots(slots)

    def search_wildcard(self, keyword, mode: MatchMode) -> RowSet:
        regex = keyword.regex_for(mode)
        slots = [
            slot
            for slot, value in enumerate(self._dict_values())
            if regex.search(value)
        ]
        return self._rows_for_slots(slots)

    def _rows_for_slots(self, slots: Sequence[int]) -> RowSet:
        encoded = self.encoded
        result = RowSet.empty(self.num_rows)
        if not slots:
            # The index Capsule is never decompressed — the dictionary
            # proved the keyword absent (§5.1).
            self.stats.capsules_filtered += 1
            return result
        touch_capsule(encoded.index_capsule, self.stats)
        width = encoded.index_width
        capsule = encoded.index_capsule
        if capsule.layout == LAYOUT_FIXED and width > 0:
            buf = capsule.plain()
            if len(slots) <= 4:
                # Selective dictionary hit: search each index number (§5.1).
                for slot in slots:
                    target = str(slot).zfill(width).encode("utf-8")
                    for row in scan.scan_fixed(
                        buf, width, self.num_rows, target, scan.MODE_EXACT
                    ):
                        result.add(row)
            else:
                # Unselective keyword: one row-wise membership pass beats
                # a separate scan per matching dictionary entry.
                targets = {
                    str(slot).zfill(width).encode("utf-8") for slot in slots
                }
                for row in range(self.num_rows):
                    if buf[row * width : (row + 1) * width] in targets:
                        result.add(row)
        else:
            # Variable-layout index (w/o-fixed ablation): compare raw byte
            # cells against the wanted (zero-filled) slot numbers, no decode.
            targets = {str(slot).zfill(width).encode("utf-8") for slot in slots}
            buf = capsule.plain()
            view = memoryview(buf)
            offsets = capsule._variable_offsets()
            n = capsule.count
            for row in range(n):
                start = offsets[row]
                end = offsets[row + 1] - 1 if row + 1 < n else len(buf)
                if view[start:end] in targets:
                    result.add(row)
        return result

    # ------------------------------------------------------------------
    def value_counts(self, rows: Optional[RowSet] = None) -> "Counter[str]":
        """value → occurrences among *rows* (all rows when None), counted
        on raw index cells — the §2 "dictionary is the group-by index"
        fast path.

        The index Capsule is tallied cell-by-cell on its raw payload (no
        per-row value is ever decoded), then only the dictionary slots
        that actually occur are resolved to their values — for a region
        dictionary via direct Σ count·width jumps, so payload decoding is
        proportional to the number of *distinct* values, not rows.
        """
        encoded = self.encoded
        capsule = encoded.index_capsule
        touch_capsule(capsule, self.stats)
        width = encoded.index_width
        buf = capsule.plain()
        cell_counts: "Counter[bytes]" = Counter()
        if capsule.layout == LAYOUT_FIXED and width > 0:
            if rows is None or rows.is_full():
                cell_counts.update(
                    buf[i : i + width]
                    for i in range(0, self.num_rows * width, width)
                )
            else:
                cell_counts.update(
                    buf[row * width : (row + 1) * width] for row in rows
                )
        else:
            # Variable-layout index (w/o-fixed ablation): slice raw cells
            # at the separator offsets, still without decoding.
            offsets = capsule._variable_offsets()
            n = capsule.count

            def cell(row: int) -> bytes:
                end = offsets[row + 1] - 1 if row + 1 < n else len(buf)
                return buf[offsets[row] : end]

            iter_rows: Sequence[int] = (
                range(n) if rows is None or rows.is_full() else list(rows)
            )
            cell_counts.update(cell(row) for row in iter_rows)
        counted = sum(cell_counts.values())
        ledger_channel.charge_rows_scanned(counted)
        out: "Counter[str]" = Counter()
        cached_dict = get_value_cache().peek(encoded.dict_capsule)
        for cell_bytes, n in cell_counts.items():
            slot = int(cell_bytes)
            value = (
                cached_dict[slot]
                if cached_dict is not None
                else self._slot_value(slot)
            )
            out[value] += n
        return out

    def _slot_value(self, slot: int) -> str:
        """Decode one dictionary slot without decoding the whole dict.

        Region dictionaries jump straight to the slot's fixed-width cell
        (§5.2); other layouts go through the value cache.
        """
        encoded = self.encoded
        if encoded.dict_capsule.layout != LAYOUT_REGION:
            touch_capsule(encoded.dict_capsule, self.stats)
            return _cached_value_at(encoded.dict_capsule, slot)
        pattern_idx = bisect_right(self._region_slots, slot) - 1
        dp = encoded.dict_patterns[pattern_idx]
        local = slot - self._region_slots[pattern_idx]
        touch_capsule(encoded.dict_capsule, self.stats)
        byte = encoded.region_start_byte(pattern_idx) + local * dp.width
        return encoded.dict_capsule.region_value(byte, dp.width)

    def pieces(self, rows: Optional[Sequence[int]] = None) -> List[Piece]:
        """The values of *rows* (every row when None) as one column of
        padded dictionary cells, mapped from the raw index cells."""
        table = self._cell_table()
        cells = _take_cells(self.encoded.index_capsule, rows, self.stats)
        try:
            return [list(map(table.__getitem__, cells))]
        except KeyError as exc:
            raise FormatError(
                f"index cell {exc.args[0]!r} names no dictionary slot"
            ) from None

    def _cell_table(self) -> Dict[bytes, bytes]:
        """Raw (zero-filled) index cell → padded dictionary cell, built
        once per vector from the dictionary payload."""
        if self._table is None:
            encoded = self.encoded
            capsule = encoded.dict_capsule
            touch_capsule(capsule, self.stats)
            if capsule.layout == LAYOUT_REGION:
                cells = capsule.region_cells(
                    [(dp.count, dp.width) for dp in encoded.dict_patterns]
                )
            else:
                cells = capsule.cells()
            ledger_channel.charge_decoded_values(len(cells))
            width = encoded.index_width
            self._table = {
                str(slot).zfill(width).encode("ascii"): cell
                for slot, cell in enumerate(cells)
            }
        return self._table

    def value_at(self, row: int) -> str:
        encoded = self.encoded
        touch_capsule(encoded.index_capsule, self.stats)
        slot = int(_cached_value_at(encoded.index_capsule, row))
        return self._dict_values()[slot]

    def values_list(self) -> List[str]:
        """Bulk decode: one dictionary pass + one index pass."""
        encoded = self.encoded
        touch_capsule(encoded.index_capsule, self.stats)
        dictionary = self._dict_values()
        return [
            dictionary[int(text)]
            for text in _cached_values(encoded.index_capsule)
        ]


class PlainVectorReader:
    """Reader over a whole-vector Capsule (§2.2's first attempt)."""

    def __init__(
        self,
        encoded: PlainEncodedVector,
        settings: QuerySettings,
        stats: QueryStats,
    ):
        self.encoded = encoded
        self.settings = settings
        self.stats = stats
        self.num_rows = encoded.num_rows

    def search(self, fragment: str, mode: MatchMode) -> RowSet:
        capsule = self.encoded.capsule
        self.stats.capsules_considered += 1
        if self.settings.use_stamps and not capsule.stamp.admits(fragment):
            self.stats.capsules_filtered += 1
            return RowSet.empty(self.num_rows)
        touch_capsule(capsule, self.stats)
        return search_capsule(capsule, fragment, mode)

    def search_wildcard(self, keyword, mode: MatchMode) -> RowSet:
        capsule = self.encoded.capsule
        regex = keyword.regex_for(mode)
        result = RowSet.empty(self.num_rows)
        literals = (
            [run for run in keyword.literals() if run]
            if not keyword.ignore_case
            else []
        )
        if literals and self.settings.use_stamps:
            if any(not capsule.stamp.admits(run) for run in literals):
                self.stats.capsules_filtered += 1
                return result
        touch_capsule(capsule, self.stats)
        if literals:
            # Narrow with the literal runs, verify only candidate rows.
            candidates: Optional[RowSet] = None
            for run in literals:
                rows = search_capsule(capsule, run, MatchMode.SUBSTRING)
                candidates = rows if candidates is None else candidates & rows
                if not candidates:
                    return result
            for row in candidates:
                if regex.search(_cached_value_at(capsule, row)):
                    result.add(row)
            return result
        for row, value in enumerate(_cached_values(capsule)):
            if regex.search(value):
                result.add(row)
        return result

    def pieces(self, rows: Optional[Sequence[int]] = None) -> List[Piece]:
        """The values of *rows* (every row when None): one padded column."""
        return [_take_cells(self.encoded.capsule, rows, self.stats)]

    def value_at(self, row: int) -> str:
        return _cached_value_at(self.encoded.capsule, row)

    def values_list(self) -> List[str]:
        touch_capsule(self.encoded.capsule, self.stats)
        return _cached_values(self.encoded.capsule)

    def value_counts(self, rows: Optional[RowSet] = None) -> "Counter[str]":
        """value → occurrences among *rows* (all rows when None).

        Plain vectors store the column verbatim, so counting decodes it
        (once, via the value cache) — no index cells to exploit.
        """
        if rows is None or rows.is_full():
            return Counter(self.values_list())
        return Counter(self.value_at(row) for row in rows)


def make_reader(encoded, settings: QuerySettings, stats: QueryStats):
    """Reader factory over the three encodings."""
    if isinstance(encoded, RealEncodedVector):
        return RealVectorReader(encoded, settings, stats)
    if isinstance(encoded, NominalEncodedVector):
        return NominalVectorReader(encoded, settings, stats)
    if isinstance(encoded, PlainEncodedVector):
        return PlainVectorReader(encoded, settings, stats)
    raise TypeError(f"unknown encoded vector {type(encoded)!r}")
