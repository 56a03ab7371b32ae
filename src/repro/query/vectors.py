"""Query-time views over encoded variable vectors.

A reader answers two questions about one variable vector of one group:

* ``search(fragment, mode, candidates)`` — which group rows (among the
  candidates, every row when None) could contain the fragment?
  (Locator → stamp filter → fixed-length matching; a Real vector's
  outlier Capsule is scanned only when its own stamp admits the
  fragment.)
* ``pieces(rows)`` — the values of those rows as still-padded byte cells.

Ahead of any reader, Match checks a keyword against the vector's
stamp (:func:`~repro.capsule.box.vector_stamp`) — every character class
and the longest length any of its values can have, from the Capsule
stamps and pattern constants alone, read off the box's directory —
and answers a keyword outside it without building the vector or a
reader, or asking the Locator (``BlockEngine._search_var``).

Readers translate between *capsule row space* (rows stored in a Capsule,
excluding outliers) and *group row space* (entry rows of the group).

Candidate filtering runs on payload **bytes**: the scan kernels of
:mod:`repro.capsule.scan` match fragments directly against the padded
buffers, dictionary regions are scanned in place with the §5.2
Σ count·width jump, and index Capsules are compared slot-by-slot as raw
byte cells.  A search given at most :data:`DIRECT_CHECK_ROWS` candidate
rows — left by earlier terms of a conjunction, or by the keyword's
earlier sub-variables — probes just their cells (§5.2 direct checking)
instead of scanning the Capsule, and leaves a Capsule none of them lives
in uninflated; above the bound it scans as usual and the caller cuts the
result to the candidates.  Only rows that survive matching are ever
decoded, and
``pieces`` is the one way a reader turns stored bytes into strings:
``values(rows)`` joins the pieces row-wise and strips the padding in one
pass (:func:`join_cells`, :func:`decode_rows`), whether the caller is the
Reconstructor, an aggregate or wildcard verification.  Every cell comes
out of ``Capsule.cells`` (or ``region_cells``), so a payload whose shape
disagrees with its metadata raises :class:`FormatError` on every path.

Decoded vector state is box-scoped.  A reader is built once per vector
and lives exactly as long as its :class:`CapsuleBox`, which owns it
(:func:`box_readers`): a box pinned by a refining session keeps its
readers' stamp lists, Locator keys, outlier maps and nominal cell tables
across queries (and :class:`BoxReaders` the rows the Reconstructor has
rendered, so a row is rendered once per box; the vector stamps come
with the box's directory), and
a box the BoxCache drops (unpinned, or its name replaced by a rewrite)
takes them with it.  This is no cache of its
own: the cache count stays at four (the Query Cache, the BoxCache, the
warm-start TemplateCache and the per-run :data:`LocateMemo`).  A reader
holds nothing of a query: the run's :class:`QuerySettings` come with
every search, and every read is charged
through :mod:`repro.obs.ledger` to the plan open on that thread, so
concurrent queries over one pinned box never charge each other.  Every
lazily built piece of state is computed whole and then published, so
racing threads at worst build it twice.  Each Capsule a search uses goes
through :func:`touch_capsule`, which notes the read for the engine's one
Capsule-decision count.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union, cast

from ..capsule import scan
from ..obs import ledger as ledger_channel
from ..capsule.assembler import (
    NominalEncodedVector,
    PlainEncodedVector,
    RealEncodedVector,
)
from ..capsule.box import CapsuleBox, VectorStamp
from ..capsule.capsule import LAYOUT_FIXED, LAYOUT_REGION, PAD, Capsule
from ..capsule.stamp import CapsuleStamp
from ..common.errors import FormatError
from ..common.rowset import RowSet
from ..runtime.pattern import Const, RuntimePattern
from .locator import TOO_COMPLEX, Candidate, locate
from .matcher import search_capsule
from .modes import MatchMode, value_matches
from .stats import touch_capsule


#: One query's Locator results: ``(vector key, fragment, mode,
#: use_stamps)`` → candidates, with :data:`TOO_COMPLEX` stored as a
#: value like any other.  A vector's key is its pattern elements and
#: sub-variable stamps, as tuples — everything ``locate`` reads of it.
#:
#: Blocks of one log repeat their runtime patterns and stamps, so a query
#: asks ``locate`` the same question of many vectors.  Each
#: :class:`QuerySettings` owns a fresh memo, and the executor builds one
#: settings object per run: nothing carries over between queries.
LocateMemo = Dict[tuple, Optional[List[Candidate]]]

_MISS = object()

#: §5.2 direct checking: a search given at most this many candidate rows
#: probes their cells in place; with more it scans the whole Capsule.
DIRECT_CHECK_ROWS = 64


@dataclass
class QuerySettings:
    """Per-query execution switches (see §6.3 ablations), plus the
    run's :data:`LocateMemo`."""

    use_stamps: bool = True
    locate_memo: LocateMemo = field(default_factory=dict)


def _locate(
    settings: QuerySettings,
    key: tuple,
    pattern: RuntimePattern,
    stamps: Sequence[CapsuleStamp],
    fragment: str,
    mode: MatchMode,
) -> Optional[List[Candidate]]:
    """``locate`` through the run's memo; *key* identifies *pattern* and
    *stamps*.  The Locator is still called through this module's global,
    once per distinct question."""
    use_stamps = settings.use_stamps
    full_key = (key, fragment, mode.value, use_stamps)
    memo = settings.locate_memo
    candidates = memo.get(full_key, _MISS)
    if candidates is _MISS:
        candidates = memo[full_key] = locate(
            pattern, stamps, fragment, mode, use_stamps=use_stamps
        )
    return candidates


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


def _take_cells(capsule: Capsule, rows: Optional[Sequence[int]]) -> List[bytes]:
    """Padded cells of *capsule* (all rows when None), accounted like
    every other read: the inflate and the cells both on the channel."""
    if rows is not None and not len(rows):
        return []  # nothing wanted: leave the Capsule unopened
    touch_capsule(capsule)
    cells = capsule.cells(rows)
    ledger_channel.charge_decoded_values(len(cells))
    return cells


def _direct_rows(
    capsule: Capsule, candidates: Optional[RowSet]
) -> Optional[List[int]]:
    """The rows of *capsule* to probe by direct checking: *candidates*
    when a fixed layout holds them and they are few enough; None means
    scan the whole Capsule."""
    if (
        candidates is None
        or capsule.layout != LAYOUT_FIXED
        or len(candidates) > DIRECT_CHECK_ROWS
    ):
        return None
    return candidates.rows()


def _row_list(rows: Optional[RowSet]) -> Optional[List[int]]:
    """*rows* as ascending row numbers, or None when every row is wanted."""
    return None if rows is None or rows.is_full() else rows.rows()


def literal_runs(keyword) -> List[str]:
    """The keyword's non-empty literal runs; none under ``-i``, where a
    case-sensitive byte search could miss a match."""
    return [] if keyword.ignore_case else keyword.literals()


class _VectorReader:
    """What the three readers share: values are decoded from ``pieces``
    and nowhere else.

    A reader keeps only what its vector's stored bytes determine; a
    search gets the run's :class:`QuerySettings` with every call, and
    every charge goes through :mod:`repro.obs.ledger`.
    """

    #: The Capsules the vector owns — what one search of it considers.
    num_capsules = 1

    def __init__(self, encoded):
        self.encoded = encoded
        self.num_rows = encoded.num_rows

    def pieces(self, rows: Optional[Sequence[int]]) -> List[Piece]:
        raise NotImplementedError

    def values(self, rows: Optional[Sequence[int]]) -> List[str]:
        """The decoded values of *rows* (ascending group rows; every row
        when None), in row order."""
        num_rows = self.num_rows if rows is None else len(rows)
        return decode_rows(join_cells(self.pieces(rows), num_rows))

    def value_counts(self, rows: Optional[RowSet]) -> "Counter[str]":
        """value → occurrences among *rows* (all rows when None).

        Real and plain vectors have no dictionary, so counting decodes
        every wanted row — the documented slow path of the Aggregate
        operator (its fast path is nominal index-cell counting).
        """
        return Counter(self.values(_row_list(rows)))

    def _verify(self, regex, rows: Optional[Sequence[int]]) -> RowSet:
        """The rows of *rows* (every row when None) whose decoded value
        the wildcard *regex* finds a match in."""
        result = RowSet.empty(self.num_rows)
        wanted = range(self.num_rows) if rows is None else rows
        values = self.values(rows)
        result.add_rows(
            [row for row, value in zip(wanted, values) if regex.search(value)]
        )
        return result


class RealVectorReader(_VectorReader):
    """Reader over a real variable vector (sub-variable Capsules)."""

    encoded: RealEncodedVector

    def __init__(self, encoded: RealEncodedVector):
        super().__init__(encoded)
        self._stamps: List[CapsuleStamp] = [
            capsule.stamp for capsule in encoded.subvar_capsules
        ]
        self._locate_key = (tuple(encoded.pattern.elements), tuple(self._stamps))
        self.num_capsules = len(self._stamps) + (encoded.outlier_capsule is not None)
        self._outlier_bits: Optional[RowSet] = None  # see _outliers
        self._matched_map: Optional[List[int]] = None  # capsule row → group row

    # ------------------------------------------------------------------
    def _matched_rows(self) -> List[int]:
        mapping = self._matched_map
        if mapping is None:
            mapping = self._matched_map = (
                RowSet.full(self.num_rows) - self._outliers()
            ).rows()
        return mapping

    @property
    def _num_matched(self) -> int:
        return self.num_rows - len(self.encoded.outlier_rows)

    def _outliers(self) -> RowSet:
        """The outlier rows as a group-row bitmap, built once."""
        bits = self._outlier_bits
        if bits is None:
            bits = self._outlier_bits = RowSet.from_rows(
                self.num_rows, self.encoded.outlier_rows
            )
        return bits

    def _capsule_candidates(self, candidates: Optional[RowSet]) -> Optional[RowSet]:
        """The pattern-matched rows among *candidates* (group rows), in
        capsule row space: empty when every candidate is an outlier, and
        None — check every matched row — without candidates or above
        :data:`DIRECT_CHECK_ROWS` of them."""
        if candidates is None:
            return None
        matched = candidates - self._outliers()
        if len(matched) > DIRECT_CHECK_ROWS:
            return None
        outlier_rows = self.encoded.outlier_rows
        if not outlier_rows:
            return matched  # capsule rows are group rows
        # A matched row's capsule row is its group row less the outliers
        # before it.
        return RowSet.from_rows(
            self._num_matched,
            [row - bisect_left(outlier_rows, row) for row in matched.rows()],
        )

    # ------------------------------------------------------------------
    def locate(
        self, fragment: str, mode: MatchMode, settings: QuerySettings
    ) -> Optional[List[Candidate]]:
        """The Locator's candidates for *fragment* over the pattern and
        sub-variable stamps (:data:`TOO_COMPLEX` past its budget): none
        proves that no pattern-matched value holds it."""
        pattern = self.encoded.pattern
        key = self._locate_key
        return _locate(settings, key, pattern, self._stamps, fragment, mode)

    def outlier_admits(self, fragment: str, settings: QuerySettings) -> bool:
        """Whether a search for *fragment* scans the outlier Capsule: the
        vector has one, and its stamp admits the fragment."""
        outlier = self.encoded.outlier_capsule
        return outlier is not None and (
            not settings.use_stamps or outlier.stamp.admits(fragment)
        )

    def search(
        self,
        fragment: str,
        mode: MatchMode,
        settings: QuerySettings,
        candidates: Optional[RowSet] = None,
    ) -> RowSet:
        result = RowSet.empty(self.num_rows)
        self._search_matched(
            fragment, mode, settings, result,
            self._capsule_candidates(candidates),
        )
        self._search_outliers_plain(fragment, mode, settings, result, candidates)
        return result

    def _search_matched(
        self,
        fragment: str,
        mode: MatchMode,
        settings: QuerySettings,
        result: RowSet,
        start: Optional[RowSet] = None,
    ) -> None:
        """Add the pattern-matched rows whose value contains *fragment*
        to *result*, checking only the capsule rows *start* when given."""
        num_matched = self._num_matched
        if num_matched == 0 or (start is not None and not start):
            return  # no pattern-matched row to check: inflate nothing
        encoded = self.encoded
        candidates = self.locate(fragment, mode, settings)
        if candidates is TOO_COMPLEX:
            ledger_channel.charge_locate(0, True)
            self._scan_matched(fragment, mode, result, start)
            return
        capsule_rows = RowSet.empty(num_matched)
        evaluated = 0
        for candidate in candidates:
            evaluated += 1
            if not candidate:
                capsule_rows = RowSet.full(num_matched) if start is None else start
                break
            current = start
            for subvar, frag, frag_mode in candidate:
                capsule = encoded.subvar_capsules[subvar]
                # §5.2 direct checking: probe only candidate rows.
                hint = _direct_rows(capsule, current)
                touch_capsule(capsule)
                rows = search_capsule(capsule, frag, frag_mode, rows_hint=hint)
                current = rows if current is None else current & rows
                if not current:
                    break
            if current:
                capsule_rows = capsule_rows | current
        if evaluated:
            ledger_channel.charge_locate(evaluated, False)
        if not capsule_rows:
            return
        if not self.encoded.outlier_rows:
            # Capsule rows are group rows: OR the bitmap in as it is.
            result.bits |= capsule_rows.bits
            return
        mapping = self._matched_rows()
        result.add_rows([mapping[crow] for crow in capsule_rows.rows()])

    def _scan_matched(
        self,
        fragment: str,
        mode: MatchMode,
        result: RowSet,
        start: Optional[RowSet],
    ) -> None:
        """Correct-but-slow fallback: decode every pattern-matched row
        (the capsule rows *start* when given) and test it."""
        mapping = self._matched_rows()
        crows = None if start is None else start.rows()
        pieces = self._matched_pieces(crows)
        num = self._num_matched if crows is None else len(crows)
        values = decode_rows(join_cells(pieces, num))
        result.add_rows(
            [
                mapping[crow]
                for crow, value in zip(crows or range(num), values)
                if value_matches(value, fragment, mode)
            ]
        )

    def _search_outliers_plain(
        self,
        fragment: str,
        mode: MatchMode,
        settings: QuerySettings,
        result: RowSet,
        candidates: Optional[RowSet],
    ) -> None:
        # Outliers escaped the pattern, so they are scanned whenever the
        # outlier Capsule's stamp admits the fragment and a candidate is
        # one.
        outlier = self.encoded.outlier_capsule
        if outlier is None or not self.outlier_admits(fragment, settings):
            return
        if candidates is not None and not candidates & self._outliers():
            return
        touch_capsule(outlier)
        rows = search_capsule(outlier, fragment, mode)
        outlier_rows = self.encoded.outlier_rows
        result.add_rows([outlier_rows[orow] for orow in rows.rows()])

    # ------------------------------------------------------------------
    def search_wildcard(
        self,
        keyword,
        mode: MatchMode,
        settings: QuerySettings,
        candidates: Optional[RowSet] = None,
    ) -> RowSet:
        """Wildcard search: literal runs narrow the candidate rows through
        the normal pattern/stamp machinery (byte-level), then only those
        rows — and every outlier, which escaped the pattern — are decoded
        and regex-verified: the structured analogue of index-assisted
        wildcard matching.  Given *candidates*, only those are decoded."""
        found = self._wildcard_candidates(
            keyword, settings, self._capsule_candidates(candidates)
        )
        wanted = candidates  # no usable literal run: every candidate
        if found is not None:
            found.add_rows(self.encoded.outlier_rows)
            wanted = found if candidates is None else found & candidates
        rows = None if wanted is None else wanted.rows()
        return self._verify(keyword.regex_for(mode), rows)

    def _wildcard_candidates(
        self,
        keyword,
        settings: QuerySettings,
        start: Optional[RowSet],
    ) -> Optional[RowSet]:
        """Pattern-matched rows (among the capsule rows *start* when
        given) that contain every (case-sensitive) literal run of the
        keyword; None when no run is checkable."""
        literals = literal_runs(keyword)
        if not literals:
            return None
        if start is not None and not start:
            return RowSet.empty(self.num_rows)  # every candidate is an outlier
        candidates: Optional[RowSet] = None
        for run in literals:
            rows = RowSet.empty(self.num_rows)
            self._search_matched(
                run, MatchMode.SUBSTRING, settings, rows, start
            )
            candidates = rows if candidates is None else candidates & rows
            if not candidates:
                break
        return candidates

    # ------------------------------------------------------------------
    def pieces(self, rows: Optional[Sequence[int]]) -> List[Piece]:
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
        outliers = _take_cells(encoded.outlier_capsule, picked)
        for place, cell in zip(places, outliers):
            column.insert(place, cell)
        return [column]

    def _matched_pieces(self, crows: Optional[Sequence[int]]) -> List[Piece]:
        """Pieces of the pattern-matched rows, in capsule row space."""
        encoded = self.encoded
        columns = [
            _take_cells(capsule, crows)
            for capsule in encoded.subvar_capsules
        ]
        return _pattern_pieces(encoded.pattern, columns)


class NominalVectorReader(_VectorReader):
    """Reader over a nominal variable vector (dictionary + index)."""

    encoded: NominalEncodedVector
    num_capsules = 2  # the dictionary and the index

    def __init__(self, encoded: NominalEncodedVector):
        super().__init__(encoded)
        self._region_slots: List[int] = []  # first slot of each pattern region
        # Each dictionary pattern's sub-variable stamps and Locator key,
        # built on the first search (see _pattern_keys).
        self._keys: Optional[List[Tuple[Tuple[CapsuleStamp, ...], tuple]]] = None
        self._table: Optional[Dict[bytes, bytes]] = None  # see _cell_table
        self._dictionary: Optional[List[str]] = None  # see _decoded_dictionary
        slot = 0
        for dp in encoded.dict_patterns:
            self._region_slots.append(slot)
            slot += dp.count

    # ------------------------------------------------------------------
    def _pattern_keys(self) -> List[Tuple[Tuple[CapsuleStamp, ...], tuple]]:
        """Each dictionary pattern's ``(sub-variable stamps, Locator
        key)``, built once."""
        keys = self._keys
        if keys is None:
            keys = []
            for dp in self.encoded.dict_patterns:
                stamps = tuple(
                    CapsuleStamp(mask, maxlen)
                    for mask, maxlen in zip(dp.subvar_masks, dp.subvar_maxlens)
                )
                keys.append((stamps, (tuple(dp.pattern.elements), stamps)))
            self._keys = keys
        return keys

    def _decoded_dictionary(self) -> List[str]:
        """Every dictionary value in slot order, decoded once from the
        cells of :meth:`_cell_table`."""
        table = self._cell_table()
        dictionary = self._dictionary
        if dictionary is None:
            dictionary = self._dictionary = decode_rows(list(table.values()))
        return dictionary

    # ------------------------------------------------------------------
    def live_patterns(
        self, fragment: str, mode: MatchMode, settings: QuerySettings
    ) -> List[int]:
        """The dictionary patterns the Locator keeps for *fragment*; one
        it rejects produces no value holding the fragment."""
        live = []
        for pattern_idx, (stamps, key) in enumerate(self._pattern_keys()):
            pattern = self.encoded.dict_patterns[pattern_idx].pattern
            found = _locate(settings, key, pattern, stamps, fragment, mode)
            if found is TOO_COMPLEX or found:
                live.append(pattern_idx)
        return live

    def matching_slots(
        self,
        fragment: str,
        mode: MatchMode,
        settings: QuerySettings,
    ) -> List[int]:
        """Dictionary slots whose value matches the fragment.

        In a region-packed dictionary each surviving pattern's region is
        scanned in place on the payload (§5.2 direct locating) — no
        dictionary entry is decoded at all.
        """
        encoded = self.encoded
        in_place = encoded.dict_capsule.layout == LAYOUT_REGION
        needle = fragment.encode("utf-8") if in_place else b""
        slots: List[int] = []
        for pattern_idx in self.live_patterns(fragment, mode, settings):
            dp = encoded.dict_patterns[pattern_idx]
            base = self._region_slots[pattern_idx]
            if in_place:
                touch_capsule(encoded.dict_capsule)
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
            region = self._decoded_dictionary()[base : base + dp.count]
            for local, value in enumerate(region):
                if value_matches(value, fragment, mode):
                    slots.append(base + local)
        return slots

    def search(
        self,
        fragment: str,
        mode: MatchMode,
        settings: QuerySettings,
        candidates: Optional[RowSet] = None,
    ) -> RowSet:
        slots = self.matching_slots(fragment, mode, settings)
        return self._rows_for_slots(slots, candidates)

    def search_wildcard(
        self,
        keyword,
        mode: MatchMode,
        settings: QuerySettings,
        candidates: Optional[RowSet] = None,
    ) -> RowSet:
        regex = keyword.regex_for(mode)
        slots = [
            slot
            for slot, value in enumerate(self._decoded_dictionary())
            if regex.search(value)
        ]
        return self._rows_for_slots(slots, candidates)

    def _rows_for_slots(
        self,
        slots: Sequence[int],
        candidates: Optional[RowSet] = None,
    ) -> RowSet:
        """The rows whose index cell names one of *slots*: only the
        *candidates*' cells when there are few enough of them (see
        :data:`DIRECT_CHECK_ROWS`), else every row."""
        encoded = self.encoded
        result = RowSet.empty(self.num_rows)
        if not slots:
            # The index Capsule is never decompressed — the dictionary
            # proved the keyword absent (§5.1).
            return result
        touch_capsule(encoded.index_capsule)
        width = encoded.index_width
        capsule = encoded.index_capsule
        wanted = (
            None
            if candidates is None or len(candidates) > DIRECT_CHECK_ROWS
            else candidates.rows()
        )
        targets = {str(slot).zfill(width).encode("utf-8") for slot in slots}
        rows: List[int] = []
        if (
            wanted is None
            and capsule.layout == LAYOUT_FIXED
            and width > 0
            and len(targets) <= 4
        ):
            # Selective dictionary hit: search each index number (§5.1).
            buf = capsule.plain()
            for target in targets:
                rows.extend(
                    scan.scan_fixed(buf, width, self.num_rows, target, scan.MODE_EXACT)
                )
        else:
            # One membership pass over the raw index cells — only the
            # candidates' under §5.2 direct checking — beats a scan per
            # matching slot, and serves a variable-layout index (w/o-fixed
            # ablation) too; no cell is decoded.
            cells = capsule.cells(wanted)
            ledger_channel.charge_rows_scanned(len(cells))
            rows = [
                row
                for row, cell in zip(wanted or range(len(cells)), cells)
                if cell in targets
            ]
        result.add_rows(rows)
        return result

    # ------------------------------------------------------------------
    def value_counts(self, rows: Optional[RowSet]) -> "Counter[str]":
        """value → occurrences among *rows* (all rows when None), counted
        on raw index cells — the §2 "dictionary is the group-by index"
        fast path.

        The index cells are tallied as raw bytes — charged as rows
        scanned, since no per-row value is ever decoded — then only the
        dictionary cells of the slots that actually occur are decoded, so
        decoding is proportional to the number of *distinct* values, not
        rows.
        """
        capsule = self.encoded.index_capsule
        touch_capsule(capsule)
        cells = capsule.cells(_row_list(rows))
        ledger_channel.charge_rows_scanned(len(cells))
        cell_counts = Counter(cells)
        values = decode_rows(self._dictionary_cells(cell_counts))
        out: "Counter[str]" = Counter()
        for value, n in zip(values, cell_counts.values()):
            out[value] += n
        return out

    def pieces(self, rows: Optional[Sequence[int]]) -> List[Piece]:
        """The values of *rows* (every row when None) as one column of
        padded dictionary cells, mapped from the raw index cells."""
        cells = _take_cells(self.encoded.index_capsule, rows)
        return [self._dictionary_cells(cells)]

    def _dictionary_cells(self, index_cells: Iterable[bytes]) -> List[bytes]:
        """The padded dictionary cell each raw index cell names."""
        table = self._cell_table()
        try:
            return list(map(table.__getitem__, index_cells))
        except KeyError as exc:
            raise FormatError(
                f"index cell {exc.args[0]!r} names no dictionary slot"
            ) from None

    def _cell_table(self) -> Dict[bytes, bytes]:
        """Raw (zero-filled) index cell → padded dictionary cell, built
        once per vector from the dictionary payload.  Every call reads
        the dictionary Capsule, whether or not it builds the table."""
        encoded = self.encoded
        capsule = encoded.dict_capsule
        touch_capsule(capsule)
        table = self._table
        if table is None:
            if capsule.layout == LAYOUT_REGION:
                cells = capsule.region_cells(
                    [(dp.count, dp.width) for dp in encoded.dict_patterns]
                )
            else:
                cells = capsule.cells()
            ledger_channel.charge_decoded_values(len(cells))
            width = encoded.index_width
            table = self._table = {
                str(slot).zfill(width).encode("ascii"): cell
                for slot, cell in enumerate(cells)
            }
        return table


class PlainVectorReader(_VectorReader):
    """Reader over a whole-vector Capsule (§2.2's first attempt)."""

    encoded: PlainEncodedVector

    def admits(self, fragment: str, settings: QuerySettings) -> bool:
        """Whether a search for *fragment* reads the Capsule: its stamp
        admits the fragment."""
        stamp = self.encoded.capsule.stamp
        return not settings.use_stamps or stamp.admits(fragment)

    def search(
        self,
        fragment: str,
        mode: MatchMode,
        settings: QuerySettings,
        candidates: Optional[RowSet] = None,
    ) -> RowSet:
        if not self.admits(fragment, settings):
            return RowSet.empty(self.num_rows)
        capsule = self.encoded.capsule
        touch_capsule(capsule)
        return search_capsule(
            capsule, fragment, mode, rows_hint=_direct_rows(capsule, candidates)
        )

    def search_wildcard(
        self,
        keyword,
        mode: MatchMode,
        settings: QuerySettings,
        candidates: Optional[RowSet] = None,
    ) -> RowSet:
        capsule = self.encoded.capsule
        literals = literal_runs(keyword)
        if not all(self.admits(run, settings) for run in literals):
            return RowSet.empty(self.num_rows)
        if literals:
            # Narrow with the literal runs, verify only candidate rows.
            touch_capsule(capsule)
            for run in literals:
                found = search_capsule(
                    capsule, run, MatchMode.SUBSTRING,
                    rows_hint=_direct_rows(capsule, candidates),
                )
                candidates = found if candidates is None else candidates & found
                if not candidates:
                    return candidates
        rows = None if candidates is None else candidates.rows()
        return self._verify(keyword.regex_for(mode), rows)

    def pieces(self, rows: Optional[Sequence[int]]) -> List[Piece]:
        """The values of *rows* (every row when None): one padded column."""
        return [_take_cells(self.encoded.capsule, rows)]


VectorReader = Union[RealVectorReader, NominalVectorReader, PlainVectorReader]


def make_reader(encoded) -> VectorReader:
    """Reader factory over the three encodings."""
    if isinstance(encoded, RealEncodedVector):
        return RealVectorReader(encoded)
    if isinstance(encoded, NominalEncodedVector):
        return NominalVectorReader(encoded)
    if isinstance(encoded, PlainEncodedVector):
        return PlainVectorReader(encoded)
    raise TypeError(f"unknown encoded vector {type(encoded)!r}")


class BoxReaders:
    """The vector readers of one :class:`CapsuleBox`, built on first use
    and owned by the box (see :func:`box_readers`), plus each group's
    token position → variable ordinal map and the rows the
    Reconstructor has rendered so far.

    Rendered rows are kept as they come (:meth:`keep`: the row list and
    its texts, no per-row work, so a box that dies after one query pays
    almost nothing for them) and folded into one row → text map per
    group only when a later request must pick from them
    (:meth:`texts_of`).  Both run under the box's lock, which publishes
    a group's texts together with its ``rendered`` bitmap: a row whose
    bit a reader sees always has its text."""

    __slots__ = (
        "_chunks", "_groups", "_lock", "_texts", "readers", "rendered",
        "var_ordinals",
    )

    def __init__(self, box: CapsuleBox):
        self._groups = box.groups
        #: (group, var) → reader.
        self.readers: Dict[Tuple[int, int], VectorReader] = {}
        #: group → bitmap (a :class:`RowSet`'s ``bits``) of the rows
        #: rendered so far.
        self.rendered: Dict[int, int] = {}
        #: group → row → text, for the rendered rows folded so far.
        self._texts: Dict[int, Dict[int, str]] = {}
        #: group → (rows, texts) renders not folded into ``_texts`` yet.
        self._chunks: Dict[int, List[Tuple[Sequence[int], List[str]]]] = {}
        self._lock = threading.Lock()
        self.var_ordinals: List[Dict[int, int]] = [
            {pos: k for k, pos in enumerate(group.template.var_positions)}
            for group in box.groups
        ]

    def keep(
        self, group_idx: int, bits: int, rows: Sequence[int], texts: List[str]
    ) -> None:
        """Publish the *texts* of *rows* (bitmap *bits*) of a group."""
        with self._lock:
            self._chunks.setdefault(group_idx, []).append((rows, texts))
            self.rendered[group_idx] = self.rendered.get(group_idx, 0) | bits

    def texts_of(self, group_idx: int) -> Dict[int, str]:
        """Row → text of every row of a group rendered so far.  Callers
        only read it; later folds only add to it."""
        with self._lock:
            known = self._texts.setdefault(group_idx, {})
            for rows, texts in self._chunks.pop(group_idx, ()):
                known.update(zip(rows, texts))
            return known

    def stamp(self, group_idx: int, var_idx: int) -> VectorStamp:
        """The vector's :func:`vector_stamp`; an opened box has it
        without building the vector."""
        return self._groups[group_idx].stamps[var_idx]

    def reader(self, group_idx: int, var_idx: int) -> VectorReader:
        key = (group_idx, var_idx)
        reader = self.readers.get(key)
        if reader is None:
            # setdefault is atomic: of two racing builds one is kept, and
            # every caller gets that one.
            reader = self.readers.setdefault(
                key, make_reader(self._groups[group_idx].vectors[var_idx])
            )
        return reader


_ATTACH_LOCK = threading.Lock()


def box_readers(box: CapsuleBox) -> BoxReaders:
    """The readers of *box*, attached to it on first use: they live and
    die with the box, whether it is pinned, cached or opened for one
    query."""
    readers = box.readers
    if readers is None:
        with _ATTACH_LOCK:
            if box.readers is None:
                box.readers = BoxReaders(box)
            readers = box.readers
    return cast(BoxReaders, readers)
