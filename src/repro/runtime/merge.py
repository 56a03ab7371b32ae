"""Pattern-merging extraction for nominal variable vectors (paper §4.1, Fig 5).

Nominal vectors (duplication rate ≥ 0.5) have few unique values but those
values may follow several patterns.  The extractor:

1. dedupes the vector into a temporary vector of unique values;
2. splits each unique value into a *pattern sketch* using the
   non-alphanumeric characters as delimiters;
3. merges values with the same sketch; a sub-variable whose fragment is
   identical across a sketch's values is folded into a constant;
4. reorders the unique values so that all values of the same pattern are
   stored sequentially — this is the **dictionary vector** — and replaces
   each original value with its dictionary slot, producing the
   **index vector** of fixed-width decimal indices.

The sketch grouping sorts the unique values (O(n log n)), which is cheap
because only deduplicated values are processed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..common import chartypes
from .pattern import Const, Element, RuntimePattern, SubVar


@dataclass
class DictPattern:
    """One merged pattern of a dictionary vector plus its stamp data.

    ``count`` and ``width`` are recorded in the Capsule stamp (§4.3) and
    enable the Σ count·width jump into the padded dictionary region (§5.2);
    ``width`` is therefore the widest value's length in UTF-8 *bytes*.
    """

    pattern: RuntimePattern
    count: int
    width: int
    subvar_masks: List[int] = field(default_factory=list)
    subvar_maxlens: List[int] = field(default_factory=list)

    def display(self) -> str:
        return f"{self.pattern.display()} (cnt={self.count}, len={self.width})"


@dataclass
class NominalEncoding:
    """The full result of pattern merging for one variable vector."""

    patterns: List[DictPattern]
    dict_values: List[str]  # unique values, grouped by pattern
    index: List[int]  # original row → dictionary slot
    index_width: int  # IdxLen: decimal digits per index entry

    @property
    def num_rows(self) -> int:
        return len(self.index)

    def value_at(self, row: int) -> str:
        return self.dict_values[self.index[row]]


def sketch_of(value: str) -> Tuple[Tuple[Optional[str], ...], List[str]]:
    """Split *value* into a pattern sketch.

    Returns ``(key, fragments)`` where *key* is the sketch shape — a tuple
    holding delimiter strings for non-alphanumeric runs and ``None`` for
    alphanumeric runs — and *fragments* holds the text of the alphanumeric
    runs (the prospective sub-variable values).
    """
    key: List[Optional[str]] = []
    fragments: List[str] = []
    i = 0
    n = len(value)
    while i < n:
        start = i
        if value[i].isalnum():
            while i < n and value[i].isalnum():
                i += 1
            key.append(None)
            fragments.append(value[start:i])
        else:
            while i < n and not value[i].isalnum():
                i += 1
            key.append(value[start:i])
    return tuple(key), fragments


def extract_nominal(values: Sequence[str]) -> NominalEncoding:
    """Run the pattern-merging pipeline on one variable vector."""
    uniques = list(dict.fromkeys(values))

    groups: Dict[Tuple[Optional[str], ...], List[Tuple[str, List[str]]]] = {}
    for value in uniques:
        key, fragments = sketch_of(value)
        groups.setdefault(key, []).append((value, fragments))

    # Sort sketches for a deterministic dictionary layout (the paper sorts
    # the sketches so same-pattern values are stored sequentially).
    ordered_keys = sorted(groups, key=_sketch_sort_key)

    patterns: List[DictPattern] = []
    dict_values: List[str] = []
    slot_of: Dict[str, int] = {}
    for key in ordered_keys:
        members = groups[key]
        patterns.append(_merge_group(key, members))
        for value, _ in members:
            slot_of[value] = len(dict_values)
            dict_values.append(value)

    index = [slot_of[value] for value in values]
    index_width = len(str(len(dict_values) - 1)) if dict_values else 1
    return NominalEncoding(patterns, dict_values, index, index_width)


def _merge_group(
    key: Tuple[Optional[str], ...],
    members: List[Tuple[str, List[str]]],
) -> DictPattern:
    """Merge the values of one sketch into a pattern, folding constants."""
    elements: List[Element] = []
    subvar_masks: List[int] = []
    subvar_maxlens: List[int] = []
    frag_pos = 0
    subvar_idx = 0
    for part in key:
        if part is not None:
            elements.append(Const(part))
            continue
        column = [fragments[frag_pos] for _, fragments in members]
        frag_pos += 1
        first = column[0]
        if all(frag == first for frag in column):
            elements.append(Const(first))
        else:
            elements.append(SubVar(subvar_idx))
            subvar_idx += 1
            subvar_masks.append(chartypes.type_mask_of_values(column))
            subvar_maxlens.append(max(len(frag) for frag in column))
    # A byte stride (pack_regions pads to it, region_start_byte and
    # scan_region jump by it), so it is measured on the UTF-8 encoding;
    # the sub-variable maxlens above are stamp lengths, in characters.
    width = max((len(value.encode("utf-8")) for value, _ in members), default=0)
    return DictPattern(
        RuntimePattern(elements),
        count=len(members),
        width=width,
        subvar_masks=subvar_masks,
        subvar_maxlens=subvar_maxlens,
    )


def _sketch_sort_key(key: Tuple[Optional[str], ...]) -> Tuple:
    """Total order over sketch keys (None sorts before any string)."""
    return tuple((0, "") if part is None else (1, part) for part in key)
