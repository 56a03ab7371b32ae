"""Runtime-pattern model.

A *runtime pattern* (paper §2.3) is structure that appears within one
variable vector at run time — e.g. every value of a ``filepath`` variable
in a block matching ``/tmp/1FF8<*>.log``.  A pattern is a sequence of
constant fragments and **sub-variables**; all values of the same
sub-variable across the vector form a *sub-variable vector*, which becomes
its own Capsule (§4.2).

:meth:`RuntimePattern.split` splits a whole vector into its sub-variable
vectors, anchoring each constant at its first occurrence left-to-right —
the same greedy rule the tree-expanding extractor uses, so values the
extractor would have split are matched consistently.  Values that do not
match go to the outlier Capsule; accuracy affects performance, never
correctness.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress
from typing import List, Optional, Sequence, Tuple, Union

from ..common.binio import BinaryWriter
from ..common.errors import NUL_IN_VALUE, CompressionError


@dataclass(frozen=True)
class Const:
    """A literal fragment of a runtime pattern."""

    text: str


@dataclass(frozen=True)
class SubVar:
    """A variable part of a runtime pattern (one ``<*>``).

    ``index`` is the sub-variable's ordinal within its pattern; it names the
    Capsule holding the corresponding sub-variable vector.
    """

    index: int


Element = Union[Const, SubVar]


class RuntimePattern:
    """An ordered mix of :class:`Const` and :class:`SubVar` elements."""

    __slots__ = ("elements",)

    def __init__(self, elements: Sequence[Element]):
        self.elements = list(_normalize(elements))

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def num_subvars(self) -> int:
        return sum(1 for el in self.elements if isinstance(el, SubVar))

    @property
    def is_trivial(self) -> bool:
        """True when the pattern is a single bare sub-variable (no structure
        was found — equivalent to the static-pattern-only encoding)."""
        return len(self.elements) == 1 and isinstance(self.elements[0], SubVar)

    @property
    def is_constant(self) -> bool:
        """True when the pattern has no sub-variables at all."""
        return self.num_subvars == 0

    def constant_text(self) -> str:
        """Concatenated constant fragments (for keyword-in-constant checks)."""
        return "".join(el.text for el in self.elements if isinstance(el, Const))

    def display(self) -> str:
        parts = []
        for el in self.elements:
            parts.append(el.text if isinstance(el, Const) else "<*>")
        return "".join(parts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RuntimePattern) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(tuple(self.elements))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RuntimePattern({self.display()!r})"

    # ------------------------------------------------------------------
    # value matching
    # ------------------------------------------------------------------
    def split(
        self, values: Sequence[str]
    ) -> Tuple[List[Sequence[bytes]], List[int], List[str]]:
        """Split a whole vector: ``(columns, outlier_rows, outlier_values)``.

        ``columns[k]`` holds sub-variable *k* of every row that fits the
        pattern, in row order, as UTF-8 cells (what the packers store);
        rows that do not fit are listed (sorted) in ``outlier_rows`` with
        their values, as given, alongside.

        Constants anchor greedily: a leading constant must be a prefix, a
        trailing constant a suffix, and interior constants bind to their
        first occurrence after the previous element.  The rule is compiled
        into a regex (:meth:`_splitter`) and run once over the UTF-8 of
        the NUL-joined column, so the cost per value is the regex
        engine's, not a Python call's.  UTF-8 is self-synchronising: a
        constant's first occurrence in bytes is its first in characters.
        """
        if self.is_trivial:
            return [list(map(str.encode, values))], [], []
        num_subvars = self.num_subvars
        if not num_subvars:
            # Nothing to capture: a row fits iff it *is* the constant.
            text = self.constant_text()
            rows = [row for row, value in enumerate(values) if value != text]
            return [], rows, [values[row] for row in rows]
        joined = "\0".join([*values, ""]).encode()
        if joined.count(0) != len(values):
            # A NUL inside a value would shift every later row; Capsules
            # cannot hold one either (``capsule._reject_nul``).
            raise CompressionError(NUL_IN_VALUE)
        found = self._splitter().findall(joined)  # one tuple per row
        columns: List[Sequence[bytes]] = list(zip(*found)) or [
            () for _ in range(num_subvars + 1)
        ]
        # The last group is the whole row where the pattern did not fit —
        # except that an outlier "" reads there like a fitting row.  A
        # pattern holding a constant cannot fit ""; one made of
        # sub-variables alone fits every row.
        unfit = columns.pop()
        if not self.constant_text() or not (any(unfit) or "" in values):
            return columns, [], []
        fits = [bool(value) and not whole for value, whole in zip(values, unfit)]
        rows = [row for row, fit in enumerate(fits) if not fit]
        columns = [list(compress(column, fits)) for column in columns]
        return columns, rows, [values[row] for row in rows]

    def match(self, value: str) -> Optional[List[str]]:
        """Split one *value* into sub-values, or None when it doesn't fit
        (:meth:`split` on a vector of one)."""
        columns, outlier_rows, _ = self.split([value])
        return None if outlier_rows else [column[0].decode() for column in columns]

    def _splitter(self) -> "re.Pattern[bytes]":
        """The split rule as one regex matching exactly one row per hit.

        Every class is ``[^\\x00]`` and every hit ends at the row's NUL, so
        hits cannot straddle rows; the final ``|([^\\x00]*)`` alternative
        fits any row, so ``findall`` yields one tuple per row.  An interior
        constant is an *atomic* lazy group: lazy finds its first
        occurrence, atomic forbids retrying a later one when the rest of
        the pattern fails.  A later one cannot succeed where the first did
        not (the sub-variable that follows would absorb the difference),
        so without ``(?>`` a row that does not fit costs a search of every
        combination of occurrences to reach the same answer.
        """
        parts: List[bytes] = []
        pending = False  # a SubVar is waiting for its right boundary
        last = len(self.elements) - 1
        for i, el in enumerate(self.elements):
            if isinstance(el, SubVar):
                if pending:
                    # Two adjacent sub-variables cannot be disambiguated;
                    # the first gets the empty value.
                    parts.append(b"()")
                pending = True
                continue
            text = re.escape(el.text.encode())
            if not pending:
                parts.append(text)
            elif i == last:
                parts.append(rb"([^\x00]*)" + text)
            else:
                parts.append(rb"(?>([^\x00]*?)" + text + b")")
            pending = False
        if pending:
            parts.append(rb"([^\x00]*)")
        # Blocks of one log repeat their patterns: re's own cache holds
        # the compiled form from one vector to the next.
        return re.compile(b"(?:" + b"".join(parts) + rb"|([^\x00]*))\x00")

    def render(self, subvalues: Sequence[str]) -> str:
        """Inverse of :meth:`match`."""
        out = []
        for el in self.elements:
            if isinstance(el, Const):
                out.append(el.text)
            else:
                out.append(subvalues[el.index])
        return "".join(out)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def write(self, writer: BinaryWriter) -> None:
        writer.write_varint(len(self.elements))
        for el in self.elements:
            if isinstance(el, Const):
                writer.write_u8(0)
                writer.write_str(el.text)
            else:
                writer.write_u8(1)
                writer.write_varint(el.index)


def _normalize(elements: Sequence[Element]):
    """Merge adjacent constants, drop empty ones, renumber sub-variables."""
    merged: List[Element] = []
    next_index = 0
    for el in elements:
        if isinstance(el, Const):
            if not el.text:
                continue
            if merged and isinstance(merged[-1], Const):
                merged[-1] = Const(merged[-1].text + el.text)
            else:
                merged.append(el)
        else:
            merged.append(SubVar(next_index))
            next_index += 1
    return merged


def pattern_from_fragments(fragments: Sequence[Optional[str]]) -> RuntimePattern:
    """Build a pattern from a fragment list where ``None`` marks a sub-variable."""
    elements: List[Element] = []
    idx = 0
    for frag in fragments:
        if frag is None:
            elements.append(SubVar(idx))
            idx += 1
        else:
            elements.append(Const(frag))
    return RuntimePattern(elements)
