"""Bitmap row sets.

Query evaluation in LogGrep is row-set algebra: each keyword match against a
group produces the set of entry rows that may contain the keyword, and the
logical operators of a query command combine these sets.  We back the sets
with arbitrary-precision integers, which gives branch-free AND/OR/NOT over
thousands of rows per machine word.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List


#: Set bit positions of every byte value.
_BYTE_ROWS = [tuple(bit for bit in range(8) if byte >> bit & 1) for byte in range(256)]


class RowSet:
    """An immutable-ish set of non-negative row indices backed by a bitmap.

    The universe size ``n`` is carried along so complement (``invert``) is
    well defined.  All binary operators require equal universe sizes.
    """

    __slots__ = ("bits", "n")

    def __init__(self, n: int, bits: int = 0):
        if n < 0:
            raise ValueError("universe size must be non-negative")
        self.n = n
        self.bits = bits & ((1 << n) - 1) if n else 0

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, n: int) -> "RowSet":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "RowSet":
        return cls(n, (1 << n) - 1)

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[int]) -> "RowSet":
        """The set of *rows*, in any order, duplicates allowed.

        The bitmap is built in a ``bytearray`` and converted once:
        ``bits |= 1 << row`` per row would copy the whole integer each
        time, which is quadratic in the universe for dense hits.
        """
        rows = list(rows)
        if not rows:
            return cls(n, 0)
        low, high = min(rows), max(rows)
        if low < 0 or high >= n:
            bad = low if low < 0 else high
            raise IndexError(f"row {bad} outside universe of {n}")
        buf = bytearray((n + 7) >> 3)
        for row in rows:
            buf[row >> 3] |= 1 << (row & 7)
        return cls(n, int.from_bytes(buf, "little"))

    # ------------------------------------------------------------------
    # mutation (used while accumulating matches)
    # ------------------------------------------------------------------
    def add(self, row: int) -> None:
        if not 0 <= row < self.n:
            raise IndexError(f"row {row} outside universe of {self.n}")
        self.bits |= 1 << row

    def add_rows(self, rows: Iterable[int]) -> None:
        """Add every row of *rows* with one bitmap build (see
        :meth:`from_rows`), not a shift per row."""
        self.bits |= RowSet.from_rows(self.n, rows).bits

    # ------------------------------------------------------------------
    # set algebra
    # ------------------------------------------------------------------
    def _check(self, other: "RowSet") -> None:
        if self.n != other.n:
            raise ValueError(f"universe mismatch: {self.n} vs {other.n}")

    def __and__(self, other: "RowSet") -> "RowSet":
        self._check(other)
        return RowSet(self.n, self.bits & other.bits)

    def __or__(self, other: "RowSet") -> "RowSet":
        self._check(other)
        return RowSet(self.n, self.bits | other.bits)

    def __sub__(self, other: "RowSet") -> "RowSet":
        self._check(other)
        return RowSet(self.n, self.bits & ~other.bits)

    def invert(self) -> "RowSet":
        return RowSet(self.n, ~self.bits)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __contains__(self, row: int) -> bool:
        return 0 <= row < self.n and bool(self.bits >> row & 1)

    def __len__(self) -> int:
        return bin(self.bits).count("1")

    def __bool__(self) -> bool:
        return self.bits != 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RowSet) and self.n == other.n and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __iter__(self) -> Iterator[int]:
        return iter(self.rows())

    def rows(self) -> List[int]:
        """The member rows, ascending."""
        if self.is_full():
            return list(range(self.n))
        # One pass over the bitmap's bytes; peeling bit by bit would redo
        # full-width integer arithmetic per member (quadratic when dense).
        data = self.bits.to_bytes((self.n + 7) // 8, "little")
        return [
            base + bit
            for base, byte in zip(range(0, len(data) * 8, 8), data)
            if byte
            for bit in _BYTE_ROWS[byte]
        ]

    def is_full(self) -> bool:
        return self.n > 0 and self.bits == (1 << self.n) - 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        shown = self.rows()
        if len(shown) > 8:
            shown = shown[:8] + ["..."]  # type: ignore[list-item]
        return f"RowSet(n={self.n}, rows={shown})"
