"""Capsule stamps (paper §4.3).

A stamp summarizes a Capsule's values with a six-bit character-class mask
and the maximum value length.  During query execution, the Locator checks a
keyword fragment against the stamp *before* decompressing the Capsule: if
the fragment uses a character class the Capsule never contains
(``K & C != K``) or is longer than any value could be, the Capsule is
skipped entirely — the central cheap-filtering trick of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..common import chartypes
from ..common.binio import BinaryReader, BinaryWriter


@dataclass(frozen=True)
class CapsuleStamp:
    """Type mask + max length of a Capsule's values."""

    type_mask: int
    max_len: int

    @classmethod
    def of_values(cls, values: Sequence[str]) -> "CapsuleStamp":
        mask = chartypes.type_mask_of_values(values)
        max_len = max(map(len, values), default=0)
        return cls(mask, max_len)

    @classmethod
    def permissive(cls) -> "CapsuleStamp":
        """A stamp that admits everything (used by the w/o-stamp ablation)."""
        return cls(chartypes.ALL_CLASSES, 1 << 30)

    def admits(self, fragment: str) -> bool:
        """Could *fragment* occur inside some value of this Capsule?

        True when every character class of the fragment appears in the
        Capsule and the fragment is no longer than the longest value.  This
        is necessary for EXACT, PREFIX, SUFFIX and SUBSTRING occurrence
        alike, so one check serves all four matching modes.
        """
        if len(fragment) > self.max_len:
            return False
        return chartypes.mask_subsumes(self.type_mask, chartypes.type_mask(fragment))

    def write(self, writer: BinaryWriter) -> None:
        writer.write_u8(self.type_mask)
        writer.write_varint(self.max_len)

    @classmethod
    def read(cls, reader: BinaryReader) -> "CapsuleStamp":
        return cls(reader.read_u8(), reader.read_varint())
