"""Capsule stamps (paper §4.3).

A stamp summarizes a Capsule's values with a six-bit character-class mask
and the maximum value length.  During query execution, the Locator checks a
keyword fragment against the stamp *before* decompressing the Capsule: if
the fragment uses a character class the Capsule never contains
(``K & C != K``) or is longer than any value could be, the Capsule is
skipped entirely — the central cheap-filtering trick of the paper.

The packer takes the mask from one class pass over its padded UTF-8
buffer (``chartypes.type_mask_of_buffer``) and the length from its cells.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common import chartypes


@dataclass(frozen=True)
class CapsuleStamp:
    """Type mask + max length of a Capsule's values."""

    type_mask: int
    max_len: int

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
        return chartypes.mask_subsumes(
            self.type_mask, chartypes.fragment_mask(fragment)
        )
