"""Six-bit character-class masks used by Capsule stamps (paper §2.2, §4.3).

LogGrep summarizes the characters appearing in a value set with a six-bit
type number.  Each bit records whether any value contains a character from
one of six classes:

=====  ==========  =======================================
bit    class       characters
=====  ==========  =======================================
0      DIGIT       ``0``-``9``
1      HEX_LOWER   ``a``-``f``
2      HEX_UPPER   ``A``-``F``
3      ALPHA_LOWER ``g``-``z``
4      ALPHA_UPPER ``G``-``Z``
5      OTHER       everything else
=====  ==========  =======================================

The stamp filter of §5.1 is then a single check: a keyword fragment with
mask ``K`` can only occur in a Capsule with mask ``C`` if ``K & C == K``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

DIGIT = 0b000001
HEX_LOWER = 0b000010
HEX_UPPER = 0b000100
ALPHA_LOWER = 0b001000
ALPHA_UPPER = 0b010000
OTHER = 0b100000

ALL_CLASSES = DIGIT | HEX_LOWER | HEX_UPPER | ALPHA_LOWER | ALPHA_UPPER | OTHER

CLASS_NAMES = {
    DIGIT: "0-9",
    HEX_LOWER: "a-f",
    HEX_UPPER: "A-F",
    ALPHA_LOWER: "g-z",
    ALPHA_UPPER: "G-Z",
    OTHER: "other",
}

# Precomputed per-character class for the whole 8-bit range: indexing a list
# is the hottest operation during stamping, so avoid branching per char.
_CHAR_CLASS = [OTHER] * 256
for _c in range(ord("0"), ord("9") + 1):
    _CHAR_CLASS[_c] = DIGIT
for _c in range(ord("a"), ord("f") + 1):
    _CHAR_CLASS[_c] = HEX_LOWER
for _c in range(ord("A"), ord("F") + 1):
    _CHAR_CLASS[_c] = HEX_UPPER
for _c in range(ord("g"), ord("z") + 1):
    _CHAR_CLASS[_c] = ALPHA_LOWER
for _c in range(ord("G"), ord("Z") + 1):
    _CHAR_CLASS[_c] = ALPHA_UPPER


#: The class bit of each byte of a NUL-padded UTF-8 buffer, as a
#: ``bytes.translate`` table.  It is exact: every non-ASCII character is
#: ``OTHER``, and UTF-8 spells those with bytes >= 0x80 alone, which map to
#: ``OTHER``; the NUL pad (or separator) maps to no class at all.
_CLASS_OF_BYTE = bytes([0, *_CHAR_CLASS[1:128], *[OTHER] * 128])


def char_class(ch: str) -> int:
    """Return the class bit of a single character."""
    code = ord(ch)
    if code < 256:
        return _CHAR_CLASS[code]
    return OTHER


def type_mask(text: str) -> int:
    """Return the six-bit type number of *text* (0 for the empty string).

    Only the *distinct* characters are classified: a column of values
    holds a few dozen of them however long it is, so the cost is one C
    pass to build the set plus a lookup per distinct character.
    """
    mask = 0
    for ch in set(text):
        code = ord(ch)
        mask |= _CHAR_CLASS[code] if code < 256 else OTHER
    return mask


@lru_cache(maxsize=4096)
def fragment_mask(fragment: str) -> int:
    """:func:`type_mask` of a query fragment or pattern constant, computed
    once per distinct string: a query checks the same few fragments
    against every Capsule stamp and block summary it meets, and blocks
    of one log repeat their pattern constants."""
    return type_mask(fragment)


def type_mask_of_values(values: Iterable[str]) -> int:
    """Return the combined type number of every value in *values*."""
    return type_mask("".join(values))


def type_mask_of_buffer(buf: bytes) -> int:
    """:func:`type_mask_of_values` of the UTF-8 values NUL-padded or
    NUL-separated in *buf*: one C pass classes every byte, and one
    ``in`` (a memchr) per class reads the mask off the result."""
    classes = buf.translate(_CLASS_OF_BYTE)
    return sum(bit for bit in CLASS_NAMES if bit in classes)


def mask_subsumes(capsule_mask: int, keyword_mask: int) -> bool:
    """Stamp filter check of §5.1: can a fragment with *keyword_mask* occur
    in data whose combined mask is *capsule_mask*?"""
    return keyword_mask & capsule_mask == keyword_mask


def class_count(mask: int) -> int:
    """Number of distinct character classes present in *mask*."""
    return bin(mask & ALL_CLASSES).count("1")


def describe(mask: int) -> str:
    """Human-readable class list, e.g. ``"0-9|A-F"`` (used in debug dumps)."""
    parts = [name for bit, name in CLASS_NAMES.items() if mask & bit]
    return "|".join(parts) if parts else "empty"
