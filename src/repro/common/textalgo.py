"""String helpers of the tree-expanding extractor (paper §4.1)."""

from __future__ import annotations

import random
from typing import Optional, Tuple


def longest_common_substring(a: str, b: str) -> str:
    """Longest common substring of two strings (first-leftmost on ties).

    Used by the tree-expanding extractor (§4.1) to propose delimiters:
    values of the same sub-variable vector tend to share literal fragments
    like ``"F8"`` in Fig 4.  Dynamic programming over the shorter string's
    suffix automaton is overkill; the vectors sampled here are short ids, so
    the O(len(a)*len(b)) rolling-row DP is appropriate and allocation-light.
    """
    if not a or not b:
        return ""
    if len(a) < len(b):
        a, b = b, a
    best_len = 0
    best_end = 0  # end position in `a`
    prev = [0] * (len(b) + 1)
    for i, ca in enumerate(a):
        cur = [0] * (len(b) + 1)
        for j, cb in enumerate(b):
            if ca == cb:
                length = prev[j] + 1
                cur[j + 1] = length
                if length > best_len:
                    best_len = length
                    best_end = i + 1
        prev = cur
    return a[best_end - best_len : best_end]


def random_nonalnum_char(value: str, rng: random.Random) -> Optional[str]:
    """Pick a random non-alphanumeric character of *value*, or None."""
    candidates = [ch for ch in value if not ch.isalnum()]
    if not candidates:
        return None
    return rng.choice(candidates)


def split_first(value: str, delimiter: str) -> Optional[Tuple[str, str]]:
    """Split *value* at the first occurrence of *delimiter*.

    Returns ``(left, right)`` excluding the delimiter itself, or ``None``
    when the delimiter does not occur.
    """
    pos = value.find(delimiter)
    if pos == -1:
        return None
    return value[:pos], value[pos + len(delimiter) :]
