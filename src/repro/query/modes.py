"""Keyword matching modes (paper §5.1).

Depending on where a keyword sits in a search string, it must occur in a
value as a prefix, a suffix, an exact match or an arbitrary substring.
The Locator's recursion also produces constraints in these four modes for
individual sub-variable vectors.
"""

from __future__ import annotations

import enum
from typing import AnyStr


class AggregateKind(enum.Enum):
    """What an aggregate plan folds the matched rows into (§2).

    The first five are user-facing (``cli.py agg``); ``VALUES`` and
    ``PAIRS`` extract a raw column or a same-template (key, value) column
    pair through ``LogGrep.aggregate``, on the same executor pipeline.
    """

    COUNT_BY = "count_by"  # GROUP BY field, COUNT(*)
    TOP_K = "top_k"  # k most frequent field values
    STATS = "stats"  # numeric summary of a field
    HISTOGRAM = "histogram"  # time-bucketed hit counts (logical clock)
    COUNT_BY_TEMPLATE = "count_by_template"  # GROUP BY static pattern
    VALUES = "values"  # raw column stream (internal)
    PAIRS = "pairs"  # (key, value) column join (internal)


class MatchMode(enum.Enum):
    """How a fragment must occur within a value."""

    EXACT = "exact"
    PREFIX = "prefix"
    SUFFIX = "suffix"
    SUBSTRING = "substring"


def value_matches(value: AnyStr, fragment: AnyStr, mode: MatchMode) -> bool:
    """Test *fragment* against a single concrete value (str or bytes —
    the byte-level scan fallback matches rendered raw values directly)."""
    if mode is MatchMode.EXACT:
        return value == fragment
    if mode is MatchMode.PREFIX:
        return value.startswith(fragment)
    if mode is MatchMode.SUFFIX:
        return value.endswith(fragment)
    return fragment in value
