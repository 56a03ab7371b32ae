"""Cheap wall-clock timestamp extraction from raw log lines.

LogGrep's logical clock is the line id, but real queries start with a
wall-clock window ("errors between 09:00 and 09:05").  Blocks are written
in arrival order, so a per-block [min, max] timestamp range is enough to
prune whole blocks before any Bloom or stamp check runs — the range is
computed once at compress time from the raw lines (ROADMAP item 1
groundwork) and travels in the prune-index sidecar.

Extraction is deliberately conservative: only an anchored
``YYYY-MM-DD[ T]HH:MM:SS[.ffffff]`` prefix (the overwhelmingly common
cloud-log shape) naming a moment the calendar has — year 0001–9999, a
real day of that month, 00–23 : 00–59 : 00–59 — is recognized.  Lines
without one contribute nothing to the block's range; a block with *no*
timestamped lines has an unknown range and is never time-pruned.

Validity lives in the regex so that a block's range needs no per-line
arithmetic: among valid heads every field is fixed-width and in range,
so ``(date, clock, fraction)`` string triples order exactly as the
moments they name, and only the two extremes are ever converted.
"""

from __future__ import annotations

import calendar
import re
from operator import methodcaller
from typing import Iterable, Optional, Tuple

#: Leap years 0004–9996: divisible by 4 and not a century, or by 400.
_LEAP_YEAR = (
    r"(?:\d\d(?:0[48]|[2468][048]|[13579][26])"
    r"|(?:0[48]|[2468][048]|[13579][26])00)"
)
_DATE = (
    r"(?!0000)\d{4}-(?:"
    r"(?:0[13578]|1[02])-(?:0[1-9]|[12]\d|3[01])"
    r"|(?:0[469]|11)-(?:0[1-9]|[12]\d|30)"
    r"|02-(?:0[1-9]|1\d|2[0-8])"
    rf")|{_LEAP_YEAR}-02-29"
)
#: Groups: date ``YYYY-MM-DD``, clock ``HH:MM:SS``, fraction digits.
_TS_RE = re.compile(
    rf"({_DATE})[ T]((?:[01]\d|2[0-3]):[0-5]\d:[0-5]\d)(?:[.,](\d{{1,6}}))?"
)
_groups = methodcaller("groups", "")


def _epoch(date: str, clock: str, fraction: str) -> float:
    """Epoch seconds (UTC) of one valid ``(date, clock, fraction)`` head."""
    seconds = calendar.timegm(
        (
            int(date[:4]), int(date[5:7]), int(date[8:]),
            int(clock[:2]), int(clock[3:5]), int(clock[6:]),
        )
    )
    if fraction:
        return seconds + int(fraction) / 10 ** len(fraction)
    return float(seconds)


def extract_timestamp(line: str) -> Optional[float]:
    """Epoch seconds (UTC) of the line's leading timestamp, or None."""
    match = _TS_RE.match(line)
    return None if match is None else _epoch(*match.groups(""))


def time_range_of(
    lines: Iterable[str],
) -> Tuple[Optional[float], Optional[float]]:
    """(min, max) timestamp over *lines*; (None, None) when none parse."""
    heads = list(map(_groups, filter(None, map(_TS_RE.match, lines))))
    if not heads:
        return None, None
    # A missing fraction is "" and sorts first, as .0 should; digit
    # strings of unequal length order as the fractions they spell.
    return _epoch(*min(heads)), _epoch(*max(heads))


def parse_time_arg(text: str) -> float:
    """A CLI time bound: epoch seconds, or the log timestamp format."""
    try:
        return float(text)
    except ValueError:
        pass
    ts = extract_timestamp(text)
    if ts is None:
        raise ValueError(
            f"unrecognized time {text!r} (want epoch seconds or "
            "YYYY-MM-DD HH:MM:SS)"
        )
    return ts


_AGE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}


def parse_age_arg(text: str) -> float:
    """A CLI age: seconds, or a number with an s/m/h/d/w suffix.

    ``"30d"`` → 30 days, ``"12h"`` → 12 hours, ``"45m"`` → 45 minutes,
    ``"3600"`` and ``"3600s"`` → 3600 seconds.  Used by the lifecycle
    ``--older-than`` arguments.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty age")
    unit = 1.0
    number = text
    if text[-1].lower() in _AGE_UNITS:
        unit = _AGE_UNITS[text[-1].lower()]
        number = text[:-1]
    try:
        value = float(number)
    except ValueError:
        raise ValueError(
            f"unrecognized age {text!r} (want seconds or <number><s|m|h|d|w>)"
        ) from None
    if value < 0:
        raise ValueError(f"age must be non-negative, got {text!r}")
    return value * unit
