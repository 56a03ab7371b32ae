"""Cheap wall-clock timestamp extraction from log lines.

LogGrep's logical clock is the line id, but real queries start with a
wall-clock window ("errors between 09:00 and 09:05").  Blocks are written
in arrival order, so a per-block [min, max] timestamp range is enough to
prune whole blocks before any stamp check runs — the range is
computed once per block from its parsed groups (:func:`time_range`) and
travels in the prune-index sidecar.

Extraction is deliberately conservative: only an anchored
``YYYY-MM-DD[ T]HH:MM:SS[.ffffff]`` prefix of ASCII digits (the
overwhelmingly common cloud-log shape) naming a moment the calendar has — year 0001–9999, a
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
from functools import partial
from itertools import repeat
from operator import methodcaller
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

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
_CLOCK = r"((?:[01]\d|2[0-3]):[0-5]\d:[0-5]\d)"
_FRACTION = r"(?:[.,](\d{1,6}))?"
#: Groups: date ``YYYY-MM-DD``, clock ``HH:MM:SS``, fraction digits.
#: ``re.ASCII``: a head's digits are ``0``-``9``.  ``\d`` would also take
#: any Unicode decimal digit (``1\u0669`` is no hour), and such a head
#: sorts after every ASCII one of its prefix.
_TS_RE = re.compile(rf"({_DATE})[ T]{_CLOCK}{_FRACTION}", re.ASCII)
_BARE_DATE_RE = re.compile(rf"(?:{_DATE})\Z", re.ASCII)
_CLOCK_RE = re.compile(_CLOCK + _FRACTION, re.ASCII)
_FRACTION_RE = re.compile(_FRACTION, re.ASCII)
_groups = methodcaller("groups", "")

#: One group of a block: template tokens (None at a variable slot), row
#: count, and its variable vectors by ordinal.
GroupColumns = Tuple[Sequence[Optional[str]], int, Callable[[int], Sequence[str]]]


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


def time_range(
    groups: Iterable[GroupColumns],
) -> Tuple[Optional[float], Optional[float]]:
    """(min, max) timestamp over the lines of a block's parsed *groups*,
    read off their columns; (None, None) when none parse.

    Tokens split on single spaces, so a head lies in token 0 or, after a
    bare date, spans tokens 0 and 1.  A constant token 0 is checked
    once; a column of heads takes C-speed ``min``/``max``
    (:func:`_column_ends`); a per-row regex runs only where an extreme
    is no valid head.
    """
    heads = [
        head
        for tokens, rows, column in groups
        if rows
        for head in _group_heads(tokens, column)
    ]
    if not heads:
        return None, None
    # A missing fraction is "" and sorts first, as .0 should; digit
    # strings of unequal length order as the fractions they spell.
    return _epoch(*min(heads)), _epoch(*max(heads))


def _group_heads(tokens, column) -> List[Tuple[str, ...]]:
    """Heads of one group's lines, its least and greatest among them."""
    first = tokens[0]
    if first is None:
        firsts = column(0)
        heads = _column_ends(firsts, _TS_RE, 19)
        if heads is None:
            low, high = min(firsts), max(firsts)
            # Every value shares a fifth character, and a head's is "-".
            fifth = low[4:5] if low[:5] == high[:5] else "-"
            heads = _heads(firsts) if fifth in ("", "-") else []
        if len(tokens) > 1 and 10 in map(len, firsts):  # may be bare dates
            seconds = column(1) if tokens[1] is None else repeat(tokens[1])
            heads += _heads(f"{a} {b}" for a, b in zip(firsts, seconds) if len(a) == 10)
        return heads
    if not _BARE_DATE_RE.match(first):
        return _heads([first])  # any head lies inside token 0
    if len(tokens) < 2:
        return []
    if tokens[1] is not None:
        return _heads([f"{first} {tokens[1]}"])
    clocks = column(0)
    ends = _column_ends(clocks, _CLOCK_RE, 8)
    if ends is None:
        ends = [m.groups("") for m in filter(None, map(_CLOCK_RE.match, clocks))]
    return [(first, *end) for end in ends]


def _column_ends(values, regex, width) -> Optional[List[Tuple[str, ...]]]:
    """The least and greatest match groups of *regex*, whose matches
    are *width* fixed characters and a fraction, over *values*; None
    when the least or the greatest value does not match.

    Past the fixed width, string order is not the heads' order (``,5``
    sorts before ``.009``, and ``.x`` has fraction ``""``), so each
    fraction is taken over the run of values sharing that extreme's
    fixed-width prefix.
    """
    low, high = regex.match(min(values)), regex.match(max(values))
    if low is None or high is None:
        return None
    least, most = low[0][:width], high[0][:width]
    bound = least[:-1] + chr(ord(least[-1]) + 1)  # [least, bound): its run
    fraction = partial(_fraction, width)
    return [
        low.groups()[:-1] + (min(map(fraction, filter(bound.__gt__, values))),),
        high.groups()[:-1] + (max(map(fraction, filter(most.__le__, values))),),
    ]


def _heads(texts: Iterable[str]) -> List[Tuple[str, ...]]:
    return list(map(_groups, filter(None, map(_TS_RE.match, texts))))


def _fraction(width: int, value: str) -> str:
    return _FRACTION_RE.match(value, width)[1] or ""


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
