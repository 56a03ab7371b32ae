"""Differential tests for the two whole-column passes of ingest.

``RuntimePattern.split`` compiles the split rule into one regex and runs
it once over a vector; the rule used to be a Python loop per value
(``match``) whose results ``_encode_real`` transposed.  ``time_range_of``
orders validated timestamp heads as strings and converts two of them; it
used to convert every line.  Both loops are kept *here* as the
references the compiled forms must equal.
"""

from __future__ import annotations

import calendar
import dataclasses
import datetime
import random
import re
import time
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockstore.block import split_lines
from repro.blockstore.store import MemoryStore
from repro.capsule import assembler
from repro.capsule.assembler import EncodingOptions, encode_vector
from repro.capsule.capsule import Capsule
from repro.common.errors import CompressionError
from repro.common.timeparse import (
    extract_timestamp,
    parse_time_arg,
    time_range_of,
)
from repro.core.loggrep import LogGrep
from repro.runtime.classify import VectorKind, classify
from repro.runtime.pattern import (
    RuntimePattern,
    SubVar,
    pattern_from_fragments,
)
from repro.runtime.treeexpand import TreeExpandConfig, extract_real_pattern
from repro.staticparse import BlockParser
from repro.workloads import spec_by_name


# ----------------------------------------------------------------------
# the reference: the per-value loop this repo ran before split() existed
# ----------------------------------------------------------------------
def ref_match(pattern: RuntimePattern, value: str) -> Optional[List[str]]:
    elements = pattern.elements
    n = len(elements)
    subvalues: List[str] = []
    pos = 0
    pending_subvar = False
    for i, el in enumerate(elements):
        if isinstance(el, SubVar):
            if pending_subvar:
                subvalues.append("")
            pending_subvar = True
            continue
        text = el.text
        if i == 0:
            if not value.startswith(text):
                return None
            pos = len(text)
        elif i == n - 1:
            if not value.endswith(text) or len(value) - len(text) < pos:
                return None
            if pending_subvar:
                subvalues.append(value[pos : len(value) - len(text)])
                pending_subvar = False
            pos = len(value)
        else:
            found = value.find(text, pos)
            if found == -1:
                return None
            if pending_subvar:
                subvalues.append(value[pos:found])
                pending_subvar = False
            pos = found + len(text)
    if pending_subvar:
        subvalues.append(value[pos:])
        pos = len(value)
    if pos != len(value):
        return None
    return subvalues


Split = Tuple[List[Tuple[str, ...]], List[int], List[str]]


def ref_split(pattern: RuntimePattern, values: Sequence[str]) -> Split:
    matched: List[List[str]] = []
    outlier_rows: List[int] = []
    outlier_values: List[str] = []
    for row, value in enumerate(values):
        subvalues = ref_match(pattern, value)
        if subvalues is None:
            outlier_rows.append(row)
            outlier_values.append(value)
        else:
            matched.append(subvalues)
    columns = list(zip(*matched)) or [() for _ in range(pattern.num_subvars)]
    return columns, outlier_rows, outlier_values


def split_of(pattern: RuntimePattern, values: Sequence[str]) -> Split:
    columns, outlier_rows, outlier_values = pattern.split(values)
    return [tuple(column) for column in columns], outlier_rows, outlier_values


def P(*fragments: Optional[str]) -> RuntimePattern:
    return pattern_from_fragments(fragments)


# ----------------------------------------------------------------------
# the rule, case by case
# ----------------------------------------------------------------------
class TestSplitRule:
    def test_first_occurrence_of_an_interior_constant_wins(self):
        # A greedy interior group would bind the *last* "a".
        assert split_of(P(None, "a", None), ["xayaz", "a", "aa"]) == (
            [("x", "", ""), ("yaz", "", "a")], [], [],
        )
        # ... also when a trailing constant follows.
        assert split_of(P(None, "-", None, "-end"), ["1-2-3-end"]) == (
            [("1",), ("2-3",)], [], [],
        )

    def test_interior_constants_bind_left_to_right(self):
        pattern = P("block_", None, "F8", None)
        assert split_of(pattern, ["block_1F81F", "block_8F8F8FE", "Failed"]) == (
            [("1", "8"), ("1F", "F8FE")], [2], ["Failed"],
        )

    def test_trailing_constant_may_not_overlap_what_came_before(self):
        # "xa": the interior "a" takes the only "a"; none is left to end on.
        assert split_of(P(None, "a", None, "a"), ["xa", "xaa", "aya"]) == (
            [("x", ""), ("", "y")], [0], ["xa"],
        )
        assert split_of(P("ab", None, "b"), ["ab", "abb"]) == ([("",)], [0], ["ab"])

    def test_metacharacters_in_constants_are_literal(self):
        meta = ".[(\\|*+?{^$"
        pattern = P(meta, None, meta, None, meta)
        value = f"{meta}1{meta}2{meta}"
        assert split_of(pattern, [value, "x" * len(value)]) == (
            [("1",), ("2",)], [1], ["x" * len(value)],
        )

    def test_prefix_only_and_suffix_only(self):
        assert split_of(P("T", None), ["T99", "99", "T"]) == ([("99", "")], [1], ["99"])
        assert split_of(P(None, ".log"), ["a.log", ".log", "a.logx"]) == (
            [("a", "")], [2], ["a.logx"],
        )

    def test_constant_only_pattern(self):
        assert split_of(P("read"), ["read", "reads", "", "read"]) == (
            [], [1, 2], ["reads", ""],
        )
        assert split_of(RuntimePattern([]), ["", "x"]) == ([], [1], ["x"])

    def test_adjacent_subvariables_give_the_first_the_empty_value(self):
        assert split_of(P(None, None), ["ab", ""]) == ([("", ""), ("ab", "")], [], [])
        assert split_of(P("k", None, None, "=", None), ["kab=c", "k=", "ab=c"]) == (
            [("", ""), ("ab", ""), ("c", "")], [2], ["ab=c"],
        )

    def test_empty_value_fits_only_a_pattern_without_constants(self):
        # Both rows read as an all-empty tuple in the regex's groups.
        assert split_of(P(None, "#", None), ["#", "", "a#b", ""]) == (
            [("", "a"), ("", "b")], [1, 3], ["", ""],
        )
        assert split_of(P(None, "#", None), [""]) == ([(), ()], [0], [""])
        assert split_of(P(None, None), ["", ""]) == ([("", ""), ("", "")], [], [])

    def test_trivial_pattern_is_the_vector(self):
        values = ["a", "", "b"]
        assert split_of(P(None), values) == ([("a", "", "b")], [], [])

    def test_empty_vector(self):
        for pattern in (P(None), P("x"), P("x", None), P(None, "x", None)):
            assert split_of(pattern, []) == (
                [() for _ in range(pattern.num_subvars)], [], [],
            )

    def test_newline_and_non_ascii_are_ordinary_characters(self):
        pattern = P("é", None, "→", None)
        values = ["é1\n2→\n", "é→", "e1→2", "é日本→語\n"]
        assert split_of(pattern, values) == ref_split(pattern, values)
        assert split_of(pattern, values)[1] == [2]

    def test_match_is_split_on_one_value(self):
        pattern = P("block_", None, "F8", None)
        assert pattern.match("block_2F8E") == ["2", "E"]
        assert pattern.match("xblock_1F8Y") is None
        assert P("read").match("read") == []
        assert P(None, "#", None).match("") is None

    def test_nul_in_a_value_is_the_capsule_error(self):
        with pytest.raises(CompressionError) as packed:
            Capsule.pack_fixed(["a\0b"])
        for values in (["x-1", "a\0b"], ["x-\0", "x-2"], ["\0"]):
            with pytest.raises(CompressionError) as split:
                P("x-", None).split(values)
            assert str(split.value) == str(packed.value)
        with pytest.raises(CompressionError) as encoded:
            encode_vector(["x-1", "x-2", "x-\0" "3"], kind=VectorKind.REAL)
        assert str(encoded.value) == str(packed.value)

    def test_outlier_rows_cost_no_backtracking(self):
        """Interior groups are atomic: a row that cannot fit is rejected
        in one left-to-right pass.  With plain lazy groups the engine
        retries every later occurrence of every constant — the same
        answer, after C(120, 4) ≈ 8 million dead ends."""
        pattern = P(None, "a", None, "a", None, "a", None, "a", None, "b")
        started = time.perf_counter()
        assert split_of(pattern, ["a" * 120]) == ([()] * 5, [0], ["a" * 120])
        assert time.perf_counter() - started < 0.25


# ----------------------------------------------------------------------
# random patterns x random vectors
# ----------------------------------------------------------------------
#: Few letters (so constants recur inside values), every regex
#: metacharacter, a newline and non-ASCII.
ALPHABET = "abc" + ".[(\\|*+?{^$)]}-" + " \né語"
texts = st.text(alphabet=ALPHABET, max_size=6)
fragments = st.lists(st.one_of(st.none(), texts), max_size=7)


@st.composite
def pattern_and_values(draw):
    pattern = pattern_from_fragments(draw(fragments))
    fitting = st.lists(
        texts, min_size=pattern.num_subvars, max_size=pattern.num_subvars
    ).map(pattern.render)
    values = draw(st.lists(st.one_of(texts, fitting), max_size=12))
    return pattern, values


class TestSplitEqualsReference:
    @settings(max_examples=600, deadline=None)
    @given(pattern_and_values())
    def test_random_patterns_and_vectors(self, case):
        pattern, values = case
        assert split_of(pattern, values) == ref_split(pattern, values)

    @settings(max_examples=300, deadline=None)
    @given(pattern_and_values())
    def test_match_and_render_round_trip(self, case):
        pattern, values = case
        for value in values:
            parts = pattern.match(value)
            assert parts == ref_match(pattern, value)
            if parts is not None:
                assert pattern.render(parts) == value

    @settings(max_examples=200, deadline=None)
    @given(pattern_and_values(), st.integers(0, 11), texts)
    def test_nul_anywhere_raises(self, case, row, text):
        pattern, values = case
        if not values or pattern.is_trivial or not pattern.num_subvars:
            return  # these never join the column; the packers reject NUL
        values[row % len(values)] = text + "\0"
        with pytest.raises(CompressionError, match="NUL"):
            pattern.split(values)


# ----------------------------------------------------------------------
# one level up: the real vectors of the benchmark's datasets
# ----------------------------------------------------------------------
CORPORA = ["Log A", "Log T", "Hdfs", "Log G", "Log K", "Healthapp"]
PERFBENCH_BLOCK_BYTES = 128 * 1024


def real_vectors(name: str, lines: int = 2500):
    spec = dataclasses.replace(spec_by_name(name), size_factor=1.0, seed=33)
    parser = BlockParser()
    options = EncodingOptions()
    for block in split_lines(spec.generate(lines), PERFBENCH_BLOCK_BYTES):
        for group in parser.parse(block.lines).groups:
            for vector in group.variable_vectors:
                if classify(vector, options.duplication_threshold) is VectorKind.REAL:
                    yield vector


def ref_encode_real(values, options):
    """``_encode_real`` as it was: match per value, transpose, degrade."""
    config = TreeExpandConfig(sample_rate=options.sample_rate, seed=options.seed)
    pattern = extract_real_pattern(values, config)
    columns, outlier_rows, outlier_values = ref_split(pattern, values)
    if values and len(outlier_values) > assembler.MIN_PATTERN_COVERAGE * len(values):
        pattern = RuntimePattern([SubVar(0)])
        columns, outlier_rows, outlier_values = [list(values)], [], []
    return pattern, columns, outlier_rows, outlier_values


def payloads(capsules):
    return [(c.count, c.width, c.stamp, c.codec, c.payload) for c in capsules]


@pytest.mark.parametrize("name", CORPORA)
def test_real_vectors_encode_as_the_reference_would(name):
    options = EncodingOptions()
    seen = 0
    for vector in real_vectors(name):
        pattern, columns, outlier_rows, outlier_values = ref_encode_real(
            vector, options
        )
        assert split_of(pattern, vector) == ref_split(pattern, vector)
        encoded = encode_vector(vector, options, kind=VectorKind.REAL)
        assert encoded.pattern == pattern
        assert encoded.outlier_rows == outlier_rows
        assert payloads(encoded.subvar_capsules) == payloads(
            [assembler._pack(column, options) for column in columns]
        )
        outliers = encoded.outlier_capsule
        assert (outliers is not None) == bool(outlier_values)
        if outliers is not None:
            assert payloads([outliers]) == payloads(
                [assembler._pack(outlier_values, options)]
            )
        seen += 1
    assert seen


class TestCoverageDegrade:
    """More than MIN_PATTERN_COVERAGE outliers → the trivial pattern."""

    def encode(self, monkeypatch, values, pattern):
        monkeypatch.setattr(
            assembler, "extract_real_pattern", lambda values, config: pattern
        )
        return encode_vector(values, kind=VectorKind.REAL)

    def test_every_row_an_outlier(self, monkeypatch):
        values = ["a1", "b2", "", "c3"]
        encoded = self.encode(monkeypatch, values, P("zz", None))
        assert encoded.pattern.is_trivial
        assert not encoded.has_outliers and encoded.outlier_capsule is None
        [capsule] = encoded.subvar_capsules
        assert capsule.values() == values

    def test_exactly_half_is_kept(self, monkeypatch):
        values = ["zz1", "b2", "zz3", "c4"]
        encoded = self.encode(monkeypatch, values, P("zz", None))
        assert encoded.pattern == P("zz", None)
        assert encoded.outlier_rows == [1, 3]
        assert encoded.subvar_capsules[0].values() == ["1", "3"]
        assert encoded.outlier_capsule.values() == ["b2", "c4"]

    def test_one_more_than_half_degrades(self, monkeypatch):
        values = ["zz1", "b2", "c3"]
        assert self.encode(monkeypatch, values, P("zz", None)).pattern.is_trivial


# ----------------------------------------------------------------------
# a block's time range
# ----------------------------------------------------------------------
_LOOSE_HEAD = re.compile(
    r"(\d{4})-(\d{2})-(\d{2})[ T](\d{2}):(\d{2}):(\d{2})(?:[.,](\d{1,6}))?"
)


def ref_timestamp(line: str) -> Optional[float]:
    """Per-line conversion; a head ``datetime`` rejects is no timestamp."""
    match = _LOOSE_HEAD.match(line)
    if match is None:
        return None
    fields = [int(match[i]) for i in range(1, 7)]
    try:
        datetime.datetime(*fields)
    except ValueError:
        return None
    seconds = calendar.timegm(tuple(fields))
    fraction = match[7]
    if fraction:
        return seconds + int(fraction) / 10 ** len(fraction)
    return float(seconds)


def ref_time_range(lines):
    stamps = [ts for ts in map(ref_timestamp, lines) if ts is not None]
    return (min(stamps), max(stamps)) if stamps else (None, None)


def fuzzed_line(rng: random.Random) -> str:
    if rng.random() < 0.15:
        return rng.choice(["", "ERROR no time here", "2024-03-01", "x2024-03-01 10:00:00"])
    year = rng.choice(["0000", "0001", "1900", "2023", "2024", "2100", "9999"])
    month = rng.choice(["00", "01", "02", "02", "04", "11", "12", "13"])
    day = rng.choice(["00", "01", "28", "29", "30", "31", "32"])
    hour = rng.choice(["00", "09", "19", "23", "24", "30"])
    minute = rng.choice(["00", "07", "59", "60"])
    second = rng.choice(["00", "30", "59", "60", "61"])
    line = f"{year}-{month}-{day}{rng.choice(' T T_')}{hour}:{minute}:{second}"
    digits = rng.randrange(8)
    if digits:
        line += rng.choice(".,") + "".join(
            rng.choice("0159") for _ in range(digits)
        )
    return line + rng.choice(["", " tail", "Z"])


class TestTimeRange:
    def test_fuzzed_blocks_equal_the_per_line_reference(self):
        rng = random.Random(24)
        ranged = 0
        for _ in range(3000):
            lines = [fuzzed_line(rng) for _ in range(rng.randrange(1, 25))]
            got = time_range_of(lines)
            assert got == ref_time_range(lines), lines
            ranged += got != (None, None)
            for line in lines[:3]:
                assert extract_timestamp(line) == ref_timestamp(line), line
        assert ranged > 1000

    def test_real_blocks_equal_the_per_line_reference(self):
        for name in ("Log A", "Hdfs", "Healthapp"):
            spec = dataclasses.replace(spec_by_name(name), size_factor=1.0, seed=5)
            for block in split_lines(spec.generate(1500), 16 * 1024):
                assert time_range_of(block.lines) == ref_time_range(block.lines)

    def test_no_line_parses(self):
        assert time_range_of([]) == (None, None)
        assert time_range_of(["a", "", "2024-13-01 00:00:00 x"]) == (None, None)

    def test_accepts_any_iterable(self):
        lines = ["2024-03-01 10:00:05.5 b", "2024-03-01 10:00:05,25 a"]
        low, high = time_range_of(iter(lines))
        assert (low, high) == (ref_timestamp(lines[1]), ref_timestamp(lines[0]))

    def test_fraction_digit_strings_order_as_fractions(self):
        head = "2024-03-01 10:00:05"
        lines = [head + ".5", head + ".25", head, head + ".1234567", head + ".50"]
        assert time_range_of(lines) == (ref_timestamp(head), ref_timestamp(head + ".5"))

    def test_a_moment_the_calendar_lacks_is_no_timestamp(self):
        for head in (
            "0000-01-01 00:00:00",  # calendar.timegm: year 0 is out of range
            "2023-02-29 00:00:00",
            "2100-02-29 00:00:00",
            "2024-04-31 00:00:00",
            "2024-01-01 24:00:00",
            "2024-01-01 00:00:60",
        ):
            assert extract_timestamp(head) is None
            assert time_range_of([head]) == (None, None)
        for head in ("2024-02-29 23:59:59", "2000-02-29 00:00:00", "0001-01-01 00:00:00"):
            assert extract_timestamp(head) == ref_timestamp(head) is not None


class TestYearZero:
    LINE = "0000-01-01 00:00:00 boot ok"

    def test_ingest_round_trips_and_greps(self):
        lg = LogGrep(store=MemoryStore())
        lg.compress([self.LINE])
        assert lg.grep("boot").lines == [self.LINE]
        assert lg.grep("boot", from_time=0.0).lines == [self.LINE]

    def test_cli_time_bound_reports_its_own_error(self):
        with pytest.raises(ValueError, match="unrecognized time '0000-01-01"):
            parse_time_arg("0000-01-01 00:00:00")
