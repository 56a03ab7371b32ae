"""The Packer on UTF-8 bytes equals the Packer on strings (§4.2, §4.3, §5.2).

``RuntimePattern.split`` runs its splitter over the UTF-8 of the column
and hands the packers bytes cells; the packers take the stamp's class
mask and the packed form from one class pass over the padded buffer
(``chartypes.type_mask_of_buffer``), and the stamp's length from the
cells.  The string rules they replace are kept *here* as the references:

* the stamp: the mask of the joined values, and the longest value in
  characters;
* the form: which alphabet holds every byte, by a chain of deletions;
* the split: the same compiled rule over the NUL-joined ``str``.
"""

from __future__ import annotations

import binascii
import re
from itertools import compress
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.capsule.assembler import EncodingOptions, encode_vector
from repro.capsule.capsule import (
    FORM_ASCII,
    FORM_DIGITS,
    FORM_HEX,
    FORM_HEX_UPPER,
    FORM_ODD,
    RAW_BELOW,
    Capsule,
    CodecRequest,
    _choose_codec,
    _encode,
)
from repro.capsule.stamp import CapsuleStamp
from repro.common import chartypes
from repro.common.errors import CompressionError
from repro.runtime.classify import VectorKind
from repro.runtime.pattern import RuntimePattern, SubVar, pattern_from_fragments


# ----------------------------------------------------------------------
# the references: the string rules the bytes path replaced
# ----------------------------------------------------------------------
def ref_stamp(values: Sequence[str]) -> CapsuleStamp:
    return CapsuleStamp(
        chartypes.type_mask_of_values(values), max(map(len, values), default=0)
    )


_TO_HEX = {
    FORM_DIGITS: bytes.maketrans(b"\x00", b"f"),
    FORM_HEX: None,
    FORM_HEX_UPPER: bytes.maketrans(b"ABCDEF", b"abcdef"),
}


def ref_pack_form(buf: bytes) -> Tuple[int, bytes]:
    if len(buf) < RAW_BELOW:
        return FORM_ASCII, buf
    rest = buf.translate(None, b"0123456789")
    if rest.translate(None, b"\x00abcdefABCDEF"):
        return FORM_ASCII, buf
    if not rest.translate(None, b"\x00"):
        alphabet = FORM_DIGITS
    elif not rest.translate(None, b"abcdef"):
        alphabet = FORM_HEX
    elif not rest.translate(None, b"ABCDEF"):
        alphabet = FORM_HEX_UPPER
    else:
        return FORM_ASCII, buf
    table = _TO_HEX[alphabet]
    text = buf if table is None else buf.translate(table)
    if len(buf) & 1:
        return alphabet | FORM_ODD, binascii.unhexlify(text + b"0")
    return alphabet, binascii.unhexlify(text)


def ref_splitter(pattern: RuntimePattern) -> "re.Pattern[str]":
    parts: List[str] = []
    pending = False
    last = len(pattern.elements) - 1
    for i, el in enumerate(pattern.elements):
        if isinstance(el, SubVar):
            if pending:
                parts.append("()")
            pending = True
            continue
        text = re.escape(el.text)
        if not pending:
            parts.append(text)
        elif i == last:
            parts.append(rf"([^\x00]*){text}")
        else:
            parts.append(rf"(?>([^\x00]*?){text})")
        pending = False
    if pending:
        parts.append(r"([^\x00]*)")
    return re.compile(rf"(?:{''.join(parts)}|([^\x00]*))\x00")


def ref_split(pattern: RuntimePattern, values: Sequence[str]):
    """The split over the NUL-joined ``str``: str columns."""
    if pattern.is_trivial:
        return [list(values)], [], []
    if not pattern.num_subvars:
        text = pattern.constant_text()
        rows = [row for row, value in enumerate(values) if value != text]
        return [], rows, [values[row] for row in rows]
    joined = "\0".join([*values, ""])
    assert joined.count("\0") == len(values)
    found = ref_splitter(pattern).findall(joined)
    columns = [list(c) for c in zip(*found)] or [
        [] for _ in range(pattern.num_subvars + 1)
    ]
    unfit = columns.pop()
    if not pattern.constant_text() or not (any(unfit) or "" in values):
        return columns, [], []
    fits = [bool(value) and not whole for value, whole in zip(values, unfit)]
    rows = [row for row, fit in enumerate(fits) if not fit]
    return (
        [list(compress(column, fits)) for column in columns],
        rows,
        [values[row] for row in rows],
    )


def ref_pack(buf: bytes, values: Sequence[str]):
    """``(stamp, form, codec, payload)`` the string Packer stored."""
    form, packed = ref_pack_form(buf)
    codec, payload = _choose_codec(packed, 1)
    return ref_stamp(values), form, codec, payload


def _fixed_buf(values: Sequence[str]) -> bytes:
    cells = [v.encode() for v in values]
    width = max(map(len, cells), default=0)
    return b"".join(cell.ljust(width, b"\x00") for cell in cells)


def _stored(capsule: Capsule):
    return capsule.stamp, capsule.form, capsule.codec, capsule.payload


def check_packers(values: Sequence[str]) -> None:
    """Every packer, fed ``str`` values and fed their UTF-8 cells, stores
    what the string Packer stored, and reads back to *values*."""
    cells = [v.encode() for v in values]
    half = len(values) // 2
    regions = [values[:half], values[half:]]
    widths = [max((len(v.encode()) for v in r), default=0) for r in regions]
    shapes = [(len(r), w) for r, w in zip(regions, widths)]
    cases = [
        (Capsule.pack_fixed, _fixed_buf(values), Capsule.cells),
        (Capsule.pack_variable, b"\x00".join(cells), Capsule.cells),
        (
            lambda vs: Capsule.pack_regions([vs[:half], vs[half:]], widths),
            _fixed_buf(regions[0]) + _fixed_buf(regions[1]),
            lambda capsule: capsule.region_cells(shapes),
        ),
    ]
    for pack, buf, cells_of in cases:
        stamp, form, codec, payload = ref_pack(buf, values)
        for given_values in (list(values), cells):
            capsule = pack(given_values)
            assert _stored(capsule) == (stamp, form, codec, payload)
            assert capsule.plain() == buf
            assert _encode(capsule.plain(), 1, CodecRequest.SMALLEST) == (
                codec, form, payload,
            )
            assert [
                cell.rstrip(b"\x00").decode() for cell in cells_of(capsule)
            ] == list(values)


def check_split(pattern: RuntimePattern, values: Sequence[str]) -> None:
    columns, rows, outliers = pattern.split(values)
    ref_columns, ref_rows, ref_outliers = ref_split(pattern, values)
    assert [list(c) for c in columns] == [
        [v.encode() for v in c] for c in ref_columns
    ]
    assert (rows, outliers) == (ref_rows, ref_outliers)
    for column, ref_column in zip(columns, ref_columns):
        assert _stored(Capsule.pack_fixed(column)) == ref_pack(
            _fixed_buf(ref_column), ref_column
        )


def P(*fragments: Optional[str]) -> RuntimePattern:
    return pattern_from_fragments(fragments)


# ----------------------------------------------------------------------
# columns, case by case
# ----------------------------------------------------------------------
COLUMNS = {
    "every class": ["09", "af", "AF", "gz", "GZ", "-_ :/"] * 6,
    "digits": [f"{i:05d}" for i in range(40)],
    "digits with pad": ["1234", "5", ""] * 11,
    "odd digits": ["12345"] * 7,
    "hex": ["deadbeef"] * 5,
    "odd hex": ["deadbeef1"] * 5,
    "hex upper": ["DEADBEEF"] * 5,
    "odd hex upper": ["DEADBEEF1"] * 5,
    "mixed-case hex": ["a1B2c3D4"] * 8,
    "hex with pad": ["abc12", "de3"] * 8,
    "hex upper with pad": ["ABC12", "DE3"] * 8,
    "only pad": [""] * 40,
    "empty strings": ["", ""],
    "empty column": [],
    "short": ["1", "2"],
    "U+0080": ["\x80"] * 40,
    "U+0080-U+00FF": [chr(c) for c in range(0x80, 0x100)],
    "Latin-1 with digits": ["é1", "ÿ22", "µ"] * 12,
    "multibyte": ["日本語", "→", "ЀЀ"] * 12,
    "astral": ["\U0001F600\U0001F600", "é", ""] * 12,
    "ASCII with one astral": ["abc"] * 20 + ["\U0001F600"],
}


class TestPackers:
    @pytest.mark.parametrize("name", sorted(COLUMNS))
    def test_bytes_packer_stores_what_the_string_packer_stored(self, name):
        check_packers(COLUMNS[name])

    def test_max_len_counts_characters(self):
        # 8 bytes, 2 characters: a byte count would read 8.
        values = ["\U0001F600\U0001F600", "é"]
        assert Capsule.pack_fixed(values).stamp.max_len == 2
        assert Capsule.pack_variable(values).stamp.max_len == 2
        assert Capsule.pack_regions([values], [8]).stamp.max_len == 2

    def test_pad_has_no_class(self):
        stamp = Capsule.pack_fixed(["1234", "5", ""] * 11).stamp
        assert stamp == CapsuleStamp(chartypes.DIGIT, 4)

    def test_every_high_byte_is_other(self):
        # U+0080 is C2 80, U+0400 is D0 80: neither is a digit or a letter.
        for value in ("\x80", "Ѐ", "\U0001F600"):
            column = [value] * 40
            assert Capsule.pack_fixed(column).stamp.type_mask == chartypes.OTHER
            assert Capsule.pack_fixed(column).form == FORM_ASCII

    def test_class_table_is_the_character_table_on_ascii(self):
        for code in range(1, 128):
            byte = bytes([code])
            assert chartypes.type_mask_of_buffer(byte) == chartypes.type_mask(
                chr(code)
            )
        assert chartypes.type_mask_of_buffer(b"\x00" * 9) == 0
        for code in range(128, 256):
            assert chartypes.type_mask_of_buffer(bytes([code])) == chartypes.OTHER

    def test_nominal_index_cells_are_zero_padded_decimals(self):
        values = [f"v{i % 12}" for i in range(120)]
        for padded in (True, False):
            encoded = encode_vector(
                values, EncodingOptions(use_padding=padded), kind=VectorKind.NOMINAL
            )
            index = encoded.index_capsule.values()
            assert all(len(cell) == encoded.index_width for cell in index)
            assert encoded.index_capsule.stamp == ref_stamp(index)
            pack = Capsule.pack_fixed if padded else Capsule.pack_variable
            assert _stored(encoded.index_capsule) == _stored(pack(index))

    def test_nul_in_a_value_raises_from_every_packer(self):
        for values in (["a\x00b"], [b"a\x00b"], ["x", "\x00"]):
            with pytest.raises(CompressionError, match="NUL"):
                Capsule.pack_fixed(values)
            with pytest.raises(CompressionError, match="NUL"):
                Capsule.pack_variable(values)
            with pytest.raises(CompressionError, match="NUL"):
                Capsule.pack_regions([values], [9])


class TestSplit:
    @pytest.mark.parametrize(
        "pattern, values",
        [
            # an interior constant that occurs twice: the first binds
            (P(None, "a", None), ["xayaz", "a", "aa", "ba"]),
            (P("blk_", None, "_", None), ["blk_1_2_3", "blk__", "blk_9"]),
            # non-ASCII constants and sub-values
            (P("é", None, "→", None), ["é1\n2→\n", "é→", "e1→2", "é日本→語\n"]),
            (P(None, "日", None, "本"), ["a日b本", "日日本本", "本日"]),
            (P("\U0001F600", None), ["\U0001F600x", "\U0001F600", "x"]),
            # outlier "" rows, with and without a constant
            (P("x=", None), ["x=1", "", "x=", ""]),
            (P(None, "-", None), ["", "a-b", "-"]),
            (P(None, None), ["", "ab"]),
            (P("only"), ["only", "", "other"]),
            (P(None), ["é", "", "x"]),
            (P("x", None), []),
        ],
    )
    def test_bytes_split_equals_the_str_split(self, pattern, values):
        check_split(pattern, values)

    def test_match_decodes_its_sub_values(self):
        assert P("é", None, "→", None).match("é日→本") == ["日", "本"]

    def test_nul_in_a_value_raises_from_the_split(self):
        for values in (["x-1", "a\0b"], ["x-\0", "x-2"], ["\0"], ["é\0"]):
            with pytest.raises(CompressionError, match="NUL"):
                P("x-", None).split(values)


# ----------------------------------------------------------------------
# random columns and patterns
# ----------------------------------------------------------------------
#: ASCII of every class, the regex metacharacters, a newline, U+0080,
#: Latin-1, multibyte and astral characters.
ALPHABET = "09af AFgzGZ.-[(\\*+?$|)]\n\x80éÿЀ語\U0001F600"
texts = st.text(alphabet=ALPHABET, max_size=8)
fragments = st.lists(st.one_of(st.none(), texts), max_size=6)
hexish = st.text(alphabet="0123456789abcdefABCDEF", max_size=9)


@st.composite
def pattern_and_values(draw):
    pattern = pattern_from_fragments(draw(fragments))
    fitting = st.lists(
        texts, min_size=pattern.num_subvars, max_size=pattern.num_subvars
    ).map(pattern.render)
    values = draw(st.lists(st.one_of(texts, fitting), max_size=40))
    return pattern, values


_SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestRandomColumns:
    @_SETTINGS
    @given(st.lists(st.one_of(texts, hexish), max_size=60))
    def test_packers(self, values):
        check_packers(values)

    @_SETTINGS
    @given(pattern_and_values())
    def test_split_then_pack(self, case):
        pattern, values = case
        check_split(pattern, values)
