"""Round-trip tests for the binary record I/O."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.binio import BinaryReader, BinaryWriter
from repro.common.errors import FormatError


class TestScalars:
    def test_u8_roundtrip(self):
        w = BinaryWriter()
        w.write_u8(200)
        w.write_u8(0)
        r = BinaryReader(w.getvalue())
        assert r.read_u8() == 200
        assert r.read_u8() == 0
        assert r.remaining() == 0

    @given(st.integers(min_value=0, max_value=(1 << 63) - 1))
    def test_varint_roundtrip(self, value):
        w = BinaryWriter()
        w.write_varint(value)
        assert BinaryReader(w.getvalue()).read_varint() == value

    def test_varint_negative_rejected(self):
        with pytest.raises(ValueError):
            BinaryWriter().write_varint(-1)

    def test_varint_small_is_one_byte(self):
        w = BinaryWriter()
        w.write_varint(100)
        assert len(w.getvalue()) == 1


class TestComposites:
    @given(st.binary(max_size=200))
    def test_bytes_roundtrip(self, data):
        w = BinaryWriter()
        w.write_bytes(data)
        assert BinaryReader(w.getvalue()).read_bytes() == data

    @given(st.text(max_size=100))
    def test_str_roundtrip(self, text):
        w = BinaryWriter()
        w.write_str(text)
        assert BinaryReader(w.getvalue()).read_str() == text

    @given(st.lists(st.text(max_size=20), max_size=20))
    def test_str_list_roundtrip(self, items):
        w = BinaryWriter()
        w.write_str_list(items)
        assert BinaryReader(w.getvalue()).read_str_list() == items

    @given(st.lists(st.integers(min_value=0, max_value=1 << 31), max_size=30))
    def test_u32_list_roundtrip(self, items):
        w = BinaryWriter()
        w.write_u32_list(items)
        r = BinaryReader(w.getvalue())
        assert [r.read_varint() for _ in range(r.read_varint())] == items

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 32) - 1), max_size=50))
    def test_u32_array_roundtrip(self, items):
        w = BinaryWriter()
        w.write_u32_array(items)
        assert BinaryReader(w.getvalue()).read_u32_array() == items

    def test_interleaved_sequence(self):
        w = BinaryWriter()
        w.write_str("hello")
        w.write_varint(7)
        w.write_u32_array([1, 2, 3])
        w.write_bytes(b"\x00\xff")
        r = BinaryReader(w.getvalue())
        assert r.read_str() == "hello"
        assert r.read_varint() == 7
        assert r.read_u32_array() == [1, 2, 3]
        assert r.read_bytes() == b"\x00\xff"


class TestErrors:
    def test_truncated_read(self):
        with pytest.raises(FormatError):
            BinaryReader(b"\x05ab").read_bytes()

    def test_runaway_varint(self):
        with pytest.raises(FormatError):
            BinaryReader(b"\xff" * 11).read_varint()

    def test_remaining(self):
        r = BinaryReader(b"abcd")
        assert r.remaining() == 4
        r.read_u8()
        assert r.remaining() == 3
