"""Length-prefixed binary record I/O for on-disk archive formats.

The prune-index sidecar, the CapsuleBox metadata writer and the
baselines' archives are serialized through this small reader/writer pair,
so that they share one framing convention: single bytes, varint integers
and varint-length-prefixed byte strings.  Boxes are read by their own
offset decoders in :mod:`repro.capsule.box`, not through it.
"""

from __future__ import annotations

import io
import struct
from array import array
from typing import List

from .errors import FormatError


class BinaryWriter:
    """Appends primitive values to an in-memory buffer."""

    def __init__(self) -> None:
        self._buf = io.BytesIO()

    def write_u8(self, value: int) -> None:
        self._buf.write(struct.pack("<B", value))

    def write_varint(self, value: int) -> None:
        if value < 0:
            raise ValueError("varints are unsigned")
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                self._buf.write(bytes((byte | 0x80,)))
            else:
                self._buf.write(bytes((byte,)))
                return

    def write_raw(self, data: bytes) -> None:
        """*data* as is, with no length prefix (a fixed-size field)."""
        self._buf.write(data)

    def write_bytes(self, data: bytes) -> None:
        self.write_varint(len(data))
        self._buf.write(data)

    def write_str(self, text: str) -> None:
        self.write_bytes(text.encode("utf-8"))

    def write_str_list(self, items: List[str]) -> None:
        self.write_varint(len(items))
        for item in items:
            self.write_str(item)

    def write_u32_list(self, items: List[int]) -> None:
        self.write_varint(len(items))
        for item in items:
            self.write_varint(item)

    def write_u32_array(self, items: List[int]) -> None:
        """Bulk u32 list as a little-endian array blob.

        Unlike :meth:`write_u32_list` this trades a few bytes (recovered by
        the enclosing zlib pass) for C-speed parsing — used for per-entry
        data like group line ids, which dominate metadata volume.
        """
        blob = array("I", items)
        if blob.itemsize != 4:  # pragma: no cover - exotic platforms
            raise FormatError("platform lacks a 4-byte unsigned array type")
        self.write_bytes(blob.tobytes())

    def getvalue(self) -> bytes:
        return self._buf.getvalue()


class BinaryReader:
    """Reads values written by :class:`BinaryWriter` in the same order."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _take(self, count: int) -> bytes:
        end = self._pos + count
        if end > len(self._data):
            raise FormatError("truncated archive: read past end of buffer")
        chunk = self._data[self._pos : end]
        self._pos = end
        return chunk

    def read_u8(self) -> int:
        return struct.unpack("<B", self._take(1))[0]

    def read_varint(self) -> int:
        value = 0
        shift = 0
        while True:
            byte = self._take(1)[0]
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 63:
                raise FormatError("varint too long")

    def read_bytes(self) -> bytes:
        return self._take(self.read_varint())

    def read_str(self) -> str:
        return self.read_bytes().decode("utf-8")

    def read_str_list(self) -> List[str]:
        return [self.read_str() for _ in range(self.read_varint())]

    def read_u32_array(self) -> List[int]:
        blob = array("I")
        blob.frombytes(self.read_bytes())
        return blob.tolist()

    def remaining(self) -> int:
        return len(self._data) - self._pos
