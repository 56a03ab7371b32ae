"""Reader compatibility of the size-aware write path.

The encoder sizes its LZMA dictionary to the buffer while the reader keeps
decoding with the preset's own filter chain, and small Capsules moved from
LZMA to zlib.  Neither may need a new reader: these tests pin that a
sized-dictionary stream decodes through the unchanged ``_lzma_decompress``,
that the encoder never exceeds the preset's dictionary, and that archives
written by the previous rule and by this one answer the same queries.
"""

import dataclasses
import lzma
import random

import pytest

from repro.baselines.evalutil import line_matches
from repro.blockstore.store import ArchiveStore
from repro.capsule import capsule as capsule_module
from repro.capsule.capsule import (
    CODEC_LZMA,
    CODEC_RAW,
    _LZMA_FILTERS_BY_PRESET,
    _PRESET_DICT_SIZE,
    _encoder_dict_size,
    _lzma_compress,
    _lzma_decompress,
)
from repro.cli import main
from repro.core.config import LogGrepConfig
from repro.core.loggrep import LogGrep
from repro.query.language import parse_query
from repro.workloads import spec_by_name

PRESETS = range(10)
LENGTHS = (32, 4095, 4096, 4097, 65_535, 65_537)


def _logish(length: int) -> bytes:
    """Compressible but not trivial: short records cut from a small
    vocabulary, so the encoder emits matches at many distances."""
    rng = random.Random(length)
    words = [b"state", b"REQ_ST_CLOSED", b"blk_", b"10.1.", b"ERROR", b"\x00\x00"]
    out = bytearray()
    while len(out) < length:
        out += rng.choice(words) + str(rng.randrange(10_000)).encode()
    return bytes(out[:length])


class TestEncoderDictionary:
    def test_preset_table_matches_liblzma(self):
        encode = getattr(lzma, "_encode_filter_properties", None)
        decode = getattr(lzma, "_decode_filter_properties", None)
        if encode is None or decode is None:
            pytest.skip("this interpreter does not expose filter properties")
        for preset in PRESETS:
            props = encode({"id": lzma.FILTER_LZMA2, "preset": preset})
            assert decode(lzma.FILTER_LZMA2, props)["dict_size"] == (
                _PRESET_DICT_SIZE[preset]
            )

    @pytest.mark.parametrize("preset", PRESETS)
    def test_sized_to_the_buffer_within_the_preset(self, preset):
        ceiling = _PRESET_DICT_SIZE[preset]
        for length in (0, 1, *LENGTHS, ceiling - 1, ceiling, ceiling + 1, 4 * ceiling):
            size = _encoder_dict_size(length, preset)
            assert 4096 <= size <= ceiling
            assert size & (size - 1) == 0, "a power of two"
            # Large enough for the buffer unless the preset caps it, and
            # not a power of two larger than needed.
            assert size >= min(length, ceiling)
            assert size == 4096 or size // 2 < length

    @pytest.mark.parametrize("preset", PRESETS)
    def test_encoder_is_handed_the_sized_dictionary(self, preset, monkeypatch):
        seen = []
        real_compress = lzma.compress

        def spy(data, format, filters):
            seen.append(filters)
            return real_compress(data, format=format, filters=filters)

        monkeypatch.setattr(lzma, "compress", spy)
        _lzma_compress(b"x" * 5000, preset)
        [[spec]] = seen
        assert spec["dict_size"] == 8192
        assert spec["preset"] == preset and spec["id"] == lzma.FILTER_LZMA2


class TestUnchangedDecoder:
    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("length", LENGTHS)
    def test_sized_stream_decodes_with_the_preset_chain(self, preset, length):
        data = _logish(length)
        payload = _lzma_compress(data, preset)
        assert _lzma_decompress(payload, preset) == data
        # ... which is exactly what a parent build's reader runs.
        assert lzma.decompress(
            payload, format=lzma.FORMAT_RAW, filters=_LZMA_FILTERS_BY_PRESET[preset]
        ) == data

    # One byte past the preset's dictionary the upper clamp is what keeps
    # the stream decodable.  Presets 4-9 have 4-64 MiB dictionaries and
    # encoders of up to 674 MB; their clamp is covered arithmetically
    # above, and the round trip is run where it is cheap.
    @pytest.mark.parametrize("preset", [0, 1, 2, 3])
    def test_buffer_past_the_preset_dictionary(self, preset):
        length = _PRESET_DICT_SIZE[preset] + 1
        chunk = _logish(65_537)
        data = (chunk * (length // len(chunk) + 1))[:length]
        assert _lzma_decompress(_lzma_compress(data, preset), preset) == data

    def test_the_upper_clamp_is_a_correctness_requirement(self):
        # A repeat 300 KiB back is inside a 1 MiB dictionary and outside
        # preset 0's 256 KiB: an unclamped encoder writes a stream the
        # preset-0 reader must reject; the clamped one round-trips.
        half = random.Random(0).randbytes(300 * 1024)
        data = half + half
        unclamped = lzma.compress(
            data,
            format=lzma.FORMAT_RAW,
            filters=[{"id": lzma.FILTER_LZMA2, "preset": 0, "dict_size": 1 << 20}],
        )
        with pytest.raises(lzma.LZMAError):
            _lzma_decompress(unclamped, 0)
        assert _lzma_decompress(_lzma_compress(data, 0), 0) == data


def _parent_choose_codec(buf, preset, speed_tier=False):
    """The rule this change replaced: LZMA with the preset's full
    dictionary for everything of 32 bytes or more, raw when it does not pay."""
    if len(buf) < 32:
        return CODEC_RAW, buf
    payload = lzma.compress(
        buf, format=lzma.FORMAT_RAW, filters=_LZMA_FILTERS_BY_PRESET[preset]
    )
    if len(payload) >= len(buf):
        return CODEC_RAW, buf
    return CODEC_LZMA, payload


class TestArchivesAcrossTheChange:
    @pytest.mark.parametrize("dataset", ["Log A", "Hdfs"])
    @pytest.mark.parametrize("rule", ["parent", "change"])
    def test_table1_query_and_verify(self, dataset, rule, tmp_path, monkeypatch, capsys):
        spec = dataclasses.replace(spec_by_name(dataset), size_factor=1.0, seed=5)
        lines = spec.generate(1500)
        if rule == "parent":
            monkeypatch.setattr(capsule_module, "_choose_codec", _parent_choose_codec)
        archive = str(tmp_path / rule)
        config = LogGrepConfig(block_bytes=64 * 1024, compress_parallelism=1)
        LogGrep(store=ArchiveStore(archive), config=config).compress(lines)
        monkeypatch.undo()

        command = parse_query(spec.query)
        want = [i for i, line in enumerate(lines) if line_matches(command, line)]
        assert want, "the Table-1 query must hit for the comparison to mean anything"
        result = LogGrep(store=ArchiveStore(archive), config=config).grep(spec.query)
        assert result.line_ids == want
        assert result.lines == [lines[i] for i in want]
        assert main(["verify", "-a", archive]) == 0
        assert "block(s) healthy" in capsys.readouterr().out
