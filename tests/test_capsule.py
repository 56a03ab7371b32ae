"""Tests for stamps and Capsule payloads (§4.2, §4.3, §5.2)."""

import lzma
import random
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.capsule import capsule as capsule_module
from repro.capsule.capsule import (
    CODEC_LZMA,
    CODEC_RAW,
    CODEC_ZLIB,
    LZMA_ONLY_FROM,
    ZLIB_MARGIN,
    ZLIB_ONLY_BELOW,
    Capsule,
    LAYOUT_VARIABLE,
    _choose_codec,
    _lzma_compress,
)
from repro.capsule.stamp import CapsuleStamp
from repro.common import chartypes
from repro.common.binio import BinaryReader, BinaryWriter
from repro.common.errors import CompressionError, FormatError
from repro.obs import get_registry

nul_free = st.text(
    alphabet=st.characters(
        blacklist_characters="\x00", blacklist_categories=("Cs",)
    ),
    max_size=12,
)


class TestStamp:
    def test_of_values(self):
        stamp = CapsuleStamp.of_values(["1F", "8"])
        assert stamp.type_mask == 0b000101
        assert stamp.max_len == 2

    def test_admits_type(self):
        stamp = CapsuleStamp.of_values(["1234", "5678"])
        assert stamp.admits("12")
        assert not stamp.admits("1a")

    def test_admits_length(self):
        # Fig 6 case ②: "8F8" violates <sv1>'s len=1.
        stamp = CapsuleStamp.of_values(["8", "1"])
        assert not stamp.admits("8F8")
        assert stamp.admits("8")

    def test_empty_fragment_always_admitted(self):
        assert CapsuleStamp.of_values(["xyz"]).admits("")

    def test_permissive(self):
        stamp = CapsuleStamp.permissive()
        assert stamp.admits("anything at all ~ 123")

    def test_of_empty_vector_and_empty_strings(self):
        assert CapsuleStamp.of_values([]) == CapsuleStamp(0, 0)
        assert CapsuleStamp.of_values(["", ""]) == CapsuleStamp(0, 0)

    def test_max_len_counts_characters_width_counts_bytes(self):
        values = ["\U0001F600\U0001F600", "é"]  # 8 and 2 bytes
        assert CapsuleStamp.of_values(values).max_len == 2
        assert Capsule.pack_fixed(values).width == 8

    @given(st.lists(nul_free, max_size=40))
    def test_of_values_equals_per_character_scan(self, values):
        mask = 0
        for value in values:
            for ch in value:
                mask |= chartypes.char_class(ch)
        longest = 0
        for value in values:
            longest = max(longest, len(value))
        assert CapsuleStamp.of_values(values) == CapsuleStamp(mask, longest)

    def test_serialization(self):
        stamp = CapsuleStamp(0b101, 42)
        w = BinaryWriter()
        stamp.write(w)
        assert CapsuleStamp.read(BinaryReader(w.getvalue())) == stamp


class TestFixedCapsule:
    def test_roundtrip(self):
        values = ["1", "8", "2", "longer"]
        capsule = Capsule.pack_fixed(values)
        assert capsule.values() == values
        assert [capsule.value_at(i) for i in range(4)] == values
        assert capsule.width == 6
        assert capsule.count == 4

    def test_empty_values(self):
        capsule = Capsule.pack_fixed([])
        assert capsule.values() == []
        assert capsule.count == 0

    def test_all_empty_strings(self):
        capsule = Capsule.pack_fixed(["", "", ""])
        assert capsule.width == 0
        assert capsule.values() == ["", "", ""]

    def test_explicit_width(self):
        capsule = Capsule.pack_fixed(["1", "2"], width=4)
        assert capsule.width == 4
        assert capsule.values() == ["1", "2"]

    def test_value_at_out_of_range(self):
        capsule = Capsule.pack_fixed(["a"])
        with pytest.raises(IndexError):
            capsule.value_at(1)
        with pytest.raises(IndexError):
            capsule.value_at(-1)

    def test_nul_rejected(self):
        with pytest.raises(CompressionError):
            Capsule.pack_fixed(["a\x00b"])

    def test_value_wider_than_explicit_width_rejected(self):
        with pytest.raises(CompressionError):
            Capsule.pack_fixed(["1", "22222"], width=4)

    def test_small_payload_stays_raw(self):
        capsule = Capsule.pack_fixed(["ab"])
        assert capsule.codec == CODEC_RAW

    @given(st.lists(nul_free, max_size=40))
    def test_roundtrip_property(self, values):
        capsule = Capsule.pack_fixed(values)
        assert capsule.values() == values


class TestVariableCapsule:
    def test_roundtrip(self):
        values = ["alpha", "", "b", "cc"]
        capsule = Capsule.pack_variable(values)
        assert capsule.layout == LAYOUT_VARIABLE
        assert capsule.values() == values
        assert [capsule.value_at(i) for i in range(4)] == values

    def test_empty(self):
        assert Capsule.pack_variable([]).values() == []

    @given(st.lists(nul_free, max_size=40))
    def test_roundtrip_property(self, values):
        capsule = Capsule.pack_variable(values)
        assert capsule.values() == values


class TestRegionCapsule:
    def test_region_layout(self):
        # Two pattern regions with different widths (Fig 5's dictionary).
        capsule = Capsule.pack_regions(
            [["ERR#404", "ERR#501"], ["SUCC"]], widths=[7, 4]
        )
        assert capsule.region_value(0, 7) == "ERR#404"
        assert capsule.region_value(7, 7) == "ERR#501"
        assert capsule.region_value(14, 4) == "SUCC"
        assert capsule.count == 3

    def test_value_longer_than_width_rejected(self):
        with pytest.raises(CompressionError):
            Capsule.pack_regions([["toolong"]], widths=[3])

    def test_padding_within_region(self):
        capsule = Capsule.pack_regions([["ab", "c"]], widths=[4])
        assert capsule.region_value(0, 4) == "ab"
        assert capsule.region_value(4, 4) == "c"


    def test_multibyte_value_wider_than_region_rejected(self):
        # Two characters, four bytes: widths are byte widths.
        with pytest.raises(CompressionError, match="'éé'"):
            Capsule.pack_regions([["ab", "éé"]], widths=[3])

    @given(st.lists(st.lists(nul_free, max_size=8), max_size=5))
    def test_roundtrip_property(self, regions):
        widths = [
            max((len(v.encode()) for v in region), default=0) for region in regions
        ]
        capsule = Capsule.pack_regions(regions, widths)
        assert capsule.count == sum(map(len, regions))
        offset = 0
        for region, width in zip(regions, widths):
            for value in region:
                assert capsule.region_value(offset, width) == value
                offset += width
        assert len(capsule.plain()) == offset


class TestEmbeddedNul:
    """One NUL anywhere in a vector fails the pack, before any codec runs:
    the whole-buffer check counts the NULs the layout itself put there."""

    @pytest.mark.parametrize("position", [0, 2, 4])  # first, middle, last value
    @pytest.mark.parametrize("nul_value", ["\x00", "\x00tail", "mid\x00dle", "head\x00"])
    def test_every_packer_rejects_it(self, position, nul_value, monkeypatch):
        monkeypatch.setattr(
            capsule_module, "_choose_codec",
            lambda *a, **k: pytest.fail("codec ran on a vector holding NUL"),
        )
        values = ["alpha", "", "b", "cc", "delta"]
        values[position] = nul_value
        with pytest.raises(CompressionError, match="NUL"):
            Capsule.pack_fixed(values)
        with pytest.raises(CompressionError, match="NUL"):
            Capsule.pack_fixed(values, width=16)
        with pytest.raises(CompressionError, match="NUL"):
            Capsule.pack_variable(values)
        with pytest.raises(CompressionError, match="NUL"):
            Capsule.pack_regions([values[:2], values[2:]], widths=[9, 9])


class TestCapsuleSerialization:
    @pytest.mark.parametrize("layout", ["fixed", "variable"])
    def test_roundtrip(self, layout):
        values = ["x", "yy", "zzz"] * 20
        if layout == "fixed":
            capsule = Capsule.pack_fixed(values)
        else:
            capsule = Capsule.pack_variable(values)
        w = BinaryWriter()
        capsule.write(w)
        loaded = Capsule.read(BinaryReader(w.getvalue()))
        assert loaded.values() == values
        assert loaded.stamp == capsule.stamp
        assert loaded.width == capsule.width


def _low_redundancy(count, length=12, seed=7):
    rng = random.Random(seed)
    return [
        "".join(rng.choice("abcdefghij0123456789") for _ in range(length))
        for _ in range(count)
    ]


def _long_period_values():
    # Redundancy with a period beyond zlib's 32 KB window: only LZMA can
    # reference the earlier repetitions, so its margin is large.
    uniques = _low_redundancy(1000, length=40, seed=3)
    return [uniques[i % 1000] for i in range(3000)]


class TestCodecRule:
    """One buffer per size band of ``_choose_codec`` (thresholds in
    ``capsule.py``): raw < 32 B <= zlib only < 2 KiB <= smaller of both
    < 32 KiB <= LZMA only."""

    def test_under_32_bytes_stays_raw(self):
        assert _choose_codec(b"a" * 31, 1) == (CODEC_RAW, b"a" * 31)

    def test_small_buffer_is_zlib_without_an_lzma_encoder(self, monkeypatch):
        def no_lzma(*args, **kwargs):
            raise AssertionError("LZMA encoder constructed under 2 KiB")

        monkeypatch.setattr(lzma, "compress", no_lzma)
        monkeypatch.setattr(lzma, "LZMACompressor", no_lzma)
        for speed_tier in (False, True):
            capsule = Capsule.pack_fixed(["abcabcabc"] * 100, speed_tier=speed_tier)
            assert capsule.codec == CODEC_ZLIB
            assert capsule.compressed_bytes < 9 * 100
            assert capsule.values() == ["abcabcabc"] * 100

    def test_band_keeps_the_smaller_codec(self):
        counters = [f"{i:08d}" for i in range(3000)]  # 24 000 B, LZMA wins
        shuffled = _low_redundancy(1000)  # 12 000 B, zlib wins
        for values, expected in ((counters, CODEC_LZMA), (shuffled, CODEC_ZLIB)):
            buf = "".join(values).encode()
            assert ZLIB_ONLY_BELOW <= len(buf) < LZMA_ONLY_FROM
            by_codec = {
                CODEC_LZMA: len(_lzma_compress(buf, 1)),
                CODEC_ZLIB: len(zlib.compress(buf, 6)),
            }
            assert min(by_codec, key=by_codec.get) == expected
            capsule = Capsule.pack_fixed(values)
            assert capsule.codec == expected
            assert capsule.compressed_bytes == by_codec[expected]
            assert capsule.values() == values

    def test_band_tie_goes_to_zlib(self, monkeypatch):
        buf = "".join(_low_redundancy(1000)).encode()
        same_size = zlib.compress(buf, 6)
        monkeypatch.setattr(capsule_module, "_lzma_compress", lambda b, p: same_size)
        assert _choose_codec(buf, 1)[0] == CODEC_ZLIB

    def test_from_32k_is_lzma_without_a_zlib_probe(self, monkeypatch):
        values = _long_period_values()
        monkeypatch.setattr(
            zlib, "compress",
            lambda *a, **k: pytest.fail("zlib tried at or above its window"),
        )
        capsule = Capsule.pack_fixed(values)
        assert capsule.codec == CODEC_LZMA
        assert capsule.values() == values

    @pytest.mark.parametrize("size", [32, 1000, 8000, 40000])
    @pytest.mark.parametrize("speed_tier", [False, True])
    @pytest.mark.parametrize("preset", [0, 1])
    def test_incompressible_is_raw_in_every_band(self, size, speed_tier, preset):
        noise = random.Random(size).randbytes(size)
        assert _choose_codec(noise, preset, speed_tier) == (CODEC_RAW, noise)

    def test_choice_is_counted_per_codec(self):
        registry = get_registry()

        def snapshot():
            return {
                (metric, codec): registry.get(metric).value(codec=codec)
                for metric in (
                    "loggrep_capsule_codec_total",
                    "loggrep_capsule_codec_bytes_in_total",
                    "loggrep_capsule_codec_bytes_out_total",
                )
                for codec in ("raw", "zlib", "lzma")
            }

        before = snapshot()
        small = Capsule.pack_fixed(["ab"])
        medium = Capsule.pack_fixed(["abcabcabc"] * 100)
        large = Capsule.pack_fixed(_long_period_values())
        delta = {key: value - before[key] for key, value in snapshot().items()}
        for codec, capsule in (("raw", small), ("zlib", medium), ("lzma", large)):
            assert delta["loggrep_capsule_codec_total", codec] == 1
            assert delta["loggrep_capsule_codec_bytes_in_total", codec] == len(
                capsule.plain()
            )
            assert delta["loggrep_capsule_codec_bytes_out_total", codec] == (
                capsule.compressed_bytes
            )

    def test_speed_tier_differs_only_by_margin(self):
        # At preset 6 LZMA beats zlib on this buffer, but by under 10 %:
        # the default keeps the smaller payload, the speed tier keeps
        # zlib.  Where LZMA's edge is over the margin both agree.
        close = "".join(_low_redundancy(1000)).encode()
        lzma_size = len(_lzma_compress(close, 6))
        zlib_size = len(zlib.compress(close, 6))
        assert ZLIB_MARGIN * zlib_size <= lzma_size < zlib_size
        assert _choose_codec(close, 6)[0] == CODEC_LZMA
        assert _choose_codec(close, 6, speed_tier=True)[0] == CODEC_ZLIB
        clear = "".join(f"{i:08d}" for i in range(3000)).encode()
        assert _choose_codec(clear, 6) == _choose_codec(clear, 6, speed_tier=True)


class TestSpeedTierCodec:
    def _zlib_wins_values(self):
        # Low-redundancy payload: LZMA's edge over zlib stays under the
        # margin, so the speed tier picks zlib.
        return _low_redundancy(200)

    def test_speed_tier_roundtrip(self):
        values = self._zlib_wins_values()
        for pack in (Capsule.pack_fixed, Capsule.pack_variable):
            capsule = pack(values, speed_tier=True)
            assert capsule.values() == values
            w = BinaryWriter()
            capsule.write(w)
            loaded = Capsule.read(BinaryReader(w.getvalue()))
            assert loaded.values() == values

    def test_speed_tier_picks_zlib_when_margin_small(self):
        capsule = Capsule.pack_fixed(self._zlib_wins_values(), speed_tier=True)
        assert capsule.codec == CODEC_ZLIB

    def test_speed_tier_keeps_lzma_when_it_wins(self):
        capsule = Capsule.pack_fixed(_long_period_values(), speed_tier=True)
        assert capsule.codec == CODEC_LZMA

    def test_region_speed_tier_roundtrip(self):
        values = self._zlib_wins_values()
        capsule = Capsule.pack_regions([values], widths=[12], speed_tier=True)
        assert [capsule.region_value(i * 12, 12) for i in range(len(values))] == values


class TestVariablePayloadValidation:
    def test_truncated_payload_rejected(self):
        capsule = Capsule.pack_variable(["alpha", "beta", "gamma"])
        plain = capsule.plain()
        truncated = Capsule(
            LAYOUT_VARIABLE, 0, 3, capsule.stamp, CODEC_RAW, 1,
            plain[: plain.rindex(b"\x00")],
        )
        with pytest.raises(FormatError, match="expected 3"):
            truncated.values()
        with pytest.raises(FormatError, match="expected 3"):
            truncated.values_bytes()

    def test_extra_separator_rejected(self):
        capsule = Capsule.pack_variable(["a", "b"])
        padded = Capsule(
            LAYOUT_VARIABLE, 0, 2, capsule.stamp, CODEC_RAW, 1,
            capsule.plain() + b"\x00c",
        )
        with pytest.raises(FormatError, match="expected 2"):
            padded.values()

    def test_values_bytes_matches_values(self):
        values = ["alpha", "", "b", "cc"]
        for capsule in (Capsule.pack_fixed(values), Capsule.pack_variable(values)):
            assert [b.decode() for b in capsule.values_bytes()] == values
