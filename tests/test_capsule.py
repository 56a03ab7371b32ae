"""Tests for stamps and Capsule payloads (§4.2, §4.3, §5.2)."""

import lzma
import random
import zlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.capsule import capsule as capsule_module
from repro.capsule.capsule import (
    CODEC_LZMA,
    CODEC_NAMES,
    CODEC_RAW,
    CODEC_ZLIB,
    FORM_ASCII,
    FORM_DIGITS,
    FORM_HEX,
    FORM_HEX_UPPER,
    FORM_ODD,
    FORMS,
    LZMA_FAST_PRESET_MAX,
    LZMA_ONLY_FROM,
    LZMA_TRIAL_ZLIB_RATIO,
    RAW_BELOW,
    ZLIB_MARGIN,
    ZLIB_ONLY_BELOW,
    Capsule,
    CodecRequest,
    LAYOUT_FIXED,
    LAYOUT_VARIABLE,
    _SPLIT_CHUNK,
    _choose_codec,
    _lzma_compress,
    _lzma_trial_skipped,
    _pack_form,
)
from repro.capsule.assembler import PlainEncodedVector
from repro.capsule.box import CapsuleBox, GroupBox
from repro.capsule.stamp import CapsuleStamp
from repro.common import chartypes
from repro.common.errors import CompressionError, FormatError
from repro.common.rowset import RowSet
from repro.core.config import LogGrepConfig
from repro.core.reconstructor import BlockReconstructor
from repro.obs import get_registry
from repro.staticparse.template import Template

def _box_roundtrip(capsule):
    """*capsule* as stored and reopened: the only serialized form of a
    Capsule is a record inside a CapsuleBox."""
    n = capsule.count
    vector = PlainEncodedVector(capsule, n)
    group = GroupBox(Template(0, [None]), list(range(n)), [vector])
    box = CapsuleBox(0, 0, n, True, [group])
    return CapsuleBox.deserialize(box.serialize()).groups[0].vectors[0].capsule


nul_free = st.text(
    alphabet=st.characters(
        blacklist_characters="\x00", blacklist_categories=("Cs",)
    ),
    max_size=12,
)


def _stamp_of(values):
    """The stamp the packer computes for *values*."""
    return Capsule.pack_fixed(values).stamp


class TestStamp:
    def test_of_values(self):
        stamp = _stamp_of(["1F", "8"])
        assert stamp.type_mask == 0b000101
        assert stamp.max_len == 2

    def test_admits_type(self):
        stamp = _stamp_of(["1234", "5678"])
        assert stamp.admits("12")
        assert not stamp.admits("1a")

    def test_admits_length(self):
        # Fig 6 case ②: "8F8" violates <sv1>'s len=1.
        stamp = _stamp_of(["8", "1"])
        assert not stamp.admits("8F8")
        assert stamp.admits("8")

    def test_empty_fragment_always_admitted(self):
        assert _stamp_of(["xyz"]).admits("")

    def test_permissive(self):
        stamp = CapsuleStamp.permissive()
        assert stamp.admits("anything at all ~ 123")

    def test_of_empty_vector_and_empty_strings(self):
        assert _stamp_of([]) == CapsuleStamp(0, 0)
        assert _stamp_of(["", ""]) == CapsuleStamp(0, 0)

    def test_max_len_counts_characters_width_counts_bytes(self):
        values = ["\U0001F600\U0001F600", "é"]  # 8 and 2 bytes
        assert _stamp_of(values).max_len == 2
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
        assert _stamp_of(values) == CapsuleStamp(mask, longest)

    def test_serialization(self):
        stamp = CapsuleStamp(0b101, 42)
        capsule = Capsule.pack_fixed(["ab", "c"], stamp=stamp)
        assert _box_roundtrip(capsule).stamp == stamp


class TestFixedCapsule:
    def test_roundtrip(self):
        values = ["1", "8", "2", "longer"]
        capsule = Capsule.pack_fixed(values)
        assert capsule.values() == values
        assert capsule.cells([3, 0]) == [b"longer", b"1\x00\x00\x00\x00\x00"]
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
        with pytest.raises(FormatError):
            capsule.cells([1])
        with pytest.raises(FormatError):
            capsule.cells([-1])

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
        assert capsule.cells([1, 3]) == [b"", b"cc"]

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
        assert capsule.region_cells([(2, 7), (1, 4)]) == [
            b"ERR#404", b"ERR#501", b"SUCC"
        ]
        assert capsule.count == 3

    def test_value_longer_than_width_rejected(self):
        with pytest.raises(CompressionError):
            Capsule.pack_regions([["toolong"]], widths=[3])

    def test_padding_within_region(self):
        capsule = Capsule.pack_regions([["ab", "c"]], widths=[4])
        assert capsule.region_cells([(2, 4)]) == [b"ab\x00\x00", b"c\x00\x00\x00"]


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
        cells = capsule.region_cells(
            [(len(region), width) for region, width in zip(regions, widths)]
        )
        assert [cell.rstrip(b"\x00").decode() for cell in cells] == [
            value for region in regions for value in region
        ]


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
        loaded = _box_roundtrip(capsule)
        assert loaded.values() == values
        assert loaded == capsule


def _low_redundancy(count, length=12, seed=7):
    rng = random.Random(seed)
    return [
        "".join(rng.choice("abcdefghij0123456789") for _ in range(length))
        for _ in range(count)
    ]


def _dense_hex(count, seed=5):
    """Hex values of 14 random digits and a constant ``00``: packed two per
    byte they are seven random bytes and a zero byte each, which zlib
    shrinks by only about a twentieth, so the fast presets try no LZMA."""
    rng = random.Random(seed)
    return [
        "".join(rng.choices("0123456789abcdef", k=14)) + "00" for _ in range(count)
    ]


def _dense_buffer(count):
    """The stored (packed) bytes of ``_dense_hex(count)``: 8 B a value."""
    return bytes.fromhex("".join(_dense_hex(count)))


def _no_lzma_encoder(monkeypatch, why):
    def no_lzma(*args, **kwargs):
        raise AssertionError(why)

    monkeypatch.setattr(lzma, "compress", no_lzma)
    monkeypatch.setattr(lzma, "LZMACompressor", no_lzma)


def _lzma_calls(monkeypatch):
    calls = []
    original = capsule_module._lzma_compress

    def counting(data, preset):
        calls.append(len(data))
        return original(data, preset)

    monkeypatch.setattr(capsule_module, "_lzma_compress", counting)
    return calls


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
        _no_lzma_encoder(monkeypatch, "LZMA encoder constructed under 2 KiB")
        for codec in (CodecRequest.SMALLEST, CodecRequest.SPEED):
            capsule = Capsule.pack_fixed(["abcabcabc"] * 100, codec=codec)
            assert capsule.codec == CODEC_ZLIB
            assert capsule.compressed_bytes < 9 * 100
            assert capsule.values() == ["abcabcabc"] * 100

    def test_band_skips_lzma_where_zlib_ratio_rules_it_out(self, monkeypatch):
        values = _dense_hex(1500)  # 24 000 hex digits, 12 000 B packed
        buf = _dense_buffer(1500)
        assert ZLIB_ONLY_BELOW <= len(buf) < LZMA_ONLY_FROM
        zlib_size = len(zlib.compress(buf, 6))
        assert LZMA_TRIAL_ZLIB_RATIO * len(buf) < zlib_size < len(buf)
        _no_lzma_encoder(monkeypatch, "LZMA trial zlib's ratio rules out")
        for codec in (CodecRequest.SMALLEST, CodecRequest.SPEED):
            for preset in range(LZMA_FAST_PRESET_MAX + 1):
                assert _lzma_trial_skipped(len(buf), zlib_size, preset)
                capsule = Capsule.pack_fixed(values, preset=preset, codec=codec)
                assert capsule.form == FORM_HEX
                assert (capsule.codec, capsule.compressed_bytes) == (
                    CODEC_ZLIB, zlib_size,
                )
                assert capsule.values() == values

    def test_slow_presets_keep_the_full_trial(self, monkeypatch):
        buf = _dense_buffer(1500)
        zlib_payload = zlib.compress(buf, 6)
        assert not _lzma_trial_skipped(len(buf), len(zlib_payload), 9)
        lzma_payload = _lzma_compress(buf, 9)
        calls = _lzma_calls(monkeypatch)
        for speed_tier, margin in ((False, 1.0), (True, ZLIB_MARGIN)):
            codec, payload = _choose_codec(buf, 9, speed_tier)
            assert calls == [len(buf)]
            calls.clear()
            if len(lzma_payload) < margin * len(zlib_payload):
                assert (codec, payload) == (CODEC_LZMA, lzma_payload)
            else:
                assert (codec, payload) == (CODEC_ZLIB, zlib_payload)

    def test_from_32k_tries_lzma_whatever_zlib_would_do(self, monkeypatch):
        # No zlib probe at or above the window, so no ratio to gate on:
        # LZMA runs at every preset, and is kept only where it shrinks.
        buf = _dense_buffer(4500)  # 36 000 B
        assert len(buf) >= LZMA_ONLY_FROM
        calls = _lzma_calls(monkeypatch)
        for preset in (1, 9):
            codec, payload = _choose_codec(buf, preset)
            assert calls == [len(buf)]
            calls.clear()
            assert codec == CODEC_LZMA and len(payload) < len(buf)
        # The speed tier probes zlib up there too, and so is gated.
        assert _choose_codec(buf, 1, speed_tier=True) == (
            CODEC_ZLIB, zlib.compress(buf, 6),
        )
        assert calls == []

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
            codec, payload = _choose_codec(buf, 1)
            assert (codec, len(payload)) == (expected, by_codec[expected])
            # The Capsule runs the same rule once, on its packed buffer:
            # the digit column two per byte, the lettered one as it is.
            form, packed = _pack_form(buf, chartypes.type_mask_of_buffer(buf))
            assert form == (FORM_DIGITS if values is counters else FORM_ASCII)
            capsule = Capsule.pack_fixed(values)
            assert capsule.form == form
            assert (capsule.codec, capsule.payload) == _choose_codec(packed, 1)
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

        cases = (("raw", "ascii"), ("zlib", "hex"), ("lzma", "ascii"))

        def snapshot():
            return {
                (metric, codec): registry.get(metric).value(codec=codec, form=form)
                for metric in (
                    "loggrep_capsule_codec_total",
                    "loggrep_capsule_codec_bytes_in_total",
                    "loggrep_capsule_codec_bytes_out_total",
                )
                for codec, form in cases
            }

        before = snapshot()
        small = Capsule.pack_fixed(["ab"])
        medium = Capsule.pack_fixed(["abcabcabc"] * 100)  # hex: packed
        large = Capsule.pack_fixed(_long_period_values())
        delta = {key: value - before[key] for key, value in snapshot().items()}
        for codec, capsule in (("raw", small), ("zlib", medium), ("lzma", large)):
            assert delta["loggrep_capsule_codec_total", codec] == 1
            # Plain bytes in, whatever the form the codec ran on.
            assert delta["loggrep_capsule_codec_bytes_in_total", codec] == len(
                capsule.plain()
            )
            assert delta["loggrep_capsule_codec_bytes_out_total", codec] == (
                capsule.compressed_bytes
            )
        assert len(medium.plain()) == 900 and medium.form == FORM_HEX

    def test_trials_are_counted_by_outcome(self):
        trials = get_registry().get("loggrep_capsule_lzma_trials_total")

        def snapshot():
            return {
                outcome: trials.value(outcome=outcome)
                for outcome in ("won", "lost", "skipped")
            }

        dense = _dense_buffer(1500)
        cases = (
            ("".join(f"{i:08d}" for i in range(3000)).encode(), False, "won"),
            ("".join(_low_redundancy(1000)).encode(), False, "lost"),
            (dense, False, "skipped"),
            (dense, True, "skipped"),
            (b"abcabcabc" * 100, False, None),  # under 2 KiB: no trial
            (dense * 3, False, None),  # 36 000 B: no zlib probe
        )
        for buf, speed_tier, outcome in cases:
            before = snapshot()
            _choose_codec(buf, 1, speed_tier)
            delta = {k: v - before[k] for k, v in snapshot().items()}
            expected = {k: int(k == outcome) for k in delta}
            assert delta == expected, (len(buf), outcome)

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
            capsule = pack(values, codec=CodecRequest.SPEED)
            assert capsule.values() == values
            loaded = _box_roundtrip(capsule)
            assert loaded.values() == values

    def test_speed_tier_picks_zlib_when_margin_small(self):
        capsule = Capsule.pack_fixed(self._zlib_wins_values(), codec=CodecRequest.SPEED)
        assert capsule.codec == CODEC_ZLIB

    def test_speed_tier_keeps_lzma_when_it_wins(self):
        capsule = Capsule.pack_fixed(_long_period_values(), codec=CodecRequest.SPEED)
        assert capsule.codec == CODEC_LZMA

    def test_region_speed_tier_roundtrip(self):
        values = self._zlib_wins_values()
        capsule = Capsule.pack_regions([values], widths=[12], codec=CodecRequest.SPEED)
        cells = capsule.region_cells([(len(values), 12)])
        assert [cell.rstrip(b"\x00").decode() for cell in cells] == values


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
            truncated.cells([0])

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
        assert Capsule.pack_variable(values).cells() == [v.encode() for v in values]
        assert Capsule.pack_fixed(values).cells() == [
            v.encode().ljust(5, b"\x00") for v in values
        ]


class TestFixedPayloadValidation:
    def test_long_payload_rejected(self):
        # A payload longer than count x width must not be truncated.
        capsule = Capsule.pack_fixed(["ab", "cd", "ef"])
        short = Capsule(
            LAYOUT_FIXED, capsule.width, 2, capsule.stamp, CODEC_RAW, 1, capsule.plain()
        )
        with pytest.raises(FormatError, match="expected 2 x 2"):
            short.values()


def _ljust_column(values, width):
    """The padding rule the packers must keep: one ``ljust`` per value."""
    return b"".join(value.encode().ljust(width, b"\x00") for value in values)


def _uniform(values):
    """*values* topped up with ASCII to one common byte width."""
    width = max((len(value.encode()) for value in values), default=0)
    return [value + "x" * (width - len(value.encode())) for value in values]


#: Non-ASCII text: byte widths differ from character counts.
_utf8_text = st.text(
    alphabet=st.characters(blacklist_characters="\x00", blacklist_categories=("Cs",)),
    max_size=10,
)


class TestPaddingOracle:
    """Both padded layouts pad in C — one join when every value has the
    width, else one ``struct`` pack per ``_SPLIT_CHUNK`` cells — and must
    stay byte-identical to the per-value ``ljust`` rule."""

    @given(st.lists(_utf8_text, max_size=40), st.integers(0, 5))
    def test_fixed_mixed_widths(self, values, extra):
        width = max((len(value.encode()) for value in values), default=0)
        assert Capsule.pack_fixed(values).plain() == _ljust_column(values, width)
        wider = Capsule.pack_fixed(values, width=width + extra)
        assert wider.width == width + extra
        assert wider.plain() == _ljust_column(values, width + extra)

    @given(st.lists(_utf8_text, max_size=40))
    def test_fixed_uniform_widths(self, values):
        values = _uniform(values)
        width = max((len(value.encode()) for value in values), default=0)
        capsule = Capsule.pack_fixed(values)
        assert capsule.plain() == _ljust_column(values, width)
        assert capsule.values() == values

    @given(st.lists(st.lists(_utf8_text, max_size=8), max_size=5), st.data())
    def test_regions(self, regions, data):
        regions = [
            _uniform(region) if data.draw(st.booleans()) else region
            for region in regions
        ]
        widths = [
            max((len(value.encode()) for value in region), default=0)
            + data.draw(st.integers(0, 3))
            for region in regions
        ]
        capsule = Capsule.pack_regions(regions, widths)
        assert capsule.plain() == b"".join(
            _ljust_column(region, width) for region, width in zip(regions, widths)
        )

    def test_more_than_one_chunk(self):
        chunk = capsule_module._SPLIT_CHUNK
        rng = random.Random(5)
        values = [
            "é" * rng.randrange(3) + str(rng.randrange(10**6))
            for _ in range(2 * chunk + 7)
        ]
        width = max(len(value.encode()) for value in values)
        assert Capsule.pack_fixed(values).plain() == _ljust_column(values, width)
        uniform = _uniform(values)
        assert Capsule.pack_fixed(uniform).plain() == _ljust_column(uniform, width)
        regions = [values[:chunk + 1], values[chunk + 1 :]]
        capsule = Capsule.pack_regions(regions, [width, width + 2])
        assert capsule.plain() == _ljust_column(regions[0], width) + _ljust_column(
            regions[1], width + 2
        )

    @pytest.mark.parametrize("count", [3, 2 * capsule_module._SPLIT_CHUNK + 1])
    def test_longer_than_width_rejected(self, count):
        values = ["ab"] * count
        values[-1] = "aé"  # three bytes
        with pytest.raises(CompressionError, match="longer than the width 2"):
            Capsule.pack_fixed(values, width=2)
        with pytest.raises(CompressionError, match="longer than the width 2"):
            Capsule.pack_regions([values[:1], values[1:]], widths=[2, 2])

    @pytest.mark.parametrize("count", [3, 2 * capsule_module._SPLIT_CHUNK + 1])
    def test_nul_in_value_rejected(self, count):
        # Mixed widths take the struct path, uniform ones the join.
        for values in (["a"] * count, ["ab"] * count):
            values[-1] = "\x00b"
            with pytest.raises(CompressionError, match="NUL"):
                Capsule.pack_fixed(values)
            with pytest.raises(CompressionError, match="NUL"):
                Capsule.pack_regions([values[:1], values[1:]], widths=[2, 2])


# ----------------------------------------------------------------------
# forms: digit and hex columns stored two characters per byte
# ----------------------------------------------------------------------
ALPHABETS = {
    "digits": "0123456789",
    "hex": "0123456789abcdef",
    "hex_upper": "0123456789ABCDEF",
    "mixed_case": "0123456789abcdefABCDEF",
    "text": "0123456789abcdefxyz-.",
}


def _reference_form(buf, request):
    """The form the rule must pick, from the set of bytes in *buf*."""
    if len(buf) < RAW_BELOW:
        return FORM_ASCII
    chars = set(buf)
    for alphabet, allowed in (
        (FORM_DIGITS, b"0123456789\x00"),
        (FORM_HEX, b"0123456789abcdef"),
        (FORM_HEX_UPPER, b"0123456789ABCDEF"),
    ):
        if chars <= set(allowed):
            return alphabet | (FORM_ODD if len(buf) % 2 else 0)
    return FORM_ASCII


@st.composite
def _columns(draw):
    """``(values, width)``: one alphabet, a width of 1-40, values either
    all that wide (no pad) or shorter, optionally tiled past
    ``_SPLIT_CHUNK`` cells."""
    alphabet = ALPHABETS[draw(st.sampled_from(sorted(ALPHABETS)))]
    width = draw(st.integers(1, 40))
    # Mostly full width: hex packs only without pad bytes.
    low = width if draw(st.sampled_from([True, True, False])) else 0
    values = draw(
        st.lists(
            st.text(alphabet=alphabet, min_size=low, max_size=width),
            min_size=1, max_size=30,
        )
    )
    if draw(st.booleans()):
        values = values * (_SPLIT_CHUNK // len(values) + 1)
    return values, width


def _padded(values, width):
    return b"".join(v.encode().ljust(width, b"\x00") for v in values)


def _check_form(capsule, buf, request):
    assert capsule.form == _reference_form(buf, request)
    assert capsule.plain() == buf
    loaded = _box_roundtrip(capsule)
    assert loaded.form == capsule.form
    assert loaded.plain() == buf
    assert loaded == capsule


_FORM_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestForms:
    """A Capsule's plain buffer in any form: ``plain()`` returns the
    packer's padded ASCII byte for byte, stored and reopened."""

    @_FORM_SETTINGS
    @given(column=_columns(), request=st.sampled_from(list(CodecRequest)))
    def test_fixed_round_trip(self, column, request):
        values, width = column
        capsule = Capsule.pack_fixed(values, width=width, codec=request)
        _check_form(capsule, _padded(values, width), request)
        assert capsule.values() == values

    @_FORM_SETTINGS
    @given(column=_columns(), request=st.sampled_from(list(CodecRequest)))
    def test_variable_round_trip(self, column, request):
        values, _ = column
        capsule = Capsule.pack_variable(values, codec=request)
        _check_form(capsule, b"\x00".join(v.encode() for v in values), request)
        assert capsule.values() == values

    @_FORM_SETTINGS
    @given(
        regions=st.lists(_columns(), min_size=1, max_size=3),
        request=st.sampled_from(list(CodecRequest)),
    )
    def test_region_round_trip(self, regions, request):
        widths = [width for _, width in regions]
        capsule = Capsule.pack_regions(
            [values for values, _ in regions], widths, codec=request
        )
        buf = b"".join(_padded(values, width) for values, width in regions)
        _check_form(capsule, buf, request)
        cells = capsule.region_cells([(len(v), w) for v, w in regions])
        assert [c.rstrip(b"\x00").decode() for c in cells] == [
            value for values, _ in regions for value in values
        ]

    @pytest.mark.parametrize(
        "values, form",
        [
            (["1234", "5", ""] * 11, FORM_DIGITS),  # 132 B, NUL pads
            (["12345"] * 7, FORM_DIGITS | FORM_ODD),  # 35 B
            (["deadbeef"] * 4, FORM_HEX),
            (["deadbeef1"] * 5, FORM_HEX | FORM_ODD),  # 45 B
            (["DEADBEEF"] * 4, FORM_HEX_UPPER),
            (["DEADBEEF1"] * 5, FORM_HEX_UPPER | FORM_ODD),
        ],
    )
    def test_each_alphabet_and_parity(self, values, form):
        capsule = Capsule.pack_fixed(values)
        assert capsule.form == form
        assert capsule.values() == values
        assert capsule.compressed_bytes <= (len(capsule.plain()) + 1) // 2

    @pytest.mark.parametrize(
        "values",
        [
            ["a1B2c3D4"] * 8,  # mixed-case hex
            ["abc12", "de3"] * 8,  # lowercase hex with NUL pads
            ["ABC12", "DE3"] * 8,  # uppercase hex with NUL pads
            ["1"] * 31,  # 31 B of digits: under RAW_BELOW
            ["12:34:56"] * 8,  # a character outside every alphabet
        ],
    )
    def test_other_buffers_stay_ascii(self, values):
        capsule = Capsule.pack_fixed(values)
        assert capsule.form == FORM_ASCII
        assert capsule.values() == values

    def test_form_takes_part_in_equality(self):
        buf = b"12" * 20
        ascii_capsule = Capsule(
            LAYOUT_FIXED, 2, 20, CapsuleStamp(chartypes.DIGIT, 2), CODEC_RAW, 1, buf
        )
        packed = Capsule.pack_fixed(["12"] * 20)
        assert packed.form == FORM_DIGITS and packed.plain() == buf
        assert packed != ascii_capsule

    def test_codec_usage_counts_packed_capsules(self):
        digits = Capsule.pack_fixed([f"{i:05d}" for i in range(100)])
        text = Capsule.pack_fixed(["state:ok"] * 100)
        group = GroupBox(
            Template(0, [None, None]), list(range(100)),
            [PlainEncodedVector(digits, 100), PlainEncodedVector(text, 100)],
        )
        usage = CapsuleBox(0, 0, 100, True, [group]).codec_usage()
        assert sum(row["capsules"] for row in usage.values()) == 2
        assert usage[CODEC_NAMES[digits.codec]]["packed"] == 1
        assert sum(row["packed"] for row in usage.values()) == 1

    @pytest.mark.parametrize("form", sorted(set(range(16)) - FORMS))
    def test_unknown_form_rejected_at_box_open(self, form):
        capsule = Capsule.pack_fixed([f"{i:04d}" for i in range(100)])
        capsule.form = form
        data = CapsuleBox(
            0, 0, 100, True,
            [GroupBox(Template(0, [None]), list(range(100)),
                      [PlainEncodedVector(capsule, 100)])],
        ).serialize()
        with pytest.raises(FormatError, match="form"):
            CapsuleBox.deserialize(data)


#: One block written and serialized by the code before forms existed:
#: every Capsule, digit and hex columns included, is one character per
#: byte.  Its container is LGCB v2, which no reader accepts any more.
GOLDEN_BOX = Path(__file__).parent / "golden" / "box_v2_before_forms.lgcb"

#: The same lines as an LGCB v3 box: a group-id column and a Capsule
#: table, with packed digit and hex Capsules, but no directory, so no
#: reader accepts it any more.
GOLDEN_V3_BOX = Path(__file__).parent / "golden" / "box_v3.lgcb"

#: The same lines as an LGCB v4 box: the v3 sections plus one template
#: text and a directory of the vector records.
GOLDEN_V4_BOX = Path(__file__).parent / "golden" / "box_v4.lgcb"


def _before_forms_lines():
    lines = []
    for i in range(200):
        if i % 9 == 0:
            lines.append(
                f"ERROR write to file: /var/log/app{i % 5}.log failed code={i % 7}"
            )
        else:
            lines.append(
                f"2024-01-{1 + i % 28:02d} 10:{i % 60:02d}:{(i * 7) % 60:02d} "
                f"INFO req={i * 7919 % 100000} blk_{(i * 2654435761) % 10**10} "
                f"id={(i * 40503) & 0xFFFFFF:06x} TX={(i * 977) & 0xFFFF:04X}"
            )
    return lines


class TestBoxWrittenBeforeForms:
    def test_v2_box_raises_naming_version_2(self):
        with pytest.raises(FormatError) as info:
            CapsuleBox.deserialize(GOLDEN_BOX.read_bytes())
        assert "version 2" in str(info.value)


class TestGoldenV3Box:
    def test_v3_box_raises_naming_version_3(self):
        with pytest.raises(FormatError) as info:
            CapsuleBox.deserialize(GOLDEN_V3_BOX.read_bytes())
        assert "version 3" in str(info.value)


class TestGoldenV4Box:
    def test_decodes_to_its_lines(self):
        box = CapsuleBox.deserialize(GOLDEN_V4_BOX.read_bytes())
        assert len(list(box.capsules())) > 5
        assert box.verify() == []
        reconstructor = BlockReconstructor(box, LogGrepConfig().query_settings())
        entries = reconstructor.reconstruct(
            {i: RowSet.full(group.num_entries) for i, group in enumerate(box.groups)}
        )
        assert [text for _, text in entries] == _before_forms_lines()

    def test_reserializes_byte_for_byte(self):
        data = GOLDEN_V4_BOX.read_bytes()
        assert CapsuleBox.deserialize(data).serialize() == data
