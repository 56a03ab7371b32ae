"""Tests for vector encapsulation and CapsuleBox serialization (§4.2, Fig 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockstore.block import LogBlock
from repro.capsule import assembler
from repro.capsule.assembler import (
    EncodingOptions,
    NominalEncodedVector,
    PlainEncodedVector,
    RealEncodedVector,
    encode_plain,
    encode_vector,
)
from repro.capsule.box import CapsuleBox
from repro.capsule.stamp import CapsuleStamp
from repro.common import chartypes
from repro.core.compressor import compress_block
from repro.core.config import LogGrepConfig
from repro.core.reconstructor import BlockReconstructor
from repro.query.stats import QueryStats
from repro.query.vectors import QuerySettings, make_reader
from repro.runtime.classify import VectorKind
from repro.runtime.merge import extract_nominal
from tests.conftest import make_mixed_lines


def decode_all(encoded):
    """Reconstruct every value of an encoded vector via a reader."""
    reader = make_reader(encoded, QuerySettings(), QueryStats())
    return [reader.value_at(row) for row in range(encoded.num_rows)]


class TestEncodeReal:
    def test_structure(self):
        values = [f"block_{i:X}F8{(i * 3) % 97:X}" for i in range(300)]
        encoded = encode_vector(values, EncodingOptions(seed=1))
        assert isinstance(encoded, RealEncodedVector)
        assert encoded.pattern.num_subvars == len(encoded.subvar_capsules)
        assert decode_all(encoded) == values

    def test_outliers_preserved(self):
        values = [f"req_{i}" for i in range(190)] + [
            "WEIRD!", "also weird", *[f"req_{i}" for i in range(190, 200)]
        ]
        encoded = encode_vector(values, EncodingOptions(sample_rate=1.0))
        assert isinstance(encoded, RealEncodedVector)
        assert decode_all(encoded) == values

    def test_bad_pattern_falls_back_to_trivial(self):
        # First half and second half have incompatible shapes; a sample-
        # derived pattern can cover at most ~50%, triggering the fallback.
        values = [f"aa_{i}" for i in range(100)] + [f"{i}zz!{i}" for i in range(150)]
        encoded = encode_vector(values, EncodingOptions())
        assert decode_all(encoded) == values

    def test_unpadded_layout(self):
        values = [f"k_{i}" for i in range(200)]
        encoded = encode_vector(values, EncodingOptions(use_padding=False))
        assert decode_all(encoded) == values


class TestEncodeNominal:
    def test_structure(self):
        values = (["ERR#404"] * 40 + ["SUCC"] * 50 + ["ERR#501"] * 30)
        encoded = encode_vector(values, EncodingOptions())
        assert isinstance(encoded, NominalEncodedVector)
        assert encoded.dict_size == 3
        assert decode_all(encoded) == values

    def test_region_offsets(self):
        values = ["b!1"] * 10 + ["a#22"] * 10
        encoded = encode_vector(values, EncodingOptions())
        start_slots = [
            encoded.region_start_slot(i) for i in range(len(encoded.dict_patterns))
        ]
        assert start_slots[0] == 0
        byte = encoded.region_start_byte(len(encoded.dict_patterns) - 1)
        assert byte == sum(
            p.count * p.width for p in encoded.dict_patterns[:-1]
        )

    def test_unpadded_layout(self):
        values = ["x"] * 30 + ["yy"] * 30
        encoded = encode_vector(values, EncodingOptions(use_padding=False))
        assert decode_all(encoded) == values

    @pytest.mark.parametrize("padded", [True, False])
    def test_cheap_stamps_scan_no_capsule(self, monkeypatch, padded):
        # The extractor's own sub-variable masks (over the unique values)
        # are not Capsule stamps, so extraction runs before the patch.
        values = ["ERR#404"] * 40 + ["SUCC"] * 50 + ["ERR#501"] * 30
        encoding = extract_nominal(values)
        monkeypatch.setattr(assembler, "extract_nominal", lambda _: encoding)

        def no_scan(text):
            raise AssertionError("cheap_stamps scanned character classes")

        monkeypatch.setattr(chartypes, "type_mask", no_scan)
        encoded = encode_vector(
            values, EncodingOptions(cheap_stamps=True, use_padding=padded)
        )
        assert isinstance(encoded, NominalEncodedVector)
        assert encoded.dict_capsule.stamp == CapsuleStamp.permissive()
        assert encoded.index_capsule.stamp == CapsuleStamp.permissive()
        assert decode_all(encoded) == values

    @pytest.mark.parametrize("padded", [True, False])
    @pytest.mark.parametrize(
        "values", [[], ["only"] * 5, [f"v{i % 12}" for i in range(120)]]
    )
    def test_index_stamp_by_construction_equals_a_scan(self, values, padded):
        encoded = encode_vector(
            values, EncodingOptions(use_padding=padded), kind=VectorKind.NOMINAL
        )
        assert encoded.index_capsule.stamp == CapsuleStamp.of_values(
            encoded.index_capsule.values()
        )


class TestEncodePlain:
    def test_ablation_switches_force_plain(self):
        real_values = [str(i) for i in range(100)]
        nominal_values = ["a"] * 90 + ["b"] * 10
        assert isinstance(
            encode_vector(real_values, EncodingOptions(use_real_patterns=False)),
            PlainEncodedVector,
        )
        assert isinstance(
            encode_vector(nominal_values, EncodingOptions(use_nominal_patterns=False)),
            PlainEncodedVector,
        )

    def test_plain_roundtrip(self):
        values = ["alpha", "", "omega"] * 10
        assert decode_all(encode_plain(values)) == values


@st.composite
def value_vectors(draw):
    kind = draw(st.sampled_from(["real", "nominal", "mixed"]))
    if kind == "real":
        n = draw(st.integers(min_value=1, max_value=60))
        return [f"id_{i * 7}:{i % 5}" for i in range(n)]
    if kind == "nominal":
        return draw(
            st.lists(st.sampled_from(["OK", "ERR#1", "ERR#2", "a/b/c"]), min_size=1, max_size=60)
        )
    return draw(
        st.lists(
            st.text(alphabet="ab#_0123456789", max_size=10), min_size=1, max_size=50
        )
    )


class TestEncodeProperty:
    @settings(max_examples=40)
    @given(value_vectors(), st.booleans())
    def test_any_vector_roundtrips(self, values, padded):
        encoded = encode_vector(values, EncodingOptions(use_padding=padded))
        assert decode_all(encoded) == values


class TestCapsuleBox:
    def _box(self, lines, config=None):
        return compress_block(LogBlock(0, 0, lines), config or LogGrepConfig())

    def test_serialize_deserialize_roundtrip(self):
        lines = make_mixed_lines(300)
        box = self._box(lines)
        data = box.serialize()
        loaded = CapsuleBox.deserialize(data)
        assert loaded.num_lines == box.num_lines
        assert BlockReconstructor(loaded).all_lines() == lines

    def test_magic_checked(self):
        with pytest.raises(Exception):
            CapsuleBox.deserialize(b"NOPE" + b"\x00" * 32)

    def test_version_checked(self):
        lines = make_mixed_lines(50)
        data = bytearray(self._box(lines).serialize())
        data[4] = 99
        with pytest.raises(Exception):
            CapsuleBox.deserialize(bytes(data))

    def test_truncation_detected(self):
        lines = make_mixed_lines(50)
        data = self._box(lines).serialize()
        with pytest.raises(Exception):
            CapsuleBox.deserialize(data[: len(data) // 4])

    def test_stats(self):
        box = self._box(make_mixed_lines(200))
        assert box.capsule_count() > 0
        assert box.payload_bytes() > 0

    def test_deterministic_serialization(self):
        lines = make_mixed_lines(200)
        assert self._box(lines).serialize() == self._box(lines).serialize()

    def test_unpadded_box_roundtrip(self):
        from repro.core.config import ablated

        lines = make_mixed_lines(200)
        box = self._box(lines, ablated("w/o fixed"))
        loaded = CapsuleBox.deserialize(box.serialize())
        assert BlockReconstructor(loaded).all_lines() == lines
