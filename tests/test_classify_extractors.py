"""Tests for vector classification and both pattern extractors (§4.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.classify import (
    DEFAULT_DUPLICATION_THRESHOLD,
    VectorKind,
    classify,
    classify_with_rate,
    duplication_rate,
)
from repro.runtime.merge import extract_nominal, sketch_of
from repro.runtime.treeexpand import TreeExpandConfig, extract_real_pattern


class TestClassification:
    def test_duplication_rate(self):
        assert duplication_rate(["a", "b", "c"]) == 0.0
        assert duplication_rate(["a", "a", "a", "a"]) == 0.75
        assert duplication_rate([]) == 0.0

    def test_threshold(self):
        unique = [str(i) for i in range(100)]
        repeated = ["x"] * 80 + [str(i) for i in range(20)]
        assert classify(unique) is VectorKind.REAL
        assert classify(repeated) is VectorKind.NOMINAL

    def test_classify_with_rate(self):
        kind, rate = classify_with_rate(["a", "a", "b"])
        assert kind is VectorKind.REAL  # 1/3 duplication is below 0.5
        assert rate == pytest.approx(1 / 3)

    def test_custom_threshold(self):
        values = ["x"] * 4 + ["y", "z"]  # rate = 0.5
        assert classify(values, threshold=0.6) is VectorKind.REAL
        assert classify(values, threshold=0.5) is VectorKind.NOMINAL
        assert DEFAULT_DUPLICATION_THRESHOLD == 0.5


class TestTreeExpand:
    def test_paper_figure4(self):
        values = [f"block_{i:X}F8{(i * 7) % 251:X}" for i in range(300)]
        pattern = extract_real_pattern(values, TreeExpandConfig(seed=1))
        assert pattern.display() == "block_<*>F8<*>"

    def test_delimiter_splitting(self):
        values = [f"/tmp/1FF8{i:04X}.log" for i in range(300)]
        pattern = extract_real_pattern(values)
        # All values share the root; the extractor must find real structure.
        assert not pattern.is_trivial
        assert all(pattern.match(v) is not None for v in values)

    def test_uniform_vector_becomes_constant(self):
        pattern = extract_real_pattern(["same"] * 100)
        assert pattern.is_constant
        assert pattern.match("same") == []

    def test_empty_vector(self):
        assert extract_real_pattern([]).is_trivial

    def test_patternless_vector_degrades_to_trivial(self):
        import random

        rng = random.Random(0)
        alphabet = "abcdefghijklmnopqrstuvwxyz"
        values = [
            "".join(rng.choice(alphabet) for _ in range(rng.randrange(3, 12)))
            for _ in range(200)
        ]
        pattern = extract_real_pattern(values)
        # No shared delimiters or infixes: at worst a bare sub-variable.
        assert pattern.num_subvars <= 2

    def test_coverage_eviction(self):
        # 96% of values share "_" — enough for the 95% rule; the rest
        # become extraction outliers but the pattern must still be found.
        values = [f"k_{i}" for i in range(96)] + ["odd1", "odd2", "odd3", "zz9"]
        pattern = extract_real_pattern(values, TreeExpandConfig(sample_rate=1.0))
        assert "_" in pattern.display()

    def test_deterministic(self):
        values = [f"u{i}-{i * 3}" for i in range(200)]
        a = extract_real_pattern(values, TreeExpandConfig(seed=9))
        b = extract_real_pattern(values, TreeExpandConfig(seed=9))
        assert a == b

    @settings(max_examples=20)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_extracted_pattern_is_sound(self, offset):
        """Values the pattern matches must round-trip exactly."""
        values = [f"req:{offset + i}/{i % 7}" for i in range(120)]
        pattern = extract_real_pattern(values)
        for value in values:
            parts = pattern.match(value)
            if parts is not None:
                assert pattern.render(parts) == value


class TestSketch:
    def test_paper_example(self):
        key, fragments = sketch_of("ERR#404")
        assert key == (None, "#", None)
        assert fragments == ["ERR", "404"]

    def test_plain_word(self):
        assert sketch_of("SUCC") == ((None,), ["SUCC"])

    def test_leading_trailing_delimiters(self):
        key, fragments = sketch_of("/a/b/")
        assert key == ("/", None, "/", None, "/")
        assert fragments == ["a", "b"]

    def test_multi_char_delimiter_run(self):
        key, fragments = sketch_of("a--b")
        assert key == (None, "--", None)

    def test_empty(self):
        assert sketch_of("") == ((), [])


class TestExtractNominal:
    def test_paper_figure5(self):
        values = ["ERR#404", "SUCC", "ERR#501", "SUCC", "ERR#404"]
        enc = extract_nominal(values)
        displays = sorted(p.pattern.display() for p in enc.patterns)
        assert displays == ["ERR#<*>", "SUCC"]
        # Values reconstruct exactly through dictionary + index.
        assert [enc.value_at(i) for i in range(len(values))] == values

    def test_constant_folding(self):
        # All values share "ERR" in slot 1 → folded into the constant.
        enc = extract_nominal(["ERR#1", "ERR#2", "ERR#3"])
        assert enc.patterns[0].pattern.display() == "ERR#<*>"

    def test_same_sketch_values_stored_sequentially(self):
        values = ["a#1", "plain", "a#2", "other", "a#3"]
        enc = extract_nominal(values)
        slot = 0
        for dp in enc.patterns:
            region = enc.dict_values[slot : slot + dp.count]
            for value in region:
                assert dp.pattern.match(value) is not None
            slot += dp.count

    def test_index_width(self):
        enc = extract_nominal([f"w{i}" for i in range(12)])
        assert enc.index_width == 2

    def test_counts_and_widths(self):
        enc = extract_nominal(["ERR#404", "ERR#501", "SUCC"])
        by_display = {p.pattern.display(): p for p in enc.patterns}
        assert by_display["ERR#<*>"].count == 2
        assert by_display["ERR#<*>"].width == 7
        assert by_display["SUCC"].count == 1
        assert by_display["SUCC"].width == 4

    def test_subvar_stamps(self):
        enc = extract_nominal(["ERR#404", "ERR#5011"])
        dp = enc.patterns[0]
        assert dp.subvar_masks == [1]  # digits only
        assert dp.subvar_maxlens == [4]

    def test_pattern_region(self):
        enc = extract_nominal(["a#1", "b!2", "a#3"])
        total = sum(p.count for p in enc.patterns)
        assert total == len(enc.dict_values) == 3

    @given(
        st.lists(
            st.sampled_from(
                ["ok", "ERR#1", "ERR#23", "a/b", "a/c", "x-1-2", "", "404"]
            ),
            max_size=60,
        )
    )
    def test_reconstruction_property(self, values):
        enc = extract_nominal(values)
        assert [enc.value_at(i) for i in range(len(values))] == values
        assert len(enc.dict_values) == len(set(values))

    def test_empty_input(self):
        enc = extract_nominal([])
        assert enc.dict_values == []
        assert enc.index == []
