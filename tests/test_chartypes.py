"""Unit tests for the six-bit character-class masks (§2.2, §4.3)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.common import chartypes as ct


class TestCharClass:
    def test_digits(self):
        for ch in "0123456789":
            assert ct.char_class(ch) == ct.DIGIT

    def test_hex_lower(self):
        for ch in "abcdef":
            assert ct.char_class(ch) == ct.HEX_LOWER

    def test_hex_upper(self):
        for ch in "ABCDEF":
            assert ct.char_class(ch) == ct.HEX_UPPER

    def test_alpha_lower(self):
        for ch in "ghijklmnopqrstuvwxyz":
            assert ct.char_class(ch) == ct.ALPHA_LOWER

    def test_alpha_upper(self):
        for ch in "GHIJKLMNOPQRSTUVWXYZ":
            assert ct.char_class(ch) == ct.ALPHA_UPPER

    def test_other(self):
        for ch in " .:/#_-[](){}!\t":
            assert ct.char_class(ch) == ct.OTHER

    def test_non_ascii_is_other(self):
        assert ct.char_class("日") == ct.OTHER
        assert ct.char_class("é") == ct.OTHER


class TestTypeMask:
    def test_empty_string(self):
        assert ct.type_mask("") == 0

    def test_paper_example_digits(self):
        # §4.3: a Capsule with only 0-9 has type number 000001b = 1.
        assert ct.type_mask("134") == 1

    def test_paper_example_hex(self):
        # §4.3: 0-9 plus A-F gives 000101b = 5.
        assert ct.type_mask("8F8F") == 5
        assert ct.type_mask("1F81F") == 5

    def test_mixed(self):
        assert ct.type_mask("bk.FF") == (
            ct.HEX_LOWER | ct.ALPHA_LOWER | ct.OTHER | ct.HEX_UPPER
        )

    def test_of_values(self):
        assert ct.type_mask_of_values(["12", "ab"]) == ct.DIGIT | ct.HEX_LOWER
        assert ct.type_mask_of_values([]) == 0


def reference_mask(text):
    """The per-character loop the whole-buffer pass replaced."""
    mask = 0
    for ch in text:
        mask |= ct.char_class(ch)
    return mask


#: Text drawn from each range the classifier treats differently: ASCII
#: (one byte, five classes + other), U+0080-U+00FF (inside the 256-entry
#: table), beyond the table, and four-byte code points.
any_text = st.one_of(
    st.text(alphabet="0189afAFgzGZ .:#", max_size=12),
    st.text(alphabet=st.characters(min_codepoint=0x80, max_codepoint=0xFF), max_size=6),
    st.text(alphabet=st.characters(min_codepoint=0x100, max_codepoint=0xFFFF,
                                   blacklist_categories=("Cs",)), max_size=6),
    st.text(alphabet=st.characters(min_codepoint=0x10000), max_size=4),
    st.text(max_size=12),
)


class TestAgainstPerCharacterReference:
    @given(any_text)
    def test_type_mask(self, text):
        assert ct.type_mask(text) == reference_mask(text)

    @given(st.lists(any_text, max_size=30))
    def test_type_mask_of_values(self, values):
        expected = 0
        for value in values:
            expected |= reference_mask(value)
        assert ct.type_mask_of_values(values) == expected
        assert ct.type_mask_of_values(iter(values)) == expected

    def test_every_code_point_class(self):
        for code in (*range(0x180), 0xFFFF, 0x10000, 0x1F600, 0x10FFFF):
            expected = ct.char_class(chr(code))
            assert ct.type_mask(chr(code) * 3) == expected
            if code >= 128:
                assert expected == ct.OTHER


class TestMaskSubsumes:
    def test_keyword_subset_passes(self):
        capsule = ct.type_mask("8F8F")  # digits + A-F
        assert ct.mask_subsumes(capsule, ct.type_mask("88"))
        assert ct.mask_subsumes(capsule, ct.type_mask("F8"))

    def test_keyword_with_extra_class_fails(self):
        capsule = ct.type_mask("12345")
        assert not ct.mask_subsumes(capsule, ct.type_mask("12a"))

    def test_empty_keyword_always_passes(self):
        assert ct.mask_subsumes(0, 0)
        assert ct.mask_subsumes(ct.ALL_CLASSES, 0)

    @given(st.text(max_size=20), st.text(max_size=20))
    def test_substring_always_admitted(self, prefix, suffix):
        """If k occurs inside v then mask(k) ⊆ mask(v) — the soundness of
        the stamp filter."""
        keyword = "xYz0"
        value = prefix + keyword + suffix
        assert ct.mask_subsumes(ct.type_mask(value), ct.type_mask(keyword))


class TestHelpers:
    def test_class_count(self):
        assert ct.class_count(0) == 0
        assert ct.class_count(ct.ALL_CLASSES) == 6
        assert ct.class_count(ct.type_mask("1a")) == 2

    def test_describe(self):
        assert ct.describe(0) == "empty"
        assert "0-9" in ct.describe(ct.DIGIT)
