"""Unit + property tests for the tree-expanding string helpers (§4.1)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.common import textalgo


small_text = st.text(alphabet="ab01F#", max_size=60)


class TestLCS:
    def test_paper_example(self):
        # Fig 4: "F8" is the common infix of the hex fragments.
        assert textalgo.longest_common_substring("1F81F", "8F8F8FE") == "F8"

    def test_identical(self):
        assert textalgo.longest_common_substring("abc", "abc") == "abc"

    def test_disjoint(self):
        assert textalgo.longest_common_substring("abc", "xyz") == ""

    def test_empty(self):
        assert textalgo.longest_common_substring("", "abc") == ""
        assert textalgo.longest_common_substring("abc", "") == ""

    @given(small_text, small_text)
    def test_result_is_common_substring(self, a, b):
        lcs = textalgo.longest_common_substring(a, b)
        assert lcs in a and lcs in b

    @given(small_text, small_text)
    def test_symmetric_length(self, a, b):
        assert len(textalgo.longest_common_substring(a, b)) == len(
            textalgo.longest_common_substring(b, a)
        )


class TestSplitFirst:
    def test_found(self):
        assert textalgo.split_first("block_1F8", "_") == ("block", "1F8")

    def test_multi_char_delimiter(self):
        assert textalgo.split_first("1F81F", "F8") == ("1", "1F")

    def test_missing(self):
        assert textalgo.split_first("abc", "_") is None

    def test_at_edges(self):
        assert textalgo.split_first("_x", "_") == ("", "x")
        assert textalgo.split_first("x_", "_") == ("x", "")
