"""Tests for the runtime-pattern model (§2.3, §4.1)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.capsule.assembler import RealEncodedVector
from repro.capsule.box import CapsuleBox, GroupBox
from repro.runtime.pattern import (
    Const,
    RuntimePattern,
    SubVar,
    pattern_from_fragments,
)
from repro.staticparse.template import Template


class TestNormalization:
    def test_adjacent_constants_merge(self):
        p = RuntimePattern([Const("a"), Const("b"), SubVar(0)])
        assert p.display() == "ab<*>"
        assert len(p.elements) == 2

    def test_empty_constants_dropped(self):
        p = RuntimePattern([Const(""), SubVar(0), Const("")])
        assert p.display() == "<*>"

    def test_subvars_renumbered(self):
        p = RuntimePattern([SubVar(7), Const("-"), SubVar(3)])
        indices = [el.index for el in p.elements if isinstance(el, SubVar)]
        assert indices == [0, 1]


class TestProperties:
    def test_trivial(self):
        assert RuntimePattern([SubVar(0)]).is_trivial
        assert not RuntimePattern([Const("x"), SubVar(0)]).is_trivial

    def test_constant_pattern(self):
        p = RuntimePattern([Const("block")])
        assert p.is_constant
        assert p.num_subvars == 0
        assert p.constant_text() == "block"

    def test_display_paper_example(self):
        p = pattern_from_fragments(["block_", None, "F8", None])
        assert p.display() == "block_<*>F8<*>"


class TestMatch:
    def setup_method(self):
        # Fig 4's extracted pattern.
        self.p = pattern_from_fragments(["block_", None, "F8", None])

    def test_match_paper_values(self):
        assert self.p.match("block_1F81F") == ["1", "1F"]
        assert self.p.match("block_8F8F8FE") == ["8", "F8FE"]
        assert self.p.match("block_2F8E") == ["2", "E"]

    def test_outlier_rejected(self):
        assert self.p.match("Failed") is None

    def test_prefix_anchor(self):
        assert self.p.match("xblock_1F8Y") is None

    def test_leading_subvar(self):
        p = pattern_from_fragments([None, "#16", None])
        assert p.match("SUC#1604") == ["SUC", "04"]
        assert p.match("#16") == ["", ""]

    def test_trailing_constant_anchor(self):
        p = pattern_from_fragments(["T", None, ".log"])
        assert p.match("T99.log") == ["99"]
        assert p.match("T99.logx") is None

    def test_constant_only_pattern(self):
        p = RuntimePattern([Const("read")])
        assert p.match("read") == []
        assert p.match("reads") is None

    def test_empty_pattern_matches_empty(self):
        p = RuntimePattern([])
        assert p.match("") == []
        assert p.match("x") is None

    def test_render_inverse(self):
        assert self.p.render(["1", "1F"]) == "block_1F81F"

    @given(
        st.text(alphabet="0123456789ABCDEF", max_size=6),
        st.text(alphabet="0123456789ABCDEF", max_size=6),
    )
    def test_match_render_roundtrip(self, a, b):
        """render(match(v)) == v whenever match succeeds."""
        value = f"block_{a}F8{b}"
        parts = self.p.match(value)
        assert parts is not None
        assert self.p.render(parts) == value

    @given(st.text(alphabet="abF8_#.0123456789", max_size=20))
    def test_match_never_lies(self, value):
        """Whatever match returns must reproduce the input exactly."""
        parts = self.p.match(value)
        if parts is not None:
            assert self.p.render(parts) == value


class TestSerialization:
    @pytest.mark.parametrize(
        "fragments",
        [
            ["block_", None, "F8", None],
            [None],
            ["just-const"],
            [None, ":", None, ":", None, ".", None],
        ],
    )
    def test_roundtrip(self, fragments):
        p = pattern_from_fragments(fragments)
        vector = RealEncodedVector(p, [], None, [], 0)
        box = CapsuleBox(0, 0, 0, True, [GroupBox(Template(0, [None]), [], [vector])])
        q = CapsuleBox.deserialize(box.serialize()).groups[0].vectors[0].pattern
        assert p == q
        assert p.display() == q.display()

    def test_equality_and_hash(self):
        a = pattern_from_fragments(["x", None])
        b = pattern_from_fragments(["x", None])
        assert a == b
        assert hash(a) == hash(b)
