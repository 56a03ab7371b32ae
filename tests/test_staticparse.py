"""Tests for templates, the miner and the block parser (static patterns)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.staticparse import (
    BlockParser,
    Template,
    TemplateMatcher,
    TemplateMiner,
    VAR_MARK,
    mine_templates,
)


class TestTemplate:
    def test_display(self):
        t = Template(0, ["write", "to", None])
        assert t.display() == f"write to {VAR_MARK}"

    def test_matches(self):
        t = Template(0, ["a", None, "c"])
        assert t.matches(["a", "x", "c"])
        assert not t.matches(["a", "x", "d"])
        assert not t.matches(["a", "x"])

    def test_extract_render_roundtrip(self):
        t = Template(0, ["a", None, "c", None])
        tokens = ["a", "V1", "c", "V2"]
        values = t.extract(tokens)
        assert values == ["V1", "V2"]
        assert t.render(values) == "a V1 c V2"

    def test_render_wrong_arity(self):
        t = Template(0, ["a", None])
        with pytest.raises(ValueError):
            t.render([])

    def test_match_score(self):
        # The score itself is gone; its rule lives in TemplateMatcher.
        loose = Template(0, ["a", None, None])
        t = Template(1, ["a", None, "c"])
        matcher = TemplateMatcher([loose, t])
        assert matcher.match(["a", "x", "c"]) is t  # most constants wins
        assert matcher.match(["a", "x", "d"]) is loose
        assert matcher.match(["b", "x", "c"]) is None

    def test_all_variable_template(self):
        t = Template(0, [None, None])
        assert t.num_variables == 2
        assert t.matches(["anything", "goes"])


class TestMiner:
    def test_merges_digit_variants(self):
        miner = TemplateMiner()
        miner.observe(["job", "42", "done"])
        miner.observe(["job", "43", "done"])
        templates = miner.templates()
        assert len(templates) == 1
        assert templates[0].tokens == ["job", None, "done"]

    def test_keeps_distinct_shapes_apart(self):
        miner = TemplateMiner()
        miner.observe(["connect", "from", "10.0.0.1"])
        miner.observe(["disk", "full", "warning"])
        assert len(miner.templates()) == 2

    def test_token_count_buckets(self):
        miner = TemplateMiner()
        miner.observe(["a", "b"])
        miner.observe(["a", "b", "c"])
        assert len(miner.templates()) == 2

    def test_similarity_threshold_validation(self):
        with pytest.raises(ValueError):
            TemplateMiner(similarity=0.0)

    def test_mine_templates_samples(self):
        lines = [f"req {i} ok" for i in range(500)]
        templates = mine_templates(lines, sample_rate=0.05, seed=1)
        assert len(templates) == 1
        assert templates[0].tokens == ["req", None, "ok"]


class TestBlockParser:
    def test_groups_and_vectors(self, mixed_lines):
        parsed = BlockParser().parse(mixed_lines)
        assert sum(g.num_entries for g in parsed.groups) == len(mixed_lines)
        for group in parsed.groups:
            for vector in group.variable_vectors:
                assert len(vector) == group.num_entries

    def test_exact_reconstruction(self, mixed_lines):
        parsed = BlockParser().parse(mixed_lines)
        rebuilt = {}
        for group in parsed.groups:
            for row, line_id in enumerate(group.line_ids):
                rebuilt[line_id] = group.render_entry(row)
        assert [rebuilt[i] for i in range(len(mixed_lines))] == mixed_lines

    def test_line_ids_increasing_within_group(self, mixed_lines):
        parsed = BlockParser().parse(mixed_lines)
        for group in parsed.groups:
            assert group.line_ids == sorted(group.line_ids)

    def test_unsampled_shapes_still_parsed(self):
        # One exotic line that a 5% sample will likely miss.
        lines = [f"metric {i} recorded" for i in range(400)]
        lines.append("PANIC unexpected shutdown in module 7 now")
        parsed = BlockParser(sample_rate=0.05, seed=0).parse(lines)
        assert sum(g.num_entries for g in parsed.groups) == len(lines)

    def test_empty_block(self):
        parsed = BlockParser().parse([])
        assert parsed.groups == []
        assert parsed.num_lines == 0

    def test_empty_lines_parse(self):
        parsed = BlockParser().parse(["", "", "x y"])
        assert sum(g.num_entries for g in parsed.groups) == 3

    def test_deterministic(self, mixed_lines):
        a = BlockParser(seed=5).parse(mixed_lines)
        b = BlockParser(seed=5).parse(mixed_lines)
        assert [g.template.tokens for g in a.groups] == [
            g.template.tokens for g in b.groups
        ]

    @settings(max_examples=25)
    @given(
        st.lists(
            st.sampled_from(
                ["put 1 ok", "put 2 ok", "get 9 miss", "node down", "node up"]
            ),
            max_size=40,
        )
    )
    def test_reconstruction_property(self, lines):
        parsed = BlockParser().parse(lines)
        rebuilt = {}
        for group in parsed.groups:
            for row, line_id in enumerate(group.line_ids):
                rebuilt[line_id] = group.render_entry(row)
        assert [rebuilt[i] for i in range(len(lines))] == lines

    def test_group_for(self, mixed_lines):
        parsed = BlockParser().parse(mixed_lines)
        first = parsed.groups[0]
        assert parsed.group_for(first.template.template_id) is first
        with pytest.raises(KeyError):
            parsed.group_for(999999)
