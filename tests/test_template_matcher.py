"""Differential tests for template assignment.

The rule ``TemplateMatcher`` compiles used to be a Python loop — score
every same-width template (constants that agree, -1 on a mismatch), keep
the first maximum.  That loop, and the two parse bodies built on it, are
kept *here* as the reference; the matcher, ``BlockParser.parse`` /
``parse_cached`` and the streaming tail must agree with them line for
line.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.sampling import sample
from repro.common.tokenizer import tokenize
from repro.core.config import LogGrepConfig
from repro.core.streaming import StreamingCompressor
from repro.staticparse import (
    BlockParser,
    Template,
    TemplateCache,
    TemplateMatcher,
    template_key,
)
from repro.workloads import spec_by_name


# ----------------------------------------------------------------------
# the reference: the loops this repo ran before the matcher existed
# ----------------------------------------------------------------------
def ref_score(template: Template, tokens: Sequence[str]) -> int:
    if not template.matches(tokens):
        return -1
    return sum(1 for tok in template.tokens if tok is not None)


def ref_match(templates: Sequence[Template], tokens: Sequence[str]):
    best, best_score = None, -1
    for template in templates:
        if template.num_tokens != len(tokens):
            continue
        score = ref_score(template, tokens)
        if score > best_score:
            best, best_score = template, score
    return best


GroupTriple = Tuple[List[Optional[str]], List[int], List[List[str]]]


def _second_pass(parser, templates, token_lines, assignments, unmatched):
    extra_miner = parser._make_miner()
    for line_id in unmatched:
        extra_miner.observe(token_lines[line_id])
    templates.extend(extra_miner.templates(first_id=len(templates)))
    still = []
    for line_id in unmatched:
        template = ref_match(templates, token_lines[line_id])
        if template is None:
            still.append(line_id)
        else:
            assignments[line_id] = template.template_id
    for line_id in still:
        catch_all = Template(len(templates), [None] * len(token_lines[line_id]))
        templates.append(catch_all)
        assignments[line_id] = catch_all.template_id


def _first_pass(templates, token_lines):
    assignments = [-1] * len(token_lines)
    unmatched = []
    for line_id, tokens in enumerate(token_lines):
        template = ref_match(templates, tokens)
        if template is None:
            unmatched.append(line_id)
        else:
            assignments[line_id] = template.template_id
    return assignments, unmatched


def _triples(templates, token_lines, assignments, by_template_id: bool):
    groups: Dict[int, GroupTriple] = {}
    for line_id, tokens in enumerate(token_lines):
        template = templates[assignments[line_id]]
        triple = groups.get(template.template_id)
        if triple is None:
            triple = (list(template.tokens), [], [[] for _ in template.var_positions])
            groups[template.template_id] = triple
        triple[1].append(line_id)
        for vector, value in zip(triple[2], template.extract(tokens)):
            vector.append(value)
    order = sorted(groups) if by_template_id else list(groups)
    return [groups[tid] for tid in order]


def ref_parse(parser: BlockParser, lines: Sequence[str]) -> List[GroupTriple]:
    token_lines = [tokenize(line) for line in lines]
    miner = parser._make_miner()
    for tokens in sample(token_lines, parser.sample_rate, parser.seed):
        miner.observe(tokens)
    templates = miner.templates()
    assignments, unmatched = _first_pass(templates, token_lines)
    if unmatched:
        _second_pass(parser, templates, token_lines, assignments, unmatched)
    return _triples(templates, token_lines, assignments, by_template_id=True)


def ref_parse_cached(parser, lines, cache: TemplateCache, drift_threshold):
    """Returns ``(groups, (hits, misses, remined, added))``; merges into
    *cache* exactly as ``parse_cached`` did."""
    token_lines = [tokenize(line) for line in lines]
    templates = [Template(i, list(key)) for i, key in enumerate(cache.snapshot())]
    cached = len(templates)
    assignments, unmatched = _first_pass(templates, token_lines)
    hits = len(token_lines) - len(unmatched)
    if token_lines and len(unmatched) / len(token_lines) > drift_threshold:
        groups = ref_parse(parser, lines)
        added = cache.merge(tuple(tokens) for tokens, _, _ in groups)
        return groups, (0, len(token_lines), True, added)
    if unmatched:
        _second_pass(parser, templates, token_lines, assignments, unmatched)
    added = cache.merge(template_key(t) for t in templates[cached:])
    groups = _triples(templates, token_lines, assignments, by_template_id=False)
    return groups, (hits, len(unmatched), False, added)


def triples_of(groups) -> List[GroupTriple]:
    return [
        (list(g.template.tokens), list(g.line_ids), [list(v) for v in g.variable_vectors])
        for g in groups
    ]


# ----------------------------------------------------------------------
# the matcher against the old rule
# ----------------------------------------------------------------------
# A tiny alphabet makes ties, duplicates and near-misses the common case;
# "" is what a run of spaces tokenises to.
TOKENS = st.sampled_from(["a", "b", "c", "", "é", "日志", "a "])
SLOTS = st.one_of(st.none(), TOKENS)
TEMPLATE_TOKENS = st.lists(SLOTS, min_size=0, max_size=4)
LINES = st.lists(st.lists(TOKENS, min_size=0, max_size=5), max_size=30)


def _templates(token_lists) -> List[Template]:
    return [Template(i, list(tokens)) for i, tokens in enumerate(token_lists)]


class TestMatcherEqualsReference:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(TEMPLATE_TOKENS, max_size=12), LINES)
    def test_random_sets(self, token_lists, lines):
        templates = _templates(token_lists)
        matcher = TemplateMatcher(templates)
        for tokens in lines:
            assert matcher.match(tokens) is ref_match(templates, tokens)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(TEMPLATE_TOKENS, max_size=8),
        st.lists(TEMPLATE_TOKENS, min_size=1, max_size=8),
        LINES,
    )
    def test_add_after_matches_served(self, first, later, lines):
        """Second-pass extras and catch-alls arrive after the matcher has
        already answered: they queue behind equally specific templates."""
        templates = _templates(first)
        matcher = TemplateMatcher(templates)
        for tokens in lines:
            assert matcher.match(tokens) is ref_match(templates, tokens)
        for tokens in later:
            template = Template(len(templates), list(tokens))
            templates.append(template)
            matcher.add(template)
            for line in lines:
                assert matcher.match(line) is ref_match(templates, line)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(TOKENS, min_size=1, max_size=5), st.data())
    def test_line_derived_templates(self, tokens, data):
        """Templates cut from the line itself (every mask of its tokens)
        all match it; the winner is the first of the most specific."""
        masks = data.draw(
            st.lists(
                st.lists(st.booleans(), min_size=len(tokens), max_size=len(tokens)),
                min_size=1,
                max_size=8,
            )
        )
        templates = _templates(
            [[tok if keep else None for tok, keep in zip(tokens, mask)] for mask in masks]
        )
        winner = TemplateMatcher(templates).match(tokens)
        assert winner is ref_match(templates, tokens)
        assert winner is not None


class TestMatcherCases:
    def test_tie_goes_to_first_added(self):
        first = Template(0, ["a", None, "c"])
        second = Template(1, [None, "b", "c"])
        assert TemplateMatcher([first, second]).match(["a", "b", "c"]) is first
        assert TemplateMatcher([second, first]).match(["a", "b", "c"]) is second

    def test_duplicates_keep_the_first(self):
        first = Template(0, ["x", None])
        twin = Template(1, ["x", None])
        assert TemplateMatcher([first, twin]).match(["x", "1"]) is first

    def test_all_variable_sorts_last_and_matches_its_width(self):
        catch_all = Template(0, [None, None])
        specific = Template(1, ["a", None])
        matcher = TemplateMatcher([catch_all, specific])
        assert matcher.match(["a", "1"]) is specific
        assert matcher.match(["z", "1"]) is catch_all
        assert matcher.match(["z"]) is None

    def test_one_constant_is_compared_as_a_token(self):
        # itemgetter(i) yields the bare token: "ab" must not match ("a", "b")
        # nor a prefix of itself.
        matcher = TemplateMatcher([Template(0, [None, "ab"])])
        assert matcher.match(["x", "ab"]) is not None
        assert matcher.match(["x", "a"]) is None
        assert matcher.match(["x", "abc"]) is None

    def test_all_constant_and_zero_width(self):
        exact = Template(0, ["a", "b"])
        empty = Template(1, [])
        matcher = TemplateMatcher([exact, empty])
        assert matcher.match(["a", "b"]) is exact
        assert matcher.match(["a", "c"]) is None
        assert matcher.match([]) is empty

    def test_empty_string_tokens(self):
        # "a  b" tokenises to ["a", "", "b"]: "" is a constant like any other.
        spaced = Template(0, ["a", "", None])
        matcher = TemplateMatcher([spaced])
        assert matcher.match(tokenize("a  b")) is spaced
        assert matcher.match(tokenize("a x b")) is None

    def test_non_ascii_tokens(self):
        t = Template(0, ["错误", None, "é"])
        matcher = TemplateMatcher([t])
        assert matcher.match(["错误", "42", "é"]) is t
        assert matcher.match(["错误", "42", "e"]) is None

    def test_later_more_specific_template_overtakes(self):
        loose = Template(0, ["a", None, None])
        matcher = TemplateMatcher([loose])
        assert matcher.match(["a", "b", "c"]) is loose
        tight = Template(1, ["a", "b", None])
        matcher.add(tight)
        assert matcher.match(["a", "b", "c"]) is tight
        assert matcher.match(["a", "x", "c"]) is loose


# ----------------------------------------------------------------------
# one level up: whole-block parses against the parent's loops
# ----------------------------------------------------------------------
CORPORA = ["Log K", "Healthapp", "Log G"]


def _block(name: str, n: int = 600, seed: int = 0) -> List[str]:
    spec = dataclasses.replace(spec_by_name(name), size_factor=1.0, seed=seed)
    return spec.generate(n)


# ids name the miner family whose parse the reference above reproduces
@pytest.mark.parametrize("name", CORPORA, ids=[f"drain-{c}" for c in CORPORA])
class TestParserEqualsReference:
    def test_cold_parse(self, name):
        lines = _block(name)
        parser = BlockParser(seed=3)
        assert triples_of(parser.parse(lines).groups) == ref_parse(parser, lines)

    def test_parse_cached_cold_then_warm(self, name):
        parser = BlockParser(seed=5)
        cache, ref_cache = TemplateCache(), TemplateCache()
        warm_hits = 0
        # Block 0 finds the cache empty; its repeat is all hits; a block
        # from another seed mixes hits, misses and (some corpora) a re-mine.
        for seed in (0, 0, 1):
            lines = _block(name, seed=seed)
            parsed, outcome = parser.parse_cached(lines, cache, 0.3)
            expected, ref_outcome = ref_parse_cached(parser, lines, ref_cache, 0.3)
            assert triples_of(parsed.groups) == expected
            assert (
                outcome.cache_hits,
                outcome.cache_misses,
                outcome.remined,
                outcome.new_templates,
            ) == ref_outcome
            assert outcome.total_lines == len(lines)
            assert cache.snapshot() == ref_cache.snapshot()
            warm_hits += outcome.cache_hits
        # Healthapp lines are one or two tokens wide: its templates are
        # all-variable, never cached, and every block is re-mined.
        assert warm_hits >= len(lines) or name == "Healthapp"

    def test_parse_cached_without_drift_guard(self, name):
        """Threshold 1.0 never trips: an empty cache sends every line
        through the second pass instead of the sampled re-mine."""
        lines = _block(name, n=300)
        parser = BlockParser(seed=7)
        cache, ref_cache = TemplateCache(), TemplateCache()
        parsed, outcome = parser.parse_cached(lines, cache, 1.0)
        expected, ref_outcome = ref_parse_cached(parser, lines, ref_cache, 1.0)
        assert triples_of(parsed.groups) == expected
        assert (0, len(lines), False, outcome.new_templates) == ref_outcome
        assert cache.snapshot() == ref_cache.snapshot()

    def test_parse_cached_drift_tripped(self, name):
        """A warm cache from another log family: most lines miss, the
        guard trips and the block is re-mined from its own tokens."""
        other = next(c for c in CORPORA if c != name)
        parser = BlockParser(seed=9)
        cache, ref_cache = TemplateCache(), TemplateCache()
        parser.parse_cached(_block(other), cache, 0.3)
        ref_parse_cached(parser, _block(other), ref_cache, 0.3)
        lines = _block(name)
        parsed, outcome = parser.parse_cached(lines, cache, 0.3)
        expected, ref_outcome = ref_parse_cached(parser, lines, ref_cache, 0.3)
        assert outcome.remined and ref_outcome[2]
        assert triples_of(parsed.groups) == expected
        assert cache.snapshot() == ref_cache.snapshot()


def test_unsampled_shapes_match_reference():
    """Rare shapes the 5% sample misses are mined by the second pass."""
    lines = [f"req {i} ok" for i in range(400)]
    lines[17] = "a lone   spaced line"
    lines[250] = "another lone line here now"
    lines[251] = "another lone line here too"
    parser = BlockParser(seed=1)
    assert triples_of(parser.parse(lines).groups) == ref_parse(parser, lines)


class _BlindMiner:
    """Mines nothing, so every line falls through to a catch-all."""

    def observe(self, tokens):
        pass

    def templates(self, first_id=0):
        return []


def test_catch_alls_match_reference(monkeypatch):
    """The shipped miner covers every line it observed; a miner that
    does not leaves the last resort: one all-variable template per line."""
    monkeypatch.setattr(BlockParser, "_make_miner", lambda self: _BlindMiner())
    lines = ["a b", "c d", "e", "f g"]
    parser = BlockParser()
    expected = ref_parse(parser, lines)
    assert [ids for _, ids, _ in expected] == [[0], [1], [2], [3]]
    assert triples_of(parser.parse(lines).groups) == expected
    cache, ref_cache = TemplateCache(), TemplateCache()
    cache.merge([("a", None)])
    ref_cache.merge([("a", None)])
    parsed, outcome = parser.parse_cached(lines, cache, 1.0)
    expected, ref_outcome = ref_parse_cached(parser, lines, ref_cache, 1.0)
    assert triples_of(parsed.groups) == expected
    assert (outcome.cache_hits, outcome.cache_misses, False, 0) == ref_outcome
    assert cache.snapshot() == ref_cache.snapshot() == [("a", None)]


# ----------------------------------------------------------------------
# the streaming tail assigns like the batch parser
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["Log K", "Log G"])
def test_tail_assignment_equals_batch_rule(name):
    lines = _block(name, n=500)
    config = LogGrepConfig(block_bytes=16 * 1024, compress_parallelism=1)
    with StreamingCompressor(config=config) as stream:
        stream.extend(lines)
        assert stream.blocks or stream.backlog  # at least one seal: matcher is warm
        snap = stream.tail_snapshot()
        buffer_lines = list(stream._lines)
        cached = [
            Template(i, list(key))
            for i, key in enumerate(stream._scheduler.template_cache.snapshot())
        ]
        assert snap.segments is not None and buffer_lines
        segment = snap.segments[-1]

        expected: Dict[int, GroupTriple] = {}
        residual = []
        for local_id, line in enumerate(buffer_lines):
            tokens = tokenize(line)
            template = ref_match(cached, tokens)
            if template is None:
                residual.append((local_id, line))
                continue
            triple = expected.setdefault(
                template.template_id,
                (list(template.tokens), [], [[] for _ in template.var_positions]),
            )
            triple[1].append(local_id)
            for vector, value in zip(triple[2], template.extract(tokens)):
                vector.append(value)
        got = triples_of(segment.groups)
        assert got == list(expected.values())
        assert segment.residual == residual
        assert segment.num_lines == len(buffer_lines)
        assert got  # the warm matcher assigned something
