"""Focused tests for query-engine internals: evaluation order, stats
merging, and anchored locator corner cases."""

from repro.capsule.stamp import CapsuleStamp
from repro.query.language import parse_query
from repro.query.locator import locate
from repro.query.modes import MatchMode
from repro.query.plan import PlannedDisjunct
from repro.query.stats import QueryStats
from repro.runtime.pattern import pattern_from_fragments


class TestEvaluationOrder:
    # Term ordering moved from the engine into the planner: the engine
    # now receives disjuncts with their terms already sorted.
    def test_most_selective_positive_first(self):
        command = parse_query("a AND longer-and-rarer-token AND bb")
        ordered = PlannedDisjunct.from_terms(command.disjuncts[0]).terms
        assert [t.search.text for t in ordered] == [
            "longer-and-rarer-token",
            "bb",
            "a",
        ]

    def test_negated_terms_last(self):
        command = parse_query("a NOT zzzzzzzzzz AND bb")
        ordered = PlannedDisjunct.from_terms(command.disjuncts[0]).terms
        assert [t.negated for t in ordered] == [False, False, True]

    def test_wildcards_ranked_by_literal(self):
        command = parse_query("ab*xy AND qqqqqqq")
        ordered = PlannedDisjunct.from_terms(command.disjuncts[0]).terms
        # "qqqqqqq" (7 literal chars) beats "ab*xy" (longest run 2).
        assert ordered[0].search.text == "qqqqqqq"


class TestStatsMerge:
    def test_merge_adds_all_fields(self):
        a = QueryStats(capsules_considered=1, capsules_decompressed=2, cache_hits=3)
        b = QueryStats(capsules_considered=10, blocks_pruned=4, entries_matched=5)
        a.merge(b)
        assert a.capsules_considered == 11
        assert a.capsules_decompressed == 2
        assert a.cache_hits == 3
        assert a.blocks_pruned == 4
        assert a.entries_matched == 5


class TestLocatorAnchoredCorners:
    def setup_method(self):
        # block_<sv>F8<sv> with realistic stamps.
        self.pattern = pattern_from_fragments(["block_", None, "F8", None])
        self.stamps = [CapsuleStamp(0b1, 1), CapsuleStamp(0b101, 4)]

    def test_prefix_through_constant(self):
        candidates = locate(self.pattern, self.stamps, "block_9F81", MatchMode.PREFIX)
        assert candidates
        # Must pin sv0 == "9" exactly and sv1 prefix "1".
        flat = {c for cand in candidates for c in cand}
        assert (0, "9", MatchMode.EXACT) in flat

    def test_prefix_longer_than_any_value_dies(self):
        # sv0 max len is 1, so "block_123F8" (sv0 = "123") is impossible.
        candidates = locate(self.pattern, self.stamps, "block_123F8", MatchMode.PREFIX)
        assert candidates == []

    def test_suffix_through_constant(self):
        candidates = locate(self.pattern, self.stamps, "F8AB", MatchMode.SUFFIX)
        assert candidates
        flat = {c for cand in candidates for c in cand}
        # Crossing the "F8" constant pins sv1 to exactly "AB"; "F8AB"
        # entirely inside sv1 remains a second possible match.
        assert (1, "AB", MatchMode.EXACT) in flat
        assert (1, "F8AB", MatchMode.SUFFIX) in flat

    def test_exact_whole_value(self):
        candidates = locate(self.pattern, self.stamps, "block_1F8FF", MatchMode.EXACT)
        assert candidates
        for candidate in candidates:
            constraints = dict(
                ((sv, mode), frag) for sv, frag, mode in candidate
            )
            assert constraints.get((0, MatchMode.EXACT)) == "1"
            assert constraints.get((1, MatchMode.EXACT)) == "FF"

    def test_exact_wrong_prefix_dies(self):
        assert locate(self.pattern, self.stamps, "clock_1F8F", MatchMode.EXACT) == []

    def test_empty_fragment_matches_all(self):
        assert locate(self.pattern, self.stamps, "", MatchMode.SUBSTRING) == [()]
        assert locate(self.pattern, self.stamps, "", MatchMode.PREFIX) == [()]


class TestExplain:
    def test_explain_reports_filtering(self, tmp_path):
        from repro import LogGrep, LogGrepConfig
        from tests.conftest import make_mixed_lines

        lg = LogGrep(config=LogGrepConfig(block_bytes=1 << 20))
        lines = make_mixed_lines(400, seed=92)
        lg.compress(lines)
        text = lg.explain("ERR#1623 AND read")
        assert "filtered" in text
        assert "candidates" in text
        assert "template hit" in text
        # The plan must not execute anything destructive: grep still works.
        from repro.baselines.evalutil import grep_lines

        assert lg.grep("ERR#1623 AND read").lines == grep_lines(
            "ERR#1623 AND read", lines
        )

    def test_explain_wildcards_marked(self):
        from repro import LogGrep, LogGrepConfig
        from tests.conftest import make_mixed_lines

        lg = LogGrep(config=LogGrepConfig(block_bytes=1 << 20))
        lg.compress(make_mixed_lines(200, seed=93))
        assert "regex-scan" in lg.explain("bk.F?.1*")

    def test_cli_explain(self, tmp_path, capsys):
        from repro import LogGrep, LogGrepConfig
        from repro.blockstore.store import ArchiveStore
        from repro.cli import main
        from tests.conftest import make_mixed_lines

        store = ArchiveStore(str(tmp_path / "arch"))
        lg = LogGrep(store=store, config=LogGrepConfig(block_bytes=1 << 20))
        lg.compress(make_mixed_lines(200, seed=94))
        assert main(["explain", "ERROR", "-a", str(tmp_path / "arch")]) == 0
        assert "keyword-vector pairs filtered" in capsys.readouterr().out
