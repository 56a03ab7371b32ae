"""Additional coverage for the EXPLAIN facility's per-encoding branches."""

from repro.capsule.assembler import EncodingOptions, encode_plain, encode_vector
from repro.capsule.box import CapsuleBox, GroupBox
from repro.query.explain import DryRunEngine, explain_block
from repro.query.language import Keyword, SearchString, parse_query
from repro.query.vectors import QuerySettings
from repro.staticparse.template import Template


def _plan_vector(encoded, keyword: Keyword):
    """The dry run's plan of *keyword* over one vector, the only
    variable of a one-group box: the engine's gate, then the reader's
    pre-read verdict."""
    rows = encoded.num_rows
    group = GroupBox(Template(0, [None]), list(range(rows)), [encoded])
    engine = DryRunEngine(CapsuleBox(0, 0, rows, True, [group]), QuerySettings())
    engine.search_string_rows(SearchString(keyword.text, keywords=[keyword]))
    (plan,) = engine.plans
    return plan


class TestPlanVector:
    def test_real_filtered(self):
        encoded = encode_vector([f"req_{i}" for i in range(100)], EncodingOptions())
        plan = _plan_vector(encoded, Keyword("ZZZ"))
        assert plan.decision == "filtered"
        assert plan.kind == "real"

    def test_real_candidates(self):
        encoded = encode_vector([f"req_{i}" for i in range(100)], EncodingOptions())
        plan = _plan_vector(encoded, Keyword("req_7"))
        assert plan.decision == "candidates"

    def test_real_constant_hit(self):
        encoded = encode_vector([f"req_{i}" for i in range(100)], EncodingOptions())
        plan = _plan_vector(encoded, Keyword("eq"))
        assert plan.decision == "candidates"
        assert "constants" in plan.detail

    def test_real_outliers_force_scan(self):
        values = [f"req_{i}" for i in range(190)] + ["WEIRD!"] + [
            f"req_{i}" for i in range(190, 200)
        ]
        encoded = encode_vector(values, EncodingOptions(sample_rate=1.0))
        plan = _plan_vector(encoded, Keyword("%%"))
        assert "outlier" in plan.detail

    def test_nominal_filtered_and_candidates(self):
        values = ["ERR#404"] * 30 + ["SUCC"] * 60
        encoded = encode_vector(values, EncodingOptions())
        assert _plan_vector(encoded, Keyword("zzz")).decision == "filtered"
        hit = _plan_vector(encoded, Keyword("404"))
        assert hit.decision == "candidates"
        assert hit.kind == "nominal"

    def test_plain_stamp_and_scan(self):
        encoded = encode_plain(["123", "456"] * 20)
        assert _plan_vector(encoded, Keyword("abc")).decision == "filtered"
        assert _plan_vector(encoded, Keyword("45")).decision == "scan"

    def test_wildcard_marked_regex(self):
        encoded = encode_plain(["123"] * 10)
        plan = _plan_vector(encoded, Keyword("1*3"))
        assert plan.decision == "regex-scan"


class TestExplainBlock:
    def test_summary_structure(self):
        from repro.blockstore.block import LogBlock
        from repro.core.compressor import compress_block
        from repro.core.config import LogGrepConfig
        from tests.conftest import make_mixed_lines

        box = compress_block(
            LogBlock(0, 0, make_mixed_lines(300, seed=95)), LogGrepConfig()
        )
        plan = explain_block(box, parse_query("ERROR AND code=3"), "b0")
        text = plan.summary()
        assert text.startswith("block b0:")
        assert plan.vector_plans
        # Duplicate search strings are planned once.
        plan2 = explain_block(box, parse_query("ERROR OR ERROR"), "b0")
        keywords = [p.keyword for p in plan2.vector_plans]
        assert keywords.count("ERROR") == len(set(
            (p.group, p.var) for p in plan2.vector_plans
        ))


class TestExplainFollowsConfig:
    def test_without_stamps_plain_vectors_plan_as_scan(self):
        """EXPLAIN renders what execution does: under ``w/o stamp`` a plain
        vector whose stamp alone rejects the keyword is scanned, not
        filtered."""
        from repro import LogGrep
        from repro.core.config import ablated
        from tests.conftest import make_mixed_lines

        lines = make_mixed_lines(300, seed=95)
        plain = ablated("w/o real")  # real vectors fall back to plain
        decisions = {}
        for config in (plain, ablated("w/o stamp", plain)):
            lg = LogGrep(config=config)
            lg.compress(lines)
            decisions[config.use_stamps] = [
                line for line in lg.explain("zzqq").splitlines() if "[plain]" in line
            ]
        assert any(": filtered" in line for line in decisions[True])
        assert decisions[False]
        assert all(": scan" in line for line in decisions[False])
