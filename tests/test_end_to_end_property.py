"""End-to-end property tests: random corpora, random-ish queries, every
system must agree with the reference evaluator and round-trip exactly."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import LogGrep, LogGrepConfig
from repro.baselines import CLP, GzipGrep, LogGrepSystem, MiniElastic, grep_lines

# Small building blocks that compose into realistic-ish corpora.
LINE_MAKERS = [
    lambda r: f"T{r.randrange(100, 999)} bk.{r.randrange(256):02X}.{r.randrange(20)} read",
    lambda r: f"T{r.randrange(100, 999)} state: {'ERR' if r.randrange(4) == 0 else 'SUC'}#16{r.randrange(100):02d}",
    lambda r: f"ERROR write /tmp/f{r.randrange(40)}.log code={r.randrange(8)}",
    lambda r: f"gc pause {r.randrange(1, 4000)}ms heap={r.randrange(100)}%",
    lambda r: "",
    lambda r: "   spaced   out   ",
]

QUERIES = [
    "ERROR",
    "read",
    "state: ERR",
    "code=3",
    "ERROR OR read",
    "read NOT bk.0F",
    "bk.?F.1*",
    "gc pause",
]


@st.composite
def corpora(draw):
    import random

    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=1, max_value=120))
    rng = random.Random(seed)
    return [LINE_MAKERS[rng.randrange(len(LINE_MAKERS))](rng) for _ in range(n)]


class TestEndToEndProperty:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(corpora(), st.sampled_from(QUERIES))
    def test_loggrep_matches_reference(self, lines, command):
        lg = LogGrep(config=LogGrepConfig(block_bytes=2048))
        lg.compress(lines)
        assert lg.grep(command).lines == grep_lines(command, lines)
        assert lg.decompress_all() == lines

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(corpora())
    def test_all_systems_agree(self, lines):
        systems = [
            GzipGrep(block_bytes=2048),
            CLP(segment_messages=32),
            MiniElastic(flush_docs=32),
            LogGrepSystem(LogGrepConfig(block_bytes=2048)),
        ]
        for system in systems:
            system.ingest(lines)
        for command in ("ERROR", "read NOT bk.0F", "state: ERR OR code=3"):
            expected = grep_lines(command, lines)
            for system in systems:
                assert system.query(command) == expected, (system.name, command)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(corpora(), st.sampled_from(QUERIES))
    def test_count_equals_grep(self, lines, command):
        lg = LogGrep(config=LogGrepConfig(block_bytes=2048))
        lg.compress(lines)
        assert lg.count(command) == len(grep_lines(command, lines))
