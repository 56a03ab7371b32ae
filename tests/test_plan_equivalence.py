"""Property test: one plan, every execution strategy, one answer.

For randomly composed query commands, ``grep`` and ``count`` must agree
with each other and with a reference Python grep over the decompressed
corpus — regardless of scheduler (serial vs thread pool) and of whether
the match memo is enabled.  This pins the planner/executor refactor to
the observable semantics of the original per-method query paths.

Conjunctions get their own properties: a later AND/NOT term is matched
only on the rows the earlier ones left, and the Match memo and Query
Cache keep each answer with the rows it is exact on, so answers must
hold cold, in refining sessions that revisit terms at other
accumulators, in shared-term batches and on the box-less warm path.
"""

import pytest

try:
    from hypothesis import HealthCheck, assume, given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is in the dev env
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro import LogGrep, LogGrepConfig
from repro.baselines.evalutil import grep_lines, line_matches
from repro.common.errors import QuerySyntaxError
from repro.query.language import parse_query
from tests.conftest import make_mixed_lines

CORPUS = make_mixed_lines(400, seed=23)

#: Fragments that hit every structure of the mixed corpus: template
#: constants, real-vector ids, nominal states, paths, wildcards, and a
#: keyword that matches nothing.
VOCAB = [
    "ERROR",
    "read",
    "state:",
    "SUC",
    "bk.",
    "T1*",
    "write to file:",
    "code=",
    "/root/usr",
    "zzz_absent",
    "bk.F?.*",
]


@pytest.fixture(scope="module")
def archive():
    lg = LogGrep(config=LogGrepConfig(block_bytes=8 * 1024))
    lg.compress(CORPUS)
    return lg


def test_round_trip_is_the_reference(archive):
    # decompress_all() is the oracle the property below greps against.
    assert archive.decompress_all() == CORPUS


@st.composite
def query_strings(draw):
    parts = [draw(st.sampled_from(VOCAB))]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        parts.append(draw(st.sampled_from(["AND", "OR", "NOT"])))
        parts.append(draw(st.sampled_from(VOCAB)))
    return " ".join(parts)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    command=query_strings(),
    parallelism=st.sampled_from([1, 3]),
    use_cache=st.booleans(),
    ignore_case=st.booleans(),
)
def test_grep_count_and_reference_agree(
    archive, command, parallelism, use_cache, ignore_case
):
    archive.config.query_parallelism = parallelism
    archive.config.use_query_cache = use_cache
    try:
        expected = grep_lines(command, CORPUS, ignore_case)
    except QuerySyntaxError:
        assume(False)
    result = archive.grep(command, ignore_case=ignore_case)
    assert result.lines == expected
    assert result.count == archive.count(command, ignore_case=ignore_case)
    assert result.count == len(expected)


# ----------------------------------------------------------------------
# accounting: one channel charges a result's stats and its ledger
# ----------------------------------------------------------------------
def _assert_capsule_decisions_consistent(stats):
    assert 0 <= stats.capsules_filtered <= stats.capsules_considered


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    command=query_strings(),
    other=query_strings(),
    parallelism=st.sampled_from([1, 2]),
)
def test_accounting_invariants(archive, command, other, parallelism):
    """Filtered never exceeds considered; a cold LINES run and a cold
    ANALYZE run of one query count the same; and a single plan's ANALYZE
    ledger inflated exactly what its stats say."""
    archive.config.query_parallelism = parallelism
    archive.config.use_query_cache = True
    try:
        grep_lines(command, CORPUS)
        grep_lines(other, CORPUS)
    except QuerySyntaxError:
        assume(False)
    archive.clear_query_cache()
    lines = archive.grep(command)
    archive.clear_query_cache()
    analyzed = archive.explain_analyze(command)
    assert lines.lines == analyzed.lines
    assert lines.stats == analyzed.stats
    _assert_capsule_decisions_consistent(lines.stats)
    totals = analyzed.ledger.totals()
    assert totals.capsules_decompressed == analyzed.stats.capsules_decompressed
    assert totals.bytes_decompressed == analyzed.stats.bytes_decompressed
    archive.clear_query_cache()
    for result in archive.grep_many([command, other]):
        _assert_capsule_decisions_consistent(result.stats)


# ----------------------------------------------------------------------
# conjunction pushdown: later AND/NOT terms see only the alive rows
# ----------------------------------------------------------------------
#: VOCAB plus selective fragments, so a first term often leaves few
#: enough rows for the later terms to probe them directly.
CONJ_VOCAB = VOCAB + [
    "T10",
    "T101",
    "T102",
    "T11",
    "ERR#16",
    "#164",
    "admin/1",
    "code=3",
    "bk.A",
    "16",
    "2",
    "corrupt",
    "state: ERR",
    "T10?5",
    "bk.?A.*",
]


@st.composite
def term_pools(draw):
    """Two to four distinct fragments with a polarity each (the first
    is always positive)."""
    terms = draw(
        st.lists(st.sampled_from(CONJ_VOCAB), min_size=2, max_size=4, unique=True)
    )
    return [(terms[0], False)] + [(term, draw(st.booleans())) for term in terms[1:]]


def conjunction(terms):
    head, *rest = terms
    return " ".join(
        [head[0]] + [f"{'NOT' if negated else 'AND'} {text}" for text, negated in rest]
    )


def commands_over(pool, draw_order):
    """Conjunctions over sub-lists of *pool* — the same terms at
    different accumulators — each led by a positive term."""
    commands = []
    for order in draw_order:
        terms = [pool[i] for i in order]
        positives = [t for t in terms if not t[1]]
        if not positives:
            continue
        lead = positives[0]
        commands.append(conjunction([lead] + [t for t in terms if t is not lead]))
    return commands


def _oracle(command, ignore_case=False):
    try:
        return grep_lines(command, CORPUS, ignore_case)
    except QuerySyntaxError:
        assume(False)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(pool=term_pools(), parallelism=st.sampled_from([1, 2]))
def test_cold_conjunctions_equal_the_reference(archive, pool, parallelism):
    archive.config.query_parallelism = parallelism
    archive.config.use_query_cache = True
    command = conjunction(pool)
    expected = _oracle(command)
    archive.clear_query_cache()
    assert archive.grep(command).lines == expected
    archive.clear_query_cache()
    assert archive.count(command) == len(expected)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    pool=term_pools(),
    orders=st.lists(
        st.permutations(range(4)).map(lambda p: p[: 2 + p[0] % 3]),
        min_size=2,
        max_size=5,
    ),
    parallelism=st.sampled_from([1, 2]),
    use_cache=st.booleans(),
)
def test_refining_session_conjunctions_equal_the_reference(
    archive, pool, orders, parallelism, use_cache
):
    # Terms recur across the session at different accumulators, so
    # cached entries of partial coverage both answer and miss.
    archive.config.query_parallelism = parallelism
    archive.config.use_query_cache = use_cache
    orders = [[i for i in order if i < len(pool)] for order in orders]
    commands = commands_over(pool, orders)
    assume(commands)
    expected = {command: _oracle(command) for command in commands}
    archive.clear_query_cache()
    with archive.open_session() as session:
        for command in commands + commands[::-1]:
            assert session.grep(command).lines == expected[command]
            assert session.count(command) == len(expected[command])


#: Chains that ask one term again on rows of the same block that the
#: first answer covers only in part: a partial entry must answer exactly
#: where it covers, and be widened everywhere else.
REVISITS = [
    ["T101 AND 2", "T102 AND 2", "T10 AND 2", "T101 AND 2", "T10 NOT 2"],
    ["T100 AND bk.A", "T10 AND bk.A", "T100 NOT bk.A", "T10 AND bk.?A.*"],
    ["ERR#16 AND 2", "state: AND 2", "ERR#16 NOT 2", "T10 AND state: ERR"],
]


@pytest.mark.parametrize("chain", REVISITS)
@pytest.mark.parametrize("parallelism", [1, 2])
def test_partially_covered_terms_equal_the_reference(archive, chain, parallelism):
    archive.config.query_parallelism = parallelism
    archive.config.use_query_cache = True
    archive.clear_query_cache()
    with archive.open_session() as session:
        for command in chain + chain[::-1]:
            expected = grep_lines(command, CORPUS)
            assert session.grep(command).lines == expected
            assert session.count(command) == len(expected)
    for command in chain:  # again through the box-less warm count
        assert archive.count(command) == len(grep_lines(command, CORPUS))


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    pool=term_pools(),
    orders=st.lists(st.permutations(range(4)), min_size=2, max_size=4),
)
def test_grep_many_with_shared_terms_equals_the_reference(archive, pool, orders):
    archive.config.query_parallelism = 1
    archive.config.use_query_cache = True
    orders = [[i for i in order if i < len(pool)] for order in orders]
    commands = commands_over(pool, orders)
    assume(commands)
    expected = [_oracle(command) for command in commands]
    archive.clear_query_cache()
    results = archive.grep_many(commands)
    assert [result.lines for result in results] == expected


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(pool=term_pools())
def test_warm_count_opens_no_box_and_equals_the_reference(archive, pool):
    from repro.query.plan import OutputMode, build_plan

    archive.config.query_parallelism = 1
    archive.config.use_query_cache = True
    command = conjunction(pool)
    expected = _oracle(command)
    archive.clear_query_cache()
    archive.grep(command)  # every term cached, at the coverage it needs
    (result,), report = archive.executor.run_plans(
        [build_plan(command, OutputMode.COUNT)]
    )
    assert report.shared_loads == 0  # answered from cached row sets alone
    assert result.count == len(expected)


# ----------------------------------------------------------------------
# the pushdown in exact counts
# ----------------------------------------------------------------------
def _jobs_archive():
    """One block: 300 ``job`` lines and 100 ``gc`` lines, both with two
    real (numeric) variables."""
    import random

    rng = random.Random(5)
    lines = []
    for i in range(300):
        lines.append(f"job {i:05d} took {rng.randrange(10**6)} ms")
        if i % 3 == 0:
            lines.append(f"gc pause {rng.randrange(1000)}ms heap {rng.randrange(10**5)}")
    lg = LogGrep(config=LogGrepConfig())
    lg.compress(lines)
    (name,) = lg.store.names()
    return lg, name, lines


def _search(text):
    return parse_query(text).disjuncts[0][0].search


def test_second_term_scans_only_the_candidates():
    from repro.query.engine import BlockEngine
    from repro.query.stats import QueryLedger
    from repro.query.vectors import DIRECT_CHECK_ROWS

    lg, name, _ = _jobs_archive()
    engine = BlockEngine(lg.executor.load_box(name))
    alive = engine.search_string_rows(_search("job 0001"))  # jobs 10..19
    assert sum(len(rows) for rows in alive.values()) == 10 <= DIRECT_CHECK_ROWS
    ledger = QueryLedger()
    with ledger.operator("match"):
        found = engine.search_string_rows(_search("took 1"), alive)
    assert ledger.rows_scanned == 10  # one probe per candidate, no scan
    full = engine.search_string_rows(_search("took 1"))
    assert found == {g: rows & alive[g] for g, rows in full.items() if rows & alive[g]}


def test_a_group_without_survivors_inflates_nothing():
    from repro.query.engine import BlockEngine

    lg, name, lines = _jobs_archive()
    box = lg.executor.load_box(name)
    engine = BlockEngine(box)
    hits = engine.execute(parse_query("job 0001 AND 1"))
    gc_group = next(
        g for g, group in enumerate(box.groups) if group.template.tokens[0] == "gc"
    )
    assert gc_group not in hits
    for vector in box.groups[gc_group].vectors:
        for capsule in vector.subvar_capsules:
            assert not capsule.is_decompressed
    # Scanned over every row, the "1" term would have inflated them.
    assert engine.execute(parse_query("1"))
    assert any(
        capsule.is_decompressed
        for vector in box.groups[gc_group].vectors
        for capsule in vector.subvar_capsules
    )
    assert sorted(
        box.first_line_id + box.groups[g].line_ids[row]
        for g, rows in hits.items()
        for row in rows
    ) == [i for i, line in enumerate(lines) if line_matches(parse_query("job 0001 AND 1"), line)]
