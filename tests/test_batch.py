"""Multi-plan block pass + name-keyed query cache tests.

Acceptance coverage for the one pass: a multi-plan run must be
result-identical to running each plan alone for every mode mix (and a
run of one must *be* the single query — entries, stats and ledger), the
query cache must never serve stale rows across append/seal, lifecycle
demotion and cold shared-store merges, a handle or session held across a
foreign rewrite must keep answering exactly, and the shared ledger must
reconcile exactly against the store's ranged-read counter.
"""

import pytest

from repro import LogGrep, LogGrepConfig
from repro.baselines.evalutil import grep_lines
from repro.blockstore.block import block_name, parse_block_name
from repro.blockstore.store import MemoryStore
from repro.obs import tracing
from repro.obs.metrics import get_registry
from repro.query.aggregate import AggregateSpec
from repro.query.cache import QueryCache
from repro.query.modes import AggregateKind
from repro.query.plan import OutputMode, build_plan
from repro.workloads import spec_by_name
from tests.conftest import make_mixed_lines

QUERIES = [
    "ERROR",
    "read",
    "state: ERR",
    "code=3",
    "ERROR OR read",
    "read NOT bk.0F",
    "no-such-needle-xyz",
]


@pytest.fixture(scope="module")
def corpus():
    return make_mixed_lines(800, seed=7)


def make_lg(corpus, **overrides):
    overrides.setdefault("block_bytes", 4 * 1024)
    lg = LogGrep(config=LogGrepConfig(**overrides))
    lg.compress(corpus)
    return lg


def run_counts(lg, queries):
    """``count_many`` through the executor, keeping the run's report."""
    results, report = lg.executor.run_plans(
        [build_plan(q, OutputMode.COUNT) for q in queries]
    )
    return [result.count for result in results], report


def counter_value(name: str) -> float:
    return get_registry().counter(name).value()


# ----------------------------------------------------------------------
# batched == sequential
# ----------------------------------------------------------------------
class TestBatchEquivalence:
    def test_grep_many_matches_sequential(self, corpus):
        lg = make_lg(corpus)
        sequential = [lg.grep(q) for q in QUERIES]
        batched = lg.grep_many(QUERIES)
        assert len(batched) == len(QUERIES)
        for got, want in zip(batched, sequential):
            assert got.lines == want.lines
            assert got.line_ids == want.line_ids
            assert got.count == want.count

    def test_grep_many_matches_reference(self, corpus):
        lg = make_lg(corpus)
        for query, result in zip(QUERIES, lg.grep_many(QUERIES)):
            assert result.lines == grep_lines(query, corpus)

    def test_count_many_matches_sequential(self, corpus):
        lg = make_lg(corpus)
        assert lg.count_many(QUERIES) == [lg.count(q) for q in QUERIES]

    def test_aggregate_many_matches_sequential(self, corpus):
        lg = make_lg(corpus)
        spec = AggregateSpec(AggregateKind.COUNT_BY, "2")
        top = AggregateSpec(AggregateKind.TOP_K, "2", k=3)
        specs = [(spec, "read"), (spec, None), (top, "ERROR")]
        sequential = [lg.aggregate(s, where=w) for s, w in specs]
        batched = lg.aggregate_many(specs)
        for got, want in zip(batched, sequential):
            assert got.value == want.value
            assert got.matched == want.matched

    def test_grep_is_grep_many_of_one(self, corpus):
        """grep(q) ≡ grep_many([q])[0] on entries, stats *and* ledger."""
        store = make_lg(corpus).store
        config = LogGrepConfig(block_bytes=4 * 1024, slow_query_ms=1e9)
        for query in QUERIES:
            # A fresh handle per side: both runs start equally cold.
            one = LogGrep(store=store, config=config).grep(query)
            (many,) = LogGrep(store=store, config=config).grep_many([query])
            assert many.lines == one.lines == grep_lines(query, corpus)
            assert many.line_ids == one.line_ids
            assert many.stats == one.stats
            assert one.ledger.enabled and many.ledger.enabled
            a, b = one.ledger.as_dict(), many.ledger.as_dict()
            for doc in (a, b):  # wall time legitimately differs
                for op in [*doc["operators"].values(), doc["totals"]]:
                    del op["seconds"]
            assert a == b

    def test_analyze_of_one_reconciles_with_store_counter(self, corpus):
        """ANALYZE is an ordinary mode of the one pass: its batch-of-one
        ledger bills every ranged byte the query read."""
        lg = make_lg(corpus)
        counter = get_registry().counter("loggrep_store_range_read_bytes_total")
        before = counter.value()
        plan = build_plan("ERROR", OutputMode.ANALYZE)
        (result,), report = lg.executor.run_plans([plan])
        delta = counter.value() - before
        assert delta > 0
        assert result.ledger.totals().read_bytes == delta
        assert report.ledger.totals().read_bytes == 0
        assert [t for _, t in result.entries] == grep_lines("ERROR", corpus)
        assert lg.explain_analyze("read").lines == grep_lines("read", corpus)

    def test_run_metrics_move(self, corpus):
        lg = make_lg(corpus)
        queries_before = counter_value("loggrep_batch_queries_total")
        runs_before = counter_value("loggrep_batch_runs_total")
        loads_before = counter_value("loggrep_batch_shared_block_loads_total")
        plans = [build_plan(q) for q in ("ERROR", "read")]
        _, report = lg.executor.run_plans(plans)
        assert counter_value("loggrep_batch_queries_total") == queries_before + 2
        assert counter_value("loggrep_batch_runs_total") == runs_before + 1
        assert (
            counter_value("loggrep_batch_shared_block_loads_total")
            == loads_before + report.shared_loads
        )
        assert report.queries == 2
        assert report.blocks == len(lg.store.names())
        assert 0 < report.shared_loads <= report.blocks

    def test_eight_query_batch_reads_two_fifths_of_sequential_bytes(self):
        """Eight Table-1-style queries an incident triage fans out over
        one Log A archive (3 000 lines, 64 KiB blocks), each side on a
        cold handle: one shared pass reads at most 40 % of the bytes the
        same queries read one by one (0.253 here), hit for hit."""
        spec = spec_by_name("Log A")
        queries = [
            spec.query,
            "ERROR and state:REQ_ST_CLOSED",
            "ERROR and code:20012",
            "reqId:5E9D21AD5E473938",
            "WARNING and state:REQ_ST_ABORT",
            "ERROR and state:REQ_ST_ABORT",
            "ERROR and accept conn",
            "WARNING and code:20012",
        ]
        config = LogGrepConfig(block_bytes=64 * 1024)
        store = MemoryStore()
        LogGrep(store=store, config=config).compress(spec.generate(3000))

        ranged = get_registry().counter("loggrep_store_range_read_bytes_total")

        one_by_one = LogGrep(store=store, config=config)
        before = ranged.value()
        seq_hits = [one_by_one.grep(q).count for q in queries]
        seq_bytes = ranged.value() - before
        batched = LogGrep(store=store, config=config)
        before = ranged.value()
        batch_hits = [result.count for result in batched.grep_many(queries)]
        batch_bytes = ranged.value() - before

        assert batch_hits == seq_hits and any(seq_hits)
        assert 0 < batch_bytes <= 0.40 * seq_bytes

    def test_parallel_batch_equals_serial_batch(self, corpus):
        serial = make_lg(corpus)
        parallel = LogGrep(
            store=serial.store,
            config=LogGrepConfig(block_bytes=4 * 1024, query_parallelism=4),
        )
        want = serial.grep_many(QUERIES)
        got = parallel.grep_many(QUERIES)
        for g, w in zip(got, want):
            assert g.lines == w.lines

    def test_explain_rides_the_shared_pass(self, corpus):
        """EXPLAIN is an ordinary mode: alone or mixed into a multi-plan
        run it renders the same operator walk, and its neighbours'
        results do not change."""
        lg = make_lg(corpus)
        explain = build_plan("ERROR", OutputMode.EXPLAIN)
        (alone,), _ = lg.executor.run_plans([explain])
        assert alone.renderings  # the operator walk was rendered
        assert not alone.entries and alone.count == 0
        mixed, report = lg.executor.run_plans(
            [build_plan("read"), explain, build_plan("ERROR", OutputMode.COUNT)]
        )
        assert mixed[1].renderings == alone.renderings
        assert [t for _, t in mixed[0].entries] == grep_lines("read", corpus)
        assert mixed[2].count == len(grep_lines("ERROR", corpus))
        assert report.shared_loads == report.blocks

    def test_span_tree_roots_at_query_or_batch(self, corpus):
        """One plan roots at ``query``; several root at ``batch``.  Either
        way the operator spans hang off per-block children."""
        lg = make_lg(corpus)
        with tracing() as tracer:
            lg.grep("ERROR")
        (root,) = tracer.roots
        assert root.name == "query"
        assert root.attrs["command"] == "ERROR"
        assert [c.name for c in root.children][0] == "plan"
        assert len(root.find("block")) == len(lg.store.names())
        lg.clear_query_cache()
        with tracing() as tracer:
            lg.grep_many(["ERROR", "read"])
        (root,) = tracer.roots
        assert root.name == "batch"
        assert root.attrs["queries"] == 2
        assert not root.find("query")
        blocks = root.find("block")
        assert len(blocks) == len(lg.store.names())
        # One box open per block, shared by both plans.
        assert all(len(b.find("load_box")) == 1 for b in blocks)


# ----------------------------------------------------------------------
# plan-level dedupe (satellite: "a AND a" collapses to one term)
# ----------------------------------------------------------------------
class TestPlanDedup:
    def test_duplicate_literals_collapse(self):
        plan = build_plan("ERROR AND ERROR")
        (disjunct,) = plan.disjuncts
        assert len(disjunct.terms) == 1

    def test_negated_duplicate_kept_separate(self):
        plan = build_plan("ERROR NOT ERROR")
        (disjunct,) = plan.disjuncts
        assert len(disjunct.terms) == 2

    def test_deduped_plan_equivalent(self, corpus):
        lg = make_lg(corpus)
        assert (
            lg.grep("ERROR AND ERROR AND code=3").lines
            == lg.grep("ERROR AND code=3").lines
            == grep_lines("ERROR AND code=3", corpus)
        )


# ----------------------------------------------------------------------
# query cache: warm path, eviction, metrics, the Fig-9 switch
# ----------------------------------------------------------------------
class TestQueryCacheWarmPath:
    def test_warm_count_skips_box_loads(self, corpus):
        lg = make_lg(corpus)
        _, cold = run_counts(lg, ["ERROR", "read"])
        assert cold.shared_loads > 0
        _, warm = run_counts(lg, ["ERROR", "read"])
        assert warm.shared_loads == 0
        assert lg.fragments.hits > 0

    def test_warm_count_reads_zero_store_bytes(self, corpus):
        lg = make_lg(corpus)
        lg.count("ERROR")
        counter = get_registry().counter("loggrep_store_range_read_bytes_total")
        before = counter.value()
        warm = lg.count("ERROR")
        assert counter.value() == before  # pure row-set algebra
        assert warm == len(grep_lines("ERROR", corpus))

    def test_overlapping_queries_share_rowsets(self, corpus):
        lg = make_lg(corpus)
        lg.count("ERROR")
        hits_before = lg.fragments.hits
        # A different query over the same term reuses its row sets.
        lg.count("ERROR AND code=3")
        assert lg.fragments.hits > hits_before

    def test_single_queries_warm_the_many_path_and_back(self, corpus):
        """One cache: rows located by grep() serve count_many() (and the
        reverse) — there is no second lane to warm separately."""
        lg = make_lg(corpus)
        lg.grep("ERROR")
        lg.grep("read")
        _, report = run_counts(lg, ["ERROR", "read", "ERROR OR read"])
        assert report.shared_loads == 0
        lg.count_many(["code=3"])
        assert lg.grep("code=3").stats.cache_hits > 0

    def test_query_cache_metrics_move(self, corpus):
        lg = make_lg(corpus)
        misses_before = counter_value("loggrep_query_cache_misses_total")
        hits_before = counter_value("loggrep_query_cache_hits_total")
        lg.count_many(["ERROR"])
        assert counter_value("loggrep_query_cache_misses_total") > misses_before
        assert counter_value("loggrep_query_cache_hits_total") == hits_before
        lg.count_many(["ERROR"])
        assert counter_value("loggrep_query_cache_hits_total") > hits_before

    def test_cache_switch_off_keeps_every_run_cold(self, corpus):
        """``use_query_cache=False`` (Fig 9 "w/o cache") gates the one
        cache: nothing is stored, nothing is consulted."""
        lg = make_lg(corpus, use_query_cache=False)
        hits_before = counter_value("loggrep_query_cache_hits_total")
        misses_before = counter_value("loggrep_query_cache_misses_total")
        counts, first = run_counts(lg, ["ERROR", "read"])
        again, second = run_counts(lg, ["ERROR", "read"])
        assert counts == again
        assert second.shared_loads == first.shared_loads > 0
        assert len(lg.fragments) == 0
        assert counter_value("loggrep_query_cache_hits_total") == hits_before
        assert counter_value("loggrep_query_cache_misses_total") == misses_before

    def test_tiny_capacity_evicts_and_stays_correct(self, corpus):
        evictions_before = counter_value("loggrep_query_cache_evictions_total")
        lg = LogGrep(
            config=LogGrepConfig(block_bytes=4 * 1024), fragments=QueryCache(4)
        )
        lg.compress(corpus)
        want = [len(grep_lines(q, corpus)) for q in QUERIES]
        for _ in range(3):
            assert lg.count_many(QUERIES) == want
            assert [lg.count(q) for q in QUERIES] == want
        assert len(lg.fragments) <= 4
        assert counter_value("loggrep_query_cache_evictions_total") > evictions_before


# ----------------------------------------------------------------------
# staleness: a block name is written once — a commit only adds a name,
# and a lifecycle rewrite writes new names and deletes the old ones
# ----------------------------------------------------------------------
class TestInvalidation:
    def test_commit_keeps_names_demote_writes_new_ones(self, corpus):
        from repro.core.lifecycle import LifecycleManager, Tier

        lg = make_lg(corpus)
        before = lg.store.names()
        assert before == [block_name(i) for i in range(len(before))]
        lg.compress(["extra line one", "extra line two"])
        after = lg.store.names()
        assert after == before + [block_name(len(before))]
        LifecycleManager(lg.store, lg.config).demote(Tier.WARM)
        demoted = lg.store.names()
        assert not set(demoted) & set(after)
        assert [parse_block_name(name)[0] for name in demoted] == list(
            range(len(after))
        )

    def test_append_keeps_rowsets(self, corpus):
        lg = make_lg(corpus)
        warm = lg.count_many(["ERROR"])[0]
        hits_before = lg.fragments.hits
        lg.compress(["ERROR fresh appended line"])
        assert lg.count_many(["ERROR"])[0] == warm + 1
        assert lg.count_many(["ERROR"])[0] == lg.count("ERROR")
        # The pre-append entries still answer for the unchanged blocks.
        assert lg.fragments.hits > hits_before

    def test_streaming_seal_keeps_names(self):
        from repro.core.lifecycle import LifecycleManager, Tier
        from repro.core.streaming import StreamingCompressor

        config = LogGrepConfig(block_bytes=2 * 1024)
        with StreamingCompressor(config=config) as stream:
            for i in range(400):
                stream.append(f"streamed ERROR line {i} payload {i % 13}")
            store = stream.store
        assert stream.blocks > 1
        blocks = range(stream.blocks)
        assert store.names() == [block_name(i) for i in blocks]
        LifecycleManager(store, config).demote(Tier.WARM)
        assert store.names() == [block_name(i, epoch=1) for i in blocks]

    def test_demote_warm_invalidates_shared_cache(self, corpus):
        """The demotion is performed by a *separate* LifecycleManager;
        a cache shared with a fresh handle never sees the rewritten
        blocks under their old names."""
        from repro.core.lifecycle import LifecycleManager, Tier

        lg = make_lg(corpus)
        warm = lg.count_many(["ERROR", "read"])
        manager = LifecycleManager(lg.store, lg.config)
        report = manager.demote(Tier.WARM)
        assert report.blocks_after > 0
        reader = LogGrep(
            store=lg.store, config=lg.config, fragments=lg.fragments
        )
        assert reader.count_many(["ERROR", "read"]) == warm
        assert reader.count_many(["ERROR", "read"]) == [
            reader.count("ERROR"), reader.count("read"),
        ]

    def test_demote_cold_merge_invalidates_shared_cache(self, corpus):
        from repro.core.lifecycle import LifecycleManager, Tier

        lg = make_lg(corpus)
        warm = lg.count_many(["ERROR", "read"])
        names_before = set(lg.store.names())
        report = LifecycleManager(lg.store, lg.config).demote(Tier.COLD)
        assert report.blocks_after < report.blocks_before  # merged
        assert not names_before & set(lg.store.names())  # all new names
        reader = LogGrep(
            store=lg.store, config=lg.config,
            fragments=lg.fragments,  # carry the stale cache over
        )
        assert reader.count_many(["ERROR", "read"]) == warm
        assert reader.count_many(["ERROR", "read"]) == warm  # warm rerun

    @pytest.mark.parametrize("held", ["handle", "session"])
    @pytest.mark.parametrize("tier_name", ["warm", "cold"])
    def test_reader_held_across_foreign_demote(self, corpus, held, tier_name):
        """A plain handle or an open session held across a demote by a
        *separate* LifecycleManager: grep ≡ a freshly opened handle ≡ the
        raw-line oracle.  (At PR 11 the plain handle raised ``universe
        mismatch`` from its un-keyed QueryCache, and a session across a
        COLD merge answered from pinned pre-merge boxes.)"""
        from repro.core.lifecycle import LifecycleManager, Tier

        lg = make_lg(corpus)
        reader = lg.open_session() if held == "session" else lg
        for query in QUERIES:  # warm rows (and pinned boxes) pre-demote
            reader.grep(query)
            reader.grep(query)
        blocks_before = len(lg.store.names())
        LifecycleManager(lg.store, lg.config).demote(Tier(tier_name))
        if tier_name == "cold":
            assert len(lg.store.names()) < blocks_before  # names were merged
        fresh = LogGrep(store=lg.store, config=lg.config)
        for query in QUERIES:
            want = grep_lines(query, corpus)
            for _ in range(2):  # cold after the rewrite, then warm again
                assert reader.grep(query).lines == want
            assert reader.count(query) == len(want)
            assert fresh.grep(query).lines == want
        if held == "session":
            reader.close()

    def test_held_handle_rereads_prune_index_after_cold_merge(self, corpus):
        """The first original block's time range ends before the
        needle's, so a window from the needle's time prunes it.  A cold
        merge moves the needle's line into a block under a new name,
        which the held handle must serve with the summary the merge
        published."""
        from repro.blockstore.index import load_index
        from repro.common.timeparse import extract_timestamp
        from repro.core.lifecycle import LifecycleManager, Tier
        from repro.query.executor import summary_might_match

        lines = [
            f"2024-03-01 00:{i // 60:02d}:{i % 60:02d} bk.{i % 256:02x}"
            for i in range(300)
        ]
        lines += corpus[300:]
        needle = (
            "2024-03-01 10:00:00 ERROR write to file: "
            "/root/usr/admin/QQneedleQQ.log failed code=3"
        )
        lines[600] = needle
        window = {"from_time": extract_timestamp(needle)}
        lg = make_lg(lines)
        first = lg.store.names()[0]
        stale = lg.executor.source.summary(first)
        assert stale.first_line_id + stale.num_lines <= 600
        assert not summary_might_match(stale, build_plan("QQneedleQQ", **window))
        assert lg.grep("QQneedleQQ", **window).lines == [needle]
        LifecycleManager(lg.store, lg.config).demote(Tier.COLD)
        merged_name = lg.store.names()[0]
        assert merged_name != first
        merged = load_index(lg.store).get(merged_name)
        assert merged.first_line_id + merged.num_lines > 600
        assert lg.grep("QQneedleQQ", **window).lines == [needle]
        lg.compress(["appended after the merge QQneedleQQ"])
        assert len(lg.grep("QQneedleQQ", **window).lines) == 2
        fresh = LogGrep(store=lg.store, config=lg.config)
        assert (
            fresh.grep("QQneedleQQ", **window).lines
            == lg.grep("QQneedleQQ", **window).lines
        )

    def test_leftover_generation_blob_is_ignored(self, corpus):
        """Archives written before block names were immutable may hold a
        ``generation.txt`` aux blob: nothing reads or rewrites it."""
        from repro.core.lifecycle import LifecycleManager, Tier

        lg = make_lg(corpus)
        lg.store.put_aux("generation.txt", b"7")
        aux_reads = []
        get_aux = lg.store.get_aux
        lg.store.get_aux = lambda name: aux_reads.append(name) or get_aux(name)
        held = LogGrep(store=lg.store, config=lg.config)
        for query in QUERIES:
            held.grep(query)
        LifecycleManager(lg.store, lg.config).demote(Tier.WARM)
        fresh = LogGrep(store=lg.store, config=lg.config)
        for query in QUERIES:
            assert held.grep(query).lines == grep_lines(query, corpus)
            assert fresh.grep(query).lines == grep_lines(query, corpus)
        assert "generation.txt" not in aux_reads
        assert get_aux("generation.txt") == b"7"
        # Aux blobs never pollute the block namespace.
        assert "generation.txt" not in lg.store.names()


# ----------------------------------------------------------------------
# ledger: batched accounting reconciles exactly
# ----------------------------------------------------------------------
class TestBatchLedger:
    def test_batch_ledger_reconciles_with_store_counter(self, corpus):
        lg = make_lg(corpus, slow_query_ms=1e9)
        counter = get_registry().counter("loggrep_store_range_read_bytes_total")
        before = counter.value()
        plans = [build_plan(q) for q in ("ERROR", "read", "code=3")]
        results, report = lg.executor.run_plans(plans)
        delta = counter.value() - before
        assert delta > 0
        per_query = sum(
            result.ledger.totals().read_bytes for result in results
        )
        shared = report.ledger.totals().read_bytes
        assert shared > 0
        assert per_query + shared == delta

    def test_single_plan_run_bills_the_plan(self, corpus):
        """A run of one charges everything to the plan's own ledger."""
        lg = make_lg(corpus, slow_query_ms=1e9)
        counter = get_registry().counter("loggrep_store_range_read_bytes_total")
        before = counter.value()
        results, report = lg.executor.run_plans([build_plan("ERROR")])
        delta = counter.value() - before
        assert report.ledger.totals().read_bytes == 0
        assert results[0].ledger.totals().read_bytes == delta

    def test_budget_aborts_batched_query(self, corpus):
        from repro.common.errors import BudgetExceeded

        lg = make_lg(corpus, max_read_bytes=64)
        with pytest.raises(BudgetExceeded) as excinfo:
            lg.grep_many(["ERROR"])
        assert excinfo.value.ledger is not None


# ----------------------------------------------------------------------
# cluster: one multi-plan batch per shard
# ----------------------------------------------------------------------
class TestClusterBatch:
    def test_cluster_grep_many_matches_sequential(self):
        from repro.cluster.coordinator import ClusterLogGrep

        lines = make_mixed_lines(400, seed=3)
        config = LogGrepConfig(block_bytes=4 * 1024)
        with ClusterLogGrep(num_nodes=3, replication=2, config=config) as c:
            c.compress(lines)
            commands = ["ERROR", "read", "state: ERR"]
            sequential = [c.grep(cmd) for cmd in commands]
            served_before = sum(
                n.queries_served for n in c.nodes.values()
            )
            batched = c.grep_many(commands)
            locate_rpcs = sum(
                1
                for shard in c.last_report.shards
                if shard.phase == "rows"
            )
            for got, want in zip(batched, sequential):
                assert got.lines == want.lines
                assert got.count == want.count
            # One locate RPC per block for the whole batch, not per plan.
            assert locate_rpcs == len(c._placement)
            assert sum(
                n.queries_served for n in c.nodes.values()
            ) > served_before

    def test_cluster_aggregate_many_matches_sequential(self):
        from repro.cluster.coordinator import ClusterLogGrep

        lines = make_mixed_lines(400, seed=5)
        config = LogGrepConfig(block_bytes=4 * 1024)
        spec = AggregateSpec(AggregateKind.COUNT_BY, "2")
        with ClusterLogGrep(num_nodes=3, replication=2, config=config) as c:
            c.compress(lines)
            specs = [(spec, "read"), (spec, None)]
            sequential = [c.aggregate(s, where=w) for s, w in specs]
            batched = c.aggregate_many(specs)
            for got, want in zip(batched, sequential):
                assert got.value == want.value
                assert got.matched == want.matched

    def test_cluster_grep_many_limit(self):
        from repro.cluster.coordinator import ClusterLogGrep

        lines = make_mixed_lines(400, seed=9)
        config = LogGrepConfig(block_bytes=4 * 1024)
        with ClusterLogGrep(num_nodes=2, replication=1, config=config) as c:
            c.compress(lines)
            want = c.grep("read", limit=5)
            got = c.grep_many(["read"], limit=5)[0]
            assert got.lines == want.lines


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestBatchCLI:
    def test_grep_batch_file(self, tmp_path, capsys):
        from repro.cli import main

        corpus = make_mixed_lines(300, seed=13)
        raw = tmp_path / "raw.log"
        raw.write_text("\n".join(corpus) + "\n", encoding="utf-8")
        archive = tmp_path / "arch"
        assert main(
            [
                "compress", "-a", str(archive), "--block-bytes", "4096",
                str(raw),
            ]
        ) == 0
        capsys.readouterr()
        batch = tmp_path / "queries.txt"
        batch.write_text("# burst\nERROR\nread\n\n", encoding="utf-8")
        assert main(
            ["grep", "--batch-file", str(batch), "-a", str(archive)]
        ) == 0
        out = capsys.readouterr().out
        assert "# query: ERROR" in out
        assert "# query: read" in out
        for line in grep_lines("ERROR", corpus):
            assert line in out

    def test_grep_batch_file_count(self, tmp_path, capsys):
        from repro.cli import main

        corpus = make_mixed_lines(200, seed=17)
        raw = tmp_path / "raw.log"
        raw.write_text("\n".join(corpus) + "\n", encoding="utf-8")
        archive = tmp_path / "arch"
        main(["compress", "-a", str(archive), str(raw)])
        capsys.readouterr()
        batch = tmp_path / "queries.txt"
        batch.write_text("ERROR\nread\n", encoding="utf-8")
        assert main(
            ["grep", "--batch-file", str(batch), "-a", str(archive), "-c"]
        ) == 0
        out = capsys.readouterr().out
        want = [
            f"{len(grep_lines(q, corpus))}\t{q}" for q in ("ERROR", "read")
        ]
        assert out.splitlines() == want

    def test_grep_requires_query_xor_batch_file(self, tmp_path, capsys):
        from repro.cli import main

        archive = tmp_path / "arch"
        assert main(["grep", "-a", str(archive)]) == 2
        capsys.readouterr()
