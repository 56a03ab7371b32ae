"""One accounting channel: a result's QueryStats is what the thread-local
channel charged to its plan, so it equals the plan's ANALYZE ledger —
whether the plan ran alone or rode a batch with others."""

import pytest

from repro import LogGrep, LogGrepConfig
from repro.query.aggregate import AggregateSpec
from repro.query.modes import AggregateKind
from repro.query.plan import OutputMode, build_plan
from repro.workloads import spec_by_name

#: Three fields of Log B held by distinct vectors: a batch of their
#: aggregates shares no Capsule between plans.
FIELDS = ("Project", "RequestId", "latency")

GREPS = ["ERROR", "Project:2963", "latency", "zz_absent_zz"]


@pytest.fixture(scope="module", params=[1, 2], ids=["serial", "parallel"])
def log_b(request):
    lines = spec_by_name("Log B").generate(3000)
    lg = LogGrep(
        config=LogGrepConfig(block_bytes=32 * 1024, query_parallelism=request.param)
    )
    lg.compress(lines)
    assert len(lg.store.names()) > 1
    return lg


def inflated(stats):
    return stats.capsules_decompressed, stats.bytes_decompressed


def ledger_inflated(ledger):
    totals = ledger.totals()
    return totals.capsules_decompressed, totals.bytes_decompressed


def count_by(field):
    return AggregateSpec(AggregateKind.COUNT_BY, field), None


class TestBatchedAggregates:
    def test_each_plan_is_charged_its_own_aggregate(self, log_b):
        alone = []
        for field in FIELDS:
            log_b.clear_query_cache()
            (result,) = log_b.aggregate_many([count_by(field)], analyze=True)
            alone.append(result)
        log_b.clear_query_cache()
        batch = log_b.aggregate_many([count_by(f) for f in FIELDS], analyze=True)
        for one, batched in zip(alone, batch):
            assert batched.value == one.value
            assert inflated(one.stats) == ledger_inflated(one.ledger)
            assert inflated(batched.stats) == ledger_inflated(batched.ledger)
            # No plan's work is lost to the batch.
            assert inflated(batched.stats) == inflated(one.stats)
            assert batched.stats.capsules_decompressed > 0

    def test_filtered_batch_matches_its_ledgers(self, log_b):
        specs = [(AggregateSpec(AggregateKind.COUNT_BY, f), "ERROR") for f in FIELDS]
        log_b.clear_query_cache()
        for result in log_b.aggregate_many(specs, analyze=True):
            assert inflated(result.stats) == ledger_inflated(result.ledger)
            stats = result.stats
            assert stats.capsules_filtered <= stats.capsules_considered


class TestBatchedGreps:
    def test_each_result_matches_its_own_ledger(self, log_b):
        plans = [build_plan(command, OutputMode.ANALYZE) for command in GREPS]
        log_b.clear_query_cache()
        results, _ = log_b.executor.run_plans(plans)
        for result in results:
            assert inflated(result.stats) == ledger_inflated(result.ledger)
            stats = result.stats
            assert stats.capsules_filtered <= stats.capsules_considered
        # Match is charged to the first plan that asks for a term, so
        # the batch's searches land on some plan, not on the batch.
        assert sum(r.stats.capsules_considered for r in results) > 0

    def test_a_plan_alone_matches_its_ledger(self, log_b):
        for command in GREPS:
            log_b.clear_query_cache()
            result = log_b.explain_analyze(command)
            assert inflated(result.stats) == ledger_inflated(result.ledger)
