"""Tests for the per-query resource ledger, budgets and the slow-query log."""

import dataclasses
import json
import threading

import pytest

from repro import LogGrep, LogGrepConfig
from repro.blockstore.store import MemoryStore
from repro.common.errors import BudgetExceeded
from repro.obs import ledger as ledger_channel
from repro.obs.metrics import get_registry
from repro.query.plan import OutputMode
from repro.query.stats import (
    NULL_LEDGER,
    OPERATORS,
    BudgetMeter,
    NullQueryLedger,
    OperatorStats,
    QueryLedger,
)
from tests.conftest import make_mixed_lines

CONFIG = LogGrepConfig(block_bytes=8 * 1024)


def make_lg(**overrides):
    config = LogGrepConfig(block_bytes=8 * 1024, **overrides)
    lg = LogGrep(store=MemoryStore(), config=config)
    lg.compress(make_mixed_lines(700, seed=21))
    return lg


# ----------------------------------------------------------------------
# unit: ledger bookkeeping
# ----------------------------------------------------------------------
class TestOperatorStats:
    def test_merge_covers_every_field(self):
        """Drift test: merge must aggregate every dataclass field."""
        a = OperatorStats(**{f.name: 1 for f in dataclasses.fields(OperatorStats)})
        b = OperatorStats(**{f.name: 2 for f in dataclasses.fields(OperatorStats)})
        a.merge(b)
        for f in dataclasses.fields(OperatorStats):
            assert getattr(a, f.name) == 3, f"merge dropped {f.name}"


class TestQueryLedger:
    def test_operator_context_times_and_routes_charges(self):
        ledger = QueryLedger()
        with ledger.operator("locate"):
            ledger_channel.charge_read(100)
            ledger_channel.charge_rows_scanned(7)
            with ledger.operator("match"):
                ledger_channel.charge_read(50)
            # after the nested operator exits, charges land on locate again
            ledger_channel.charge_decompress(30)
        assert ledger_channel.current_entry() is None
        locate = ledger.operators["locate"]
        match = ledger.operators["match"]
        assert locate.read_bytes == 100 and match.read_bytes == 50
        assert locate.rows_scanned == 7
        assert locate.bytes_decompressed == 30
        assert locate.calls == 1 and match.calls == 1
        assert locate.seconds > 0.0
        assert ledger.read_bytes == 150

    def test_spawn_and_merge_children(self):
        root = QueryLedger()
        results = []

        def work(i):
            child = root.spawn()
            with child.operator("match"):
                ledger_channel.charge_read(10 * (i + 1))
            results.append(child)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert root.read_bytes == 0
        root.merge_children()
        assert root.read_bytes == 10 + 20 + 30 + 40
        assert root.operators["match"].calls == 4
        root.merge_children()  # idempotent: children were drained
        assert root.read_bytes == 100

    def test_ordered_operators_follow_pipeline_order(self):
        ledger = QueryLedger()
        for name in ("reconstruct", "plan", "match", "load_box"):
            with ledger.operator(name):
                pass
        names = [name for name, _ in ledger.ordered_operators()]
        assert names == ["plan", "load_box", "match", "reconstruct"]
        assert set(names) <= set(OPERATORS)

    def test_as_dict_shape(self):
        ledger = QueryLedger(BudgetMeter(max_read_bytes=100))
        with ledger.operator("locate"):
            ledger_channel.charge_read(60)
        ledger.charge_cache("value", True)
        doc = ledger.as_dict()
        assert doc["operators"]["locate"]["read_bytes"] == 60
        assert doc["totals"]["read_bytes"] == 60
        assert doc["caches"]["value"] == {"hits": 1, "misses": 0}
        assert doc["budget"]["max_read_bytes"] == 100
        assert doc["budget"]["read_bytes"] == 60
        json.dumps(doc)  # must be JSON-serializable as-is

    def test_null_ledger_is_inert(self):
        before = ledger_channel.current_entry()
        with NULL_LEDGER.operator("locate"):
            assert ledger_channel.current_entry() is before
            ledger_channel.charge_read(100)  # goes nowhere, raises nothing
        assert NULL_LEDGER.spawn() is NULL_LEDGER
        NULL_LEDGER.merge_children()
        assert not NULL_LEDGER.enabled
        assert NULL_LEDGER.operators == {}
        assert isinstance(NULL_LEDGER, NullQueryLedger)


class TestBudgetMeter:
    def test_charges_raise_past_the_limit(self):
        meter = BudgetMeter(max_read_bytes=100, max_decoded_values=5)
        meter.charge_read(100)  # exactly at the limit: fine
        with pytest.raises(BudgetExceeded) as info:
            meter.charge_read(1)
        assert info.value.resource == "read_bytes"
        assert info.value.limit == 100
        assert info.value.spent == 101
        with pytest.raises(BudgetExceeded):
            meter.charge_decoded(6)

    def test_unset_limits_never_raise(self):
        meter = BudgetMeter()
        meter.charge_read(1 << 40)
        meter.charge_decoded(1 << 40)
        # Unbudgeted dimensions are not even tracked (no lock taken).
        assert meter.read_bytes == 0 and meter.decoded_values == 0


# ----------------------------------------------------------------------
# end to end: accounting through the executor
# ----------------------------------------------------------------------
class TestLedgerEndToEnd:
    def test_grep_uses_null_ledger_by_default(self):
        lg = make_lg()
        result = lg.grep("ERROR")
        assert result.ledger is NULL_LEDGER
        assert ledger_channel.current_entry() is None

    def test_analyze_read_bytes_reconcile_with_store_metric(self):
        """Acceptance: summed read_bytes == range-read counter delta (±1%)."""
        lg = make_lg()
        counter = get_registry().counter("loggrep_store_range_read_bytes_total")
        before = counter.value()
        result = lg.explain_analyze("ERROR")
        delta = counter.value() - before
        assert delta > 0
        total = result.ledger.totals().read_bytes
        assert total == pytest.approx(delta, rel=0.01)
        # The table in the report carries the same total.
        assert f"{total}" in result.report
        assert "resource ledger" in result.report

    def test_analyze_matches_grep_results(self):
        lg = make_lg()
        expected = lg.grep("ERROR")
        lg.clear_query_cache()
        analyzed = lg.explain_analyze("ERROR")
        assert analyzed.lines == expected.lines
        assert analyzed.line_ids == expected.line_ids
        assert analyzed.ledger.enabled
        # Every pipeline stage that ran shows up under its canonical name.
        names = set(analyzed.ledger.operators)
        assert {"plan", "load_box", "locate", "match", "reconstruct"} <= names
        assert names <= set(OPERATORS)

    def test_parallel_ledger_matches_serial(self):
        """-j merging: totals are identical to the serial execution."""
        lines = make_mixed_lines(700, seed=22)
        serial = LogGrep(store=MemoryStore(), config=CONFIG)
        serial.compress(lines)
        parallel = LogGrep(
            store=MemoryStore(),
            config=LogGrepConfig(block_bytes=8 * 1024, query_parallelism=4),
        )
        parallel.compress(lines)
        a = serial.explain_analyze("ERROR").ledger
        b = parallel.explain_analyze("ERROR").ledger
        ta, tb = a.totals(), b.totals()
        for spec in dataclasses.fields(OperatorStats):
            if spec.name == "seconds":
                continue  # wall time legitimately differs
            assert getattr(ta, spec.name) == getattr(tb, spec.name), spec.name
        assert a.decoded_values == b.decoded_values

    def test_ledger_rows_scanned(self):
        """Capsule scans charge the rows they cover to the ledger.

        The keyword must land in a variable vector (``ERROR`` sits in the
        static template and is matched without any capsule scan).
        """
        assert make_lg().explain_analyze("32.log").ledger.rows_scanned > 0

    def test_count_mode_with_threshold_gets_a_ledger(self):
        lg = make_lg(slow_query_ms=10_000.0)
        result = lg._executor.run("ERROR", OutputMode.COUNT)
        assert result.ledger.enabled
        assert result.ledger.totals().read_bytes > 0


# ----------------------------------------------------------------------
# budgets
# ----------------------------------------------------------------------
class TestBudgets:
    def test_read_budget_aborts_with_partial_ledger(self):
        lg = make_lg(max_read_bytes=1500)
        with pytest.raises(BudgetExceeded) as info:
            lg.grep("ERROR")
        exc = info.value
        assert exc.resource == "read_bytes"
        assert exc.spent > exc.limit == 1500
        assert exc.ledger is not None and exc.ledger.enabled
        assert exc.ledger.totals().read_bytes >= exc.limit

    def test_read_budget_aborts_under_parallelism(self):
        lg = make_lg(max_read_bytes=1500, query_parallelism=4)
        with pytest.raises(BudgetExceeded) as info:
            lg.grep("ERROR")
        assert info.value.ledger.totals().read_bytes > 0

    def test_decoded_values_budget(self):
        lg = make_lg(max_decoded_values=1)
        with pytest.raises(BudgetExceeded) as info:
            lg.grep("ERROR")
        assert info.value.resource == "decoded_values"
        assert info.value.ledger.decoded_values > 1

    def test_generous_budget_does_not_fire(self):
        lg = make_lg(max_read_bytes=1 << 30, max_decoded_values=1 << 30)
        result = lg.grep("ERROR")
        assert result.count > 0
        assert result.ledger.enabled
        assert result.ledger.budget is not None
        assert 0 < result.ledger.budget.read_bytes < (1 << 30)


# ----------------------------------------------------------------------
# slow-query log
# ----------------------------------------------------------------------
class TestSlowQueryLog:
    def test_over_threshold_query_emits_exactly_one_record(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        lg = make_lg(slow_query_ms=0.0, slow_query_log_path=str(path))
        counter = get_registry().counter("loggrep_slow_queries_total")
        before = counter.value()
        result = lg.grep("ERROR")
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert len(records) == 1
        record = records[0]
        assert record["query"] == "ERROR"
        assert record["mode"] == "lines"
        assert record["elapsed_ms"] >= record["threshold_ms"] == 0.0
        assert "physical plan" in record["plan"]
        assert record["stats"]["blocks_visited"] == result.stats.blocks_visited
        assert (
            record["ledger"]["totals"]["read_bytes"]
            == result.ledger.totals().read_bytes
        )
        assert counter.value() == before + 1

    def test_under_threshold_query_emits_nothing(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        lg = make_lg(slow_query_ms=60_000.0, slow_query_log_path=str(path))
        result = lg.grep("ERROR")
        assert result.ledger.enabled  # threshold still activates accounting
        assert not path.exists()

    def test_fallback_to_logging(self, caplog):
        import logging

        lg = make_lg(slow_query_ms=0.0)
        with caplog.at_level(logging.WARNING, logger="repro.slowlog"):
            lg.grep("ERROR")
        slow = [r for r in caplog.records if "slow query" in r.getMessage()]
        assert len(slow) == 1
