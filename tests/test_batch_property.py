"""Property tests for the multi-plan block pass.

The invariant: for ANY mix of grep/count/aggregate plans, ANY plan
order and ANY warm/cold/evicting query-cache state — including across
a concurrent ``lifecycle demote`` that rewrites every block — running
the plans together is result-identical to running each alone on a
handle that caches nothing.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import LogGrep, LogGrepConfig
from repro.baselines.evalutil import grep_lines
from repro.query.aggregate import AggregateSpec
from repro.query.cache import QueryCache
from repro.query.modes import AggregateKind
from repro.query.plan import (
    OutputMode,
    build_aggregate_plan,
    build_plan,
)
from tests.conftest import make_mixed_lines

QUERIES = [
    "ERROR",
    "read",
    "state: ERR",
    "code=3",
    "ERROR OR read",
    "read NOT bk.0F",
    "bk.?F.1*",
    "no-such-needle-xyz",
]

SPECS = [
    AggregateSpec(AggregateKind.COUNT_BY, "2"),
    AggregateSpec(AggregateKind.TOP_K, "2", k=3),
]


@st.composite
def plan_mixes(draw):
    """A random batch: (kind, query) pairs over the shared vocabulary."""
    n = draw(st.integers(min_value=1, max_value=6))
    mix = []
    for _ in range(n):
        kind = draw(st.sampled_from(["lines", "count", "aggregate"]))
        query = draw(st.sampled_from(QUERIES))
        spec = draw(st.sampled_from(SPECS))
        mix.append((kind, query, spec))
    return mix


def build(kind, query, spec):
    if kind == "lines":
        return build_plan(query, OutputMode.LINES)
    if kind == "count":
        return build_plan(query, OutputMode.COUNT)
    return build_aggregate_plan(
        spec, None if query == "no-such-needle-xyz" else query
    )


def outcome(plan, result):
    """A comparable projection of one ExecutionResult."""
    if plan.aggregate is not None:
        partial = result.aggregate
        return (
            "agg",
            partial.finalize(plan.aggregate) if partial else None,
            result.count,
        )
    if plan.mode is OutputMode.COUNT:
        return ("count", result.count)
    return ("lines", result.entries)


def reference(store, config, plans, lines):
    """Each plan alone, cold: a cache-less handle over the same store,
    itself pinned to grep over the raw lines."""
    oracle = LogGrep(store=store, config=replace(config, use_query_cache=False))
    want = [outcome(p, oracle.executor.run(p)) for p in plans]
    for plan, value in zip(plans, want):
        if value[0] == "lines":
            assert [t for _, t in value[1]] == grep_lines(plan.raw, lines)
        elif value[0] == "count":
            assert value[1] == len(grep_lines(plan.raw, lines))
    return want


class TestBatchProperty:
    # cache_capacity=8 is the eviction-churn case: a block's shape plus a
    # handful of terms overflow the LRU mid-pass, so warm paths cross
    # eviction boundaries constantly and any stale or half-evicted state
    # shows up as a wrong answer.
    @pytest.mark.parametrize("cache_capacity", [4096, 8])
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow, HealthCheck.function_scoped_fixture
        ],
    )
    @given(mix=plan_mixes(), seed=st.integers(min_value=0, max_value=10_000))
    def test_together_equals_alone(self, cache_capacity, mix, seed):
        lines = make_mixed_lines(250, seed=seed % 7)
        config = LogGrepConfig(block_bytes=2 * 1024)
        lg = LogGrep(config=config, fragments=QueryCache(cache_capacity))
        lg.compress(lines)
        plans = [build(*entry) for entry in mix]
        want = reference(lg.store, config, plans, lines)
        # Any plan order: runs are order-insensitive, so
        # executing a shuffled list and unshuffling must change nothing.
        order = list(range(len(plans)))
        random.Random(seed).shuffle(order)
        results, _ = lg.executor.run_plans([plans[i] for i in order])
        got = [None] * len(plans)
        for pos, i in enumerate(order):
            got[i] = outcome(plans[i], results[pos])
        assert got == want
        # Warm rerun (query cache as populated as its bound allows), then
        # each plan as a run of one over the same warm cache.
        rerun, _ = lg.executor.run_plans(plans)
        assert [outcome(p, r) for p, r in zip(plans, rerun)] == want
        assert [outcome(p, lg.executor.run(p)) for p in plans] == want
        assert len(lg.fragments) <= cache_capacity

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(plan_mixes(), st.sampled_from(["warm", "cold"]))
    def test_together_equals_alone_across_demote(self, mix, tier_name):
        """A lifecycle demotion between two runs rewrites blocks under
        new names; the second run must stay exact — on the handle that
        was held across it and on a fresh one sharing its cache, whose
        entries are keyed by the replaced names."""
        from repro.core.lifecycle import LifecycleManager, Tier

        lines = make_mixed_lines(250, seed=23)
        lg = LogGrep(config=LogGrepConfig(block_bytes=2 * 1024))
        lg.compress(lines)
        plans = [build(*entry) for entry in mix]
        # Warm the query cache pre-demotion.
        lg.executor.run_plans(plans)
        manager = LifecycleManager(lg.store, lg.config)
        manager.demote(Tier(tier_name))
        want = reference(lg.store, lg.config, plans, lines)
        reader = LogGrep(
            store=lg.store, config=lg.config, fragments=lg.fragments
        )
        for handle in (lg, reader):
            results, _ = handle.executor.run_plans(plans)
            assert [outcome(p, r) for p, r in zip(plans, results)] == want
