"""Tests for the per-run Locator memo (``repro.query.vectors.LocateMemo``).

One memo serves one executor run: every vector asking the §5.1 Locator
the same question — same pattern, same sub-variable stamps, same
fragment and mode — gets one answer, computed once.  The memo must never
change a result or a counter, and must die with the run.
"""

import gc
import json
import os
import pathlib
import random
import sys
import types
import weakref

import pytest

from repro.baselines.evalutil import grep_lines
from repro.core.config import LogGrepConfig
from repro.core.loggrep import LogGrep
from repro.query import vectors as vectors_module
from repro.query.executor import QueryExecutor

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
#: The counters of every perfbench op, one JSON row per op; the memo
#: must reproduce them exactly.  Last re-recorded when case-sensitive
#: wildcard keywords began to take the vector stamp gate (only wildcard
#: ops moved: ``capsules_filtered`` rose and ``capsules_decompressed``
#: fell or held; ``candidates_evaluated`` did not move).  ``PYTHONPATH=src python tests/test_locate_memo.py
#: > tests/golden/locate_counters.jsonl`` records them from the
#: checked-out code.
GOLDEN = pathlib.Path(__file__).parent / "golden" / "locate_counters.jsonl"

#: QueryStats counters the memo must leave exactly as they were.
COUNTERS = (
    "candidates_evaluated",
    "capsules_considered",
    "capsules_filtered",
    "fallback_scans",
    "capsules_decompressed",
)


def _split_stamp_archive():
    """Two blocks whose ``blk_<*>`` vectors share a pattern record but not
    a stamp: digits only in block 0, lowercase letters only in block 1."""
    rng = random.Random(3)
    lines = [f"read blk_{rng.randrange(10**6):06d} ok" for _ in range(400)] + [
        "read blk_" + "".join(rng.choice("abcdef") for _ in range(6)) + " ok"
        for _ in range(400)
    ]
    lg = LogGrep(config=LogGrepConfig(block_bytes=7600))
    lg.compress(lines)
    return lg, lines


@pytest.fixture
def recorded_memos(monkeypatch):
    """Weak references to the memo of every settings object the
    executor creates."""
    made = []
    real = QueryExecutor._settings

    class Tracked(dict):
        pass  # a plain dict cannot be weakly referenced

    def tracking(self):
        settings = real(self)
        settings.locate_memo = Tracked()
        made.append(weakref.ref(settings.locate_memo))
        return settings

    monkeypatch.setattr(QueryExecutor, "_settings", tracking)
    return made, Tracked


@pytest.fixture
def locate_calls(monkeypatch):
    """The question of every call that reaches the Locator through the
    vector readers: (pattern elements, stamps, fragment, mode)."""
    calls = []
    real = vectors_module.locate

    def counting(pattern, stamps, fragment, mode, **kwargs):
        calls.append((tuple(pattern.elements), tuple(stamps), fragment, mode))
        return real(pattern, stamps, fragment, mode, **kwargs)

    monkeypatch.setattr(vectors_module, "locate", counting)
    return calls


class TestStampsAreInTheKey:
    def test_precondition_same_pattern_different_stamps(self):
        lg, _ = _split_stamp_archive()
        vectors = [
            lg.executor.load_box(name).groups[0].vectors[0]
            for name in lg.store.names()
        ]
        assert len(vectors) == 2
        assert vectors[0].pattern == vectors[1].pattern
        stamps = [[c.stamp for c in v.subvar_capsules] for v in vectors]
        assert stamps[0] != stamps[1]

    @pytest.mark.parametrize(
        "command",
        ["blk_a", "blk_1", "blk_", "read blk_f", "k_0", "b ok", "blk_1 or blk_c"],
    )
    def test_results_equal_the_raw_line_oracle(self, command, locate_calls):
        lg, lines = _split_stamp_archive()
        result = lg.grep(command)
        assert result.lines == grep_lines(command, lines)

    def test_one_locate_per_distinct_question(self, locate_calls):
        lg, _ = _split_stamp_archive()
        # Both fragments pass both vectors' stamps (a digit-only fragment
        # would be answered by the letters-only vector's stamp before the
        # Locator is asked), so every vector asks both questions.
        lg.grep("blk_a or blk_b")
        assert len(locate_calls) >= 4  # two keys x two fragments
        assert len(set(locate_calls)) == len(locate_calls)

    def test_a_repeated_vector_is_located_once(self, locate_calls):
        # Three blocks of one shape: same record, same stamps, so only
        # the first block pays for the Locator.
        lg, lines = _same_shape_archive()
        assert lg.grep("blk_1").lines == grep_lines("blk_1", lines)
        assert len(locate_calls) == 1


def _same_shape_archive():
    """Three blocks of random six-digit ``blk_`` ids."""
    rng = random.Random(4)
    lines = [f"read blk_{rng.randrange(10**6):06d} ok" for _ in range(1200)]
    lg = LogGrep(config=LogGrepConfig(block_bytes=7600))
    lg.compress(lines)
    assert len(lg.store.names()) == 3
    return lg, lines


class TestLifetime:
    def test_nothing_reachable_from_the_handle_holds_the_memo(self, recorded_memos):
        made, tracked = recorded_memos
        lg, _ = _split_stamp_archive()
        lg.grep("blk_a")
        assert made
        assert not [obj for obj in _reachable(lg) if isinstance(obj, tracked)]
        gc.collect()
        assert all(ref() is None for ref in made)

    def test_cold_queries_stay_cold(self, locate_calls):
        lg, _ = _split_stamp_archive()
        lg.grep("blk_a")
        first = len(locate_calls)
        assert first
        lg.clear_query_cache()
        lg.grep("blk_a")
        assert len(locate_calls) == 2 * first


def _reachable(root):
    """Every object reachable from *root* through instance state and
    containers (not through functions, classes or modules)."""
    skip = (
        type,
        types.ModuleType,
        types.FunctionType,
        types.BuiltinFunctionType,
        types.CodeType,
    )
    seen, stack, out = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        out.append(obj)
        if not isinstance(obj, skip):
            stack.extend(gc.get_referents(obj))
    return out


# ----------------------------------------------------------------------
# the perfbench op lists: counters equal the recorded ones
# ----------------------------------------------------------------------
SEED = 5
SCALE = 0.04
#: Small blocks, so each archive spans several and the memo is shared
#: across blocks as it is in the benchmark.
BLOCK_BYTES = 4096


def _workloads_module():
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    return workloads


def _op_counters():
    """``[workload, command, counters]`` of a cold ``grep``, per op of the
    six perfbench op lists at one seed."""
    workloads = _workloads_module()
    archives = {}
    out = []
    for workload in workloads.WORKLOADS:
        corpora = workloads.make_corpora(workload, SEED, SCALE)
        handles = []
        for corpus in corpora:
            key = (corpus.name, tuple(corpus.lines))
            if key not in archives:
                archives[key] = LogGrep(config=LogGrepConfig(block_bytes=BLOCK_BYTES))
                archives[key].compress(corpus.lines)
            handles.append(archives[key])
        for op in workloads.make_ops(workload, corpora, SEED):
            lg = handles[op.corpus]
            lg.clear_query_cache()
            stats = lg.grep(op.command).stats
            out.append(
                [workload.name, op.command, [getattr(stats, n) for n in COUNTERS]]
            )
    return out


def _header():
    return {
        "seed": SEED,
        "scale": SCALE,
        "block_bytes": BLOCK_BYTES,
        "counters": list(COUNTERS),
    }


def test_counters_equal_the_recorded_ones():
    header, *golden = map(json.loads, GOLDEN.read_text(encoding="utf-8").splitlines())
    assert header == _header()
    counters = _op_counters()
    assert len(counters) > 50  # ingest-stream's op list is empty
    assert counters == golden


if __name__ == "__main__":
    for row in [_header(), *_op_counters()]:
        print(json.dumps(row))
