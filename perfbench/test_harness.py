"""Tests of the benchmark harness itself (not of the program)::

    python -m pytest perfbench -q        # under a minute

They run every workload at ``--scale 0.02`` through the driver's command
line, and check the pieces a wrong benchmark would get wrong silently:
determinism in the seed, the self-time arithmetic, the names in
``BENCHMARK.json``, and that tracing leaves the program as it found it.
"""

from __future__ import annotations

import importlib
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import diff  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = run.load_spec()
WORKLOAD_NAMES = [entry["name"] for entry in SPEC["workloads"]]
_RUNS: dict = {}


def drive(workload: str, seed: int = 11, trace: int = 0) -> dict:
    """One small driver-style run, memoized across tests."""
    key = (workload, seed, trace)
    if key not in _RUNS:
        done = subprocess.run(
            [
                sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
                "--scale", "0.02",
            ],
            stdout=subprocess.PIPE, text=True, check=False, timeout=120,
        )
        lines = done.stdout.strip().splitlines()
        assert done.returncode == 0, done.stdout[-2000:]
        record = json.loads(lines[-1])
        record["detail"] = next(
            json.loads(l[len("detail "):]) for l in lines if l.startswith("detail ")
        )
        record["printed"] = {l.split()[1] for l in lines[:-1] if l.startswith(workload + " ")}
        _RUNS[key] = record
    return _RUNS[key]


@pytest.fixture()
def repro_importable():
    """``run.bootstrap()`` for in-process tests, undone afterwards."""
    environ, path = dict(os.environ), list(sys.path)
    run.bootstrap()
    yield
    os.environ.clear()
    os.environ.update(environ)
    sys.path[:] = path


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_spec_names_are_well_formed_and_unique():
    names = WORKLOAD_NAMES + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25


def test_spec_workloads_match_the_code(repro_importable):
    import workloads

    assert WORKLOAD_NAMES == [w.name for w in workloads.WORKLOADS]
    assert [e["why"] for e in SPEC["workloads"]] == [w.why for w in workloads.WORKLOADS]


def test_self_time_metrics_partition_the_span_names():
    span_names = sorted({point[3] for point in tracing.WRAP_POINTS})
    mapped = sorted(n for names in run.SELF_TIME_METRICS.values() for n in names)
    assert mapped == span_names
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(run.SELF_TIME_METRICS) <= per_layer


# ----------------------------------------------------------------------
# every workload, through the driver's command line
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    record = drive(workload)
    assert set(record) == {"correct", "attempted", "failed", "metrics", "detail", "printed"}
    assert record["correct"] is True and record["failed"] == 0 and record["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in record["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in record["metrics"].values())
    assert set(wanted) | {"failed_share"} <= record["printed"]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_emits_every_per_layer_metric(workload):
    record = drive(workload, trace=1)
    assert record["correct"] is True
    assert set(record["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert set(record["metrics"]) <= record["printed"]
    values = {k: v["value"] for k, v in record["metrics"].items()}
    assert values["trace_overhead"] > 0
    cold = workload in ("query-needle", "query-broad")
    if cold:
        assert values["query.cache.query_hits"] == 0 and values["query.cache.box_hits"] == 0
    if workload == "query-refine":
        assert values["query.cache.query_hits"] > 0 and values["query.cache.box_hits"] > 0
    if workload == "ingest-stream":
        assert values["core.streaming.append_self_s"] > 0 and values["core.streaming.seals"] > 0
    trace_file = os.path.join(run.OUT_DIR, f"trace-{workload}.json")
    with open(trace_file, "r", encoding="utf-8") as fh:
        dumped = json.load(fh)
    assert dumped["spans"] and all(len(row) == 5 for row in dumped["spans"])


def test_same_seed_same_inputs_and_bytes_other_seed_other_corpus():
    first = drive("query-needle", seed=11)
    _RUNS.pop(("query-needle", 11, 0))
    again = drive("query-needle", seed=11)
    other = drive("query-needle", seed=12)
    for key in ("ops", "raw_bytes", "stored_bytes", "hits_per_pass", "lines"):
        assert first["detail"][key] == again["detail"][key]
    assert (
        first["metrics"]["compression_ratio"]["value"]
        == again["metrics"]["compression_ratio"]["value"]
    )
    assert other["detail"]["raw_bytes"] != first["detail"]["raw_bytes"]
    assert other["detail"]["ops"] != first["detail"]["ops"]


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/ the
    benchmark must fail without printing a result."""
    import shutil

    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-needle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout


# ----------------------------------------------------------------------
# oracle, tracer, diff
# ----------------------------------------------------------------------
def test_oracle_prefilter_agrees_with_the_reference_evaluator(repro_importable):
    import workloads
    from repro.baselines.evalutil import line_matches
    from repro.query.language import parse_query

    for name in ("query-needle", "query-broad", "query-refine"):
        workload = workloads.workload_by_name(name)
        corpora = workloads.make_corpora(workload, 11, 0.02)
        for op in workloads.make_ops(workload, corpora, 11):
            lines = corpora[op.corpus].lines
            command = parse_query(op.command)
            reference = [i for i, line in enumerate(lines) if line_matches(command, line)]
            assert workloads.oracle_ids(op.command, lines) == reference, op


def test_self_time_is_duration_minus_child_covered_interval():
    root = ["core.grep", 0.0, 10.0, None, 0]
    block = ["query.executor.execute_block", 1.0, 9.0, root, 0]
    scan_a = ["query.matcher.search_capsule", 2.0, 4.0, block, 0]
    scan_b = ["query.matcher.search_capsule", 3.0, 6.0, block, 0]  # overlaps scan_a
    read = ["blockstore.get_range", 3.5, 3.75, scan_b, 0]
    late = ["capsule.open", 8.5, 9.5, block, 0]  # outlives its parent: clipped
    other_thread = ["capsule.codec", 0.0, 2.0, None, 0]
    spans = [root, block, scan_a, scan_b, read, late, other_thread]
    self_s = tracing.self_times(spans)
    assert self_s["core.grep"] == pytest.approx(2.0)
    assert self_s["query.executor.execute_block"] == pytest.approx(8.0 - 4.0 - 0.5)
    assert self_s["query.matcher.search_capsule"] == pytest.approx(2.0 + 3.0 - 0.25)
    assert self_s["blockstore.get_range"] == pytest.approx(0.25)
    assert tracing.root_seconds(spans) == pytest.approx(12.0)
    assert tracing.layer_of("query.matcher.search_capsule") == "query.matcher"
    rows = tracing.spans_as_rows(spans)
    assert rows[4][3] == 3 and rows[0][3] is None


def test_trace_wrappers_are_fully_removed(repro_importable):
    def current():
        out = []
        for module_name, class_name, attr, _, _ in tracing.WRAP_POINTS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            out.append(vars(owner)[attr])
        return out

    before = current()
    tracer = tracing.Tracer()
    tracer.install()
    assert all(a is not b for a, b in zip(before, current()))
    tracer.uninstall()
    assert all(a is b for a, b in zip(before, current()))
    assert tracer.spans == []


def test_diff_verdicts():
    def result(value, spread):
        body = {"value": value, "unit": "ms", "spread": spread}
        row = {"end_to_end": {"query_p50_ms": body}, "per_layer": {}, "attempted": 10, "failed": 0}
        return {"workloads": {"query-needle": row}}

    spec = {
        "workloads": [{"name": "query-needle"}],
        "end_to_end": [{"name": "query_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10}],
        "per_layer": [],
    }

    def last_word(a, b):
        return [l for l in diff.compare(a, b, spec) if "query_p50_ms" in l][0].split()[-1]

    assert last_word(result(10.0, 0.01), result(10.5, 0.02)) == "ok"
    assert last_word(result(10.0, 0.01), result(8.0, 0.02)) == "ok"
    assert last_word(result(10.0, 0.01), result(11.5, 0.02)) == "worse"
    assert last_word(result(10.0, 0.01), result(10.1, 0.20)) == "unresolved"
    assert diff.verdict({"value": 5.0}, {"value": 4.0}, "higher", 0.07) == "worse"
