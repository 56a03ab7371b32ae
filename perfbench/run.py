#!/usr/bin/env python3
"""The repo's benchmark: six workloads, five end-to-end metrics, and a
per-layer trace taken from outside the program.

One workload, the way the driver calls it (one JSON object on the last
line of standard output)::

    python3 perfbench/run.py --workload query-needle --seed 11 --seconds 8 --trace 0

All six workloads, each run in its own subprocess, one printed line per
(workload, metric), results in ``perfbench/out/result.json``::

    python3 perfbench/run.py [--trace 1] [--repeat 3] [--baselines] [--out FILE]

Harness rules: single process, closed loop, one client;
``compress_parallelism=1`` and every ``LOGGREP_*`` variable scrubbed
before ``repro`` is imported; an on-disk ``ArchiveStore`` in a fresh
directory under ``perfbench/out`` with the flush policy of
``ArchiveStore.put`` as it stands (open/write/close, no fsync); garbage
collection on, with one ``gc.collect()`` before each timed section.  The
metric and workload names, units and bounds live in ``BENCHMARK.json``;
this file emits exactly those.  See README.md for the design.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# Siblings of this file; neither imports ``repro``, which only becomes
# importable once bootstrap() has run.
from speed import slowdown
from tracing import Tracer, root_seconds, self_times, spans_as_rows

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: Set-up (opening the archives) is repeated this often per run and
#: reported as the median.
SETUP_REPEATS = 15

#: Per-layer self-time metric -> the span names it sums.  Every span name
#: of tracing.WRAP_POINTS appears exactly once, so these metrics partition
#: the traced wall time of the main thread.
SELF_TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "core.self_s": ("core.compress", "core.grep", "core.count"),
    "staticparse.self_s": ("staticparse.parse_block",),
    "runtime.self_s": (
        "runtime.classify", "runtime.extract_real_pattern", "runtime.extract_nominal",
    ),
    "capsule.encode_self_s": ("capsule.encode_vector",),
    "capsule.codec_self_s": ("capsule.codec",),
    "capsule.serialize_self_s": ("capsule.serialize",),
    "capsule.open_self_s": ("capsule.open", "capsule.prefetch"),
    "capsule.decode_self_s": ("capsule.decompress", "capsule.values"),
    "blockstore.write_self_s": ("blockstore.put", "blockstore.put_aux"),
    "blockstore.read_self_s": (
        "blockstore.get", "blockstore.get_aux", "blockstore.get_range",
    ),
    "blockstore.index_self_s": ("blockstore.summary",),
    "core.streaming.append_self_s": ("core.streaming.append",),
    "core.streaming.tail_build_self_s": ("core.streaming.tail_build",),
    "core.streaming.other_self_s": ("core.streaming.open_reader", "core.streaming.close"),
    "query.plan.self_s": ("query.plan.build_plan",),
    "query.executor.self_s": ("query.executor.execute_block",),
    "query.blockfilter.self_s": ("query.blockfilter.summary_might_match",),
    "query.engine.self_s": ("query.engine.execute",),
    "query.locator.self_s": ("query.locator.locate",),
    "query.matcher.self_s": ("query.matcher.search_capsule",),
    "core.reconstructor.self_s": ("core.reconstructor.reconstruct",),
}

#: Registry counters read as deltas over the traced passes.
CACHE_COUNTERS = {
    "query.cache.query_hits": ("loggrep_query_cache_hits_total",),
    "query.cache.query_misses": ("loggrep_query_cache_misses_total",),
    "query.cache.box_hits": ("loggrep_box_cache_hits_total",),
    "query.cache.box_misses": ("loggrep_box_cache_misses_total",),
    "query.cache.evictions": (
        "loggrep_query_cache_evictions_total", "loggrep_box_cache_evictions_total",
    ),
}


def bootstrap() -> None:
    """Make ``repro`` importable and pin what is measured: no CI leg's
    ``LOGGREP_*`` variable may change the configuration under test."""
    for key in list(os.environ):
        if key.startswith("LOGGREP_") or key == "REPRO_SCALE":
            del os.environ[key]
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"perfbench: {src}/repro not found; run from a full checkout")
    for path in (src, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 1])."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def dir_bytes(path: str) -> int:
    """Every byte under *path*, sidecar and aux blobs included."""
    return sum(
        os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)
    )


def timed_passes(one_pass: Callable[[], float], budget: float) -> int:
    """Run whole passes until *budget* seconds are used (at least one).

    A new pass starts only while half of the previous pass still fits,
    so the phase ends within half a pass of its budget.  Returns the
    number of passes run.
    """
    start = time.perf_counter()
    done = 0
    last = 0.0
    while done == 0 or (time.perf_counter() - start) + 0.5 * last < budget:
        last = one_pass()
        done += 1
    return done


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
class WorkloadRun:
    """State of one workload run: inputs, archives, samples, failures.

    Every timing kept here is in seconds at reference speed (speed.py):
    the wall time of a unit of work divided by the machine's slowdown
    measured just before and just after it.
    """

    def __init__(self, workload, seed: int, traced: bool, scale: float):
        from repro.core.config import LogGrepConfig

        self.workload = workload
        self.seed = seed
        self.scale = scale
        # --scale (tests only) shrinks blocks with the corpora so that the
        # small archives still span several blocks.
        block_bytes = int(_workloads().BLOCK_BYTES * min(1.0, scale * 5))
        self.config = LogGrepConfig(
            block_bytes=max(4096, block_bytes), compress_parallelism=1
        )
        self.tracer = Tracer() if traced else None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        os.makedirs(OUT_DIR, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
        self.corpora: list = []
        self.ops: list = []
        #: (corpus index, command) -> (line ids, line texts) of the oracle
        self.expected: Dict[Tuple[int, str], Tuple[List[int], List[str]]] = {}
        self.check_seconds = 0.0
        #: ingest-stream: per corpus, the oracle count at each tail query
        self.tail_expected: List[List[int]] = []
        self.dirs: List[str] = []
        self.handles: list = []
        self.sessions: list = []
        #: one record per ingest round / per query pass, in run order
        self.rounds: List[Dict[str, Any]] = []
        self.passes: List[Dict[str, Any]] = []
        #: operation id -> machine slowdown around that operation
        self.op_id = -1
        self.slowdowns: Dict[int, float] = {}

    # -- bookkeeping ----------------------------------------------------
    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what)

    def _op(self, func: Callable[[], Any]) -> Tuple[Any, float]:
        """Wall-time one operation; spans are recorded only inside it."""
        self.op_id += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.op_id = self.op_id
            tracer.active = True
        start = time.perf_counter()
        try:
            result = func()
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
        return result, elapsed

    def _bracketed(self, func: Callable[[], Any]) -> Tuple[Any, float, float]:
        """One operation between two slowdown readings: (result, seconds
        at reference speed, slowdown)."""
        before = slowdown()
        result, elapsed = self._op(func)
        factor = (before + slowdown()) / 2
        self.slowdowns[self.op_id] = factor
        return result, elapsed / factor, factor

    # -- set-up ---------------------------------------------------------
    def make_inputs(self) -> float:
        wl = _workloads()
        start = time.perf_counter()
        self.corpora = wl.make_corpora(self.workload, self.seed, self.scale)
        self.ops = wl.make_ops(self.workload, self.corpora, self.seed)
        if self.workload.ingest == "stream":
            every = self.tail_every()
            for index, corpus in enumerate(self.corpora):
                ids = self.oracle(index, corpus.query)[0]
                self.tail_expected.append(
                    [
                        bisect_left(ids, appended)
                        for appended in range(every, len(corpus.lines) + 1, every)
                    ]
                )
        return time.perf_counter() - start

    def tail_every(self) -> int:
        return max(1, int(_workloads().TAIL_QUERY_EVERY * min(1.0, self.scale)))

    def oracle(self, corpus: int, command: str) -> Tuple[List[int], List[str]]:
        """What grep over the raw lines returns, computed once per command."""
        key = (corpus, command)
        if key not in self.expected:
            start = time.perf_counter()
            lines = self.corpora[corpus].lines
            ids = _workloads().oracle_ids(command, lines)
            self.expected[key] = (ids, [lines[i] for i in ids])
            self.check_seconds += time.perf_counter() - start
        return self.expected[key]

    def reopen(self) -> float:
        """Open the archives of the last ingest round from disk."""
        from repro.blockstore.store import ArchiveStore
        from repro.core.loggrep import LogGrep

        def open_all() -> None:
            self.handles = [
                LogGrep(store=ArchiveStore(path), config=self.config)
                for path in self.dirs
            ]
            if self.workload.warm:
                self.sessions = [lg.open_session() for lg in self.handles]

        return self._bracketed(open_all)[1]

    # -- ingest phase ---------------------------------------------------
    def ingest_round(self) -> float:
        from repro.blockstore.store import ArchiveStore

        record: Dict[str, Any] = {"seconds": [], "stored": 0, "samples": [], "seals": 0}
        dirs = []
        wall = time.perf_counter()
        for index, corpus in enumerate(self.corpora):
            path = os.path.join(self.root, f"round{len(self.rounds)}-{index}")
            store = ArchiveStore(path)
            gc.collect()
            if self.workload.ingest == "stream":
                tail_samples: List[float] = []
                report, seconds, factor = self._bracketed(
                    lambda: self._stream(corpus, index, store, tail_samples)
                )
                record["samples"] += [sample / factor for sample in tail_samples]
                record["seals"] += report.blocks
            else:
                report, seconds, _ = self._bracketed(lambda: self._bulk(corpus, store))
            dirs.append(path)
            record["seconds"].append(seconds)
            record["stored"] += dir_bytes(path)
            self.check(
                report.raw_bytes == corpus.raw_bytes,
                f"{corpus.name}: accepted {report.raw_bytes} of {corpus.raw_bytes} raw bytes",
            )
        for path in self.dirs:
            shutil.rmtree(path)
        self.dirs = dirs
        self.rounds.append(record)
        return time.perf_counter() - wall

    def _bulk(self, corpus, store):
        from repro.core.loggrep import LogGrep

        return LogGrep(store=store, config=self.config).compress(corpus.lines)

    def _stream(self, corpus, index: int, store, tail_samples: List[float]):
        """Append line by line, count over ``sealed ∪ tail`` on a fixed
        cadence, then close; the caller's clock covers the whole loop."""
        from repro.core.streaming import StreamingCompressor

        # One encode worker: with the appending thread that is two
        # threads, never more than the reference box has cores.
        stream = StreamingCompressor(store=store, config=self.config, pipeline_depth=1)
        every = self.tail_every()
        expected = self.tail_expected[index]
        clock = time.perf_counter
        for i, line in enumerate(corpus.lines):
            stream.append(line)
            if (i + 1) % every == 0:
                start = clock()
                count = stream.open_reader(tail=True).count(corpus.query)
                tail_samples.append(clock() - start)
                self.check(
                    count == expected[(i + 1) // every - 1],
                    f"{corpus.name}: tail count after {i + 1} lines",
                )
        return stream.close()

    # -- query phase ----------------------------------------------------
    def query_pass(self) -> float:
        from repro.query.cache import get_value_cache

        warm = self.workload.warm
        ops = self.ops
        if warm:
            # One refining session per pass: the pass starts with pinned
            # boxes and empty result caches, so its hit/miss counts are a
            # function of the op list alone.
            ops = _workloads().make_ops(
                self.workload, self.corpora, self.seed, len(self.passes)
            )
            for session in self.sessions:
                session.close()
            get_value_cache().clear()
            for lg in self.handles:
                lg.clear_query_cache()
                lg.fragments.clear()
            self.sessions = [lg.open_session() for lg in self.handles]
        expected = [self.oracle(op.corpus, op.command) for op in ops]
        record: Dict[str, Any] = {"samples": [], "stats": {}}
        totals = record["stats"]
        wall = time.perf_counter()
        first_op = self.op_id + 1
        before = slowdown()
        for op, (ids, lines) in zip(ops, expected):
            lg = self.handles[op.corpus]
            if warm:
                target = self.sessions[op.corpus]
            else:
                target = lg
                lg.clear_query_cache()
                lg.unpin_blocks()
                lg.fragments.clear()
                get_value_cache().clear()
            result, elapsed = self._op(lambda: target.grep(op.command))
            record["samples"].append(elapsed)
            self.check(
                result.line_ids == ids and result.lines == lines,
                f"{self.corpora[op.corpus].name}: {op.label} {op.command!r}",
            )
            for field, value in result.stats.as_dict().items():
                totals[field] = totals.get(field, 0) + value
        factor = (before + slowdown()) / 2
        for op_id in range(first_op, self.op_id + 1):
            self.slowdowns[op_id] = factor
        record["samples"] = [sample / factor for sample in record["samples"]]
        self.passes.append(record)
        return time.perf_counter() - wall

    # -- verification of what ingest stored -----------------------------
    def verify_archives(self) -> None:
        from repro.core.reconstructor import BlockReconstructor

        settings = self.config.query_settings()
        for corpus, lg in zip(self.corpora, self.handles):
            self.check(
                lg.total_lines() == len(corpus.lines),
                f"{corpus.name}: total_lines {lg.total_lines()} != {len(corpus.lines)}",
            )
            for name in lg.store.names()[::4]:
                box = lg.executor.load_box(name)
                want = corpus.lines[box.first_line_id : box.first_line_id + box.num_lines]
                got = BlockReconstructor(box, settings).all_lines()
                self.check(got == want, f"{corpus.name}: {name} does not round-trip")
        stored = {record["stored"] for record in self.rounds}
        self.check(len(stored) == 1, f"stored bytes differ between rounds: {sorted(stored)}")

    def cleanup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def _workloads():
    import workloads

    return workloads


def run_workload(name: str, seed: int, seconds: float, traced: bool, scale: float) -> Dict[str, Any]:
    """Run one workload and return its record (metrics + detail)."""
    from repro.obs.metrics import get_registry

    workload = _workloads().workload_by_name(name)
    run = WorkloadRun(workload, seed, traced, scale)
    tracer = run.tracer
    registry = get_registry()

    def cache_counters() -> Dict[str, float]:
        return {
            metric: sum(registry.counter(c).value() for c in counters)
            for metric, counters in CACHE_COUNTERS.items()
        }

    def phase(one_pass: Callable[[], float], budget: float) -> Dict[str, Any]:
        """Untraced: whole passes until the budget.  Traced: one untraced
        reference pass, then traced passes for the rest of the budget."""
        gc.collect()
        if tracer is None:
            return {"passes": timed_passes(one_pass, budget)}
        start = time.perf_counter()
        one_pass()
        before = cache_counters()
        tracer.install()
        try:
            passes = timed_passes(one_pass, budget - (time.perf_counter() - start))
        finally:
            tracer.uninstall()
        after = cache_counters()
        spans, counts = tracer.take()
        return {
            "passes": passes, "spans": spans, "counts": counts,
            "cache": {k: after[k] - before[k] for k in after},
        }

    try:
        inputs_seconds = run.make_inputs()
        ingest_budget = seconds * workload.ingest_share
        ingest = phase(run.ingest_round, ingest_budget)
        open_seconds = [run.reopen() for _ in range(SETUP_REPEATS)]
        query = phase(run.query_pass, seconds - ingest_budget) if run.ops else {"passes": 0}
        run.verify_archives()

        # The measured passes; a traced run also has one untraced
        # reference pass per phase in front of them.
        rounds = run.rounds[-ingest["passes"] :]
        passes = run.passes[len(run.passes) - query["passes"] :]
        raw_bytes = sum(c.raw_bytes for c in run.corpora)
        stored_bytes = rounds[-1]["stored"]
        ingest_time = sum(
            statistics.median(r["seconds"][i] for r in rounds)
            for i in range(len(run.corpora))
        )
        samples = [s for record in rounds + passes for s in record["samples"]]
        end_to_end = {
            "ingest_mb_s": raw_bytes / 1e6 / ingest_time,
            "compression_ratio": raw_bytes / stored_bytes,
            "query_p50_ms": percentile(samples, 0.50) * 1000,
            "query_p95_ms": percentile(samples, 0.95) * 1000,
            "setup_s": statistics.median(open_seconds),
        }
        detail = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "scale": scale,
            "block_bytes": run.config.block_bytes,
            "flush_policy": "ArchiveStore.put as is: open/write/close, no fsync",
            "timings": "seconds at reference speed, see speed.py",
            "machine_slowdown": statistics.median(run.slowdowns.values()),
            "raw_bytes": raw_bytes,
            "stored_bytes": stored_bytes,
            "lines": sum(len(c.lines) for c in run.corpora),
            "ops": [[run.corpora[op.corpus].name, op.label, op.command] for op in run.ops],
            "hits_per_pass": sum(len(run.oracle(op.corpus, op.command)[0]) for op in run.ops),
            "ingest_rounds": len(rounds),
            "query_passes": len(passes),
            "query_samples": len(samples),
            "inputs_s": inputs_seconds,
            "check_s": run.check_seconds,
            "problems": run.problems,
        }
        record: Dict[str, Any] = {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "detail": detail,
            "metrics": end_to_end,
        }
        if tracer is not None:
            reference = sum(run.rounds[0]["seconds"]) + sum(
                run.passes[0]["samples"] if run.passes else ()
            )
            record["metrics"] = layer_metrics(run, ingest, rounds, query, passes, reference)
            dump_spans(name, seed, ingest["spans"] + query.get("spans", []))
        return record
    finally:
        if tracer is not None:
            tracer.uninstall()
        run.cleanup()


def layer_metrics(
    run: WorkloadRun,
    ingest: Dict[str, Any],
    rounds: List[Dict[str, Any]],
    query: Dict[str, Any],
    passes: List[Dict[str, Any]],
    reference: float,
) -> Dict[str, float]:
    """Per-layer metrics of the traced passes, normalised to one pass of
    the workload: one ingest round plus one pass over the op list.
    *reference* is the same pass untraced, for ``trace_overhead``."""
    n_rounds, n_passes = len(rounds), max(len(passes), 1)
    query_spans = query.get("spans", ())
    ingest_self = self_times(ingest["spans"], run.slowdowns)
    query_self = self_times(query_spans, run.slowdowns)
    ingest_counts = ingest["counts"]
    query_counts = query.get("counts", {})

    def per_pass(ingest_value: float, query_value: float) -> float:
        return ingest_value / n_rounds + query_value / n_passes

    layer: Dict[str, float] = {
        metric: per_pass(
            sum(ingest_self.get(n, 0.0) for n in names),
            sum(query_self.get(n, 0.0) for n in names),
        )
        for metric, names in SELF_TIME_METRICS.items()
    }
    layer["core.residual_share"] = layer["core.self_s"] / sum(layer.values())
    traced_wall = per_pass(
        sum(sum(r["seconds"]) for r in rounds),
        sum(sum(p["samples"]) for p in passes),
    )
    layer["trace_overhead"] = traced_wall / reference
    layer["trace_coverage"] = (
        per_pass(
            root_seconds(ingest["spans"], run.slowdowns),
            root_seconds(query_spans, run.slowdowns),
        )
        / traced_wall
    )
    for key in (
        "staticparse.lines", "runtime.vectors_real", "runtime.vectors_nominal",
        "capsule.bytes_real", "capsule.bytes_nominal", "capsule.bytes_plain",
        "blockstore.calls", "blockstore.bytes_written", "blockstore.bytes_read",
        "query.matcher.rows_scanned", "core.reconstructor.rows",
    ):
        layer[key] = per_pass(ingest_counts.get(key, 0), query_counts.get(key, 0))

    def ratio(counts: Dict[str, float], useful: str, attempts: str) -> float:
        return counts.get(useful, 0) / counts[attempts] if counts.get(attempts) else 0.0

    layer["staticparse.hit_rate"] = ratio(
        ingest_counts, "staticparse.cache_hits", "staticparse.cache_lines"
    )
    layer["runtime.pattern_share"] = ratio(
        ingest_counts, "runtime.patterns_found", "runtime.patterns_tried"
    )
    layer["blockstore.write_amp"] = (
        ingest_counts.get("blockstore.bytes_written", 0) / n_rounds / rounds[-1]["stored"]
    )
    traced_ops = sum(len(p["samples"]) for p in passes)
    layer["blockstore.read_bytes_per_query"] = (
        query_counts.get("blockstore.bytes_read", 0) / traced_ops if traced_ops else 0.0
    )
    layer["core.streaming.seals"] = sum(r["seals"] for r in rounds) / n_rounds
    for metric, field in (
        ("capsule.decompressed", "capsules_decompressed"),
        ("capsule.stamp_filtered", "capsules_filtered"),
        ("query.blockfilter.blocks_considered", "blocks_visited"),
        ("query.blockfilter.blocks_pruned", "blocks_pruned"),
    ):
        layer[metric] = sum(p["stats"].get(field, 0) for p in passes) / n_passes
    rebuilding = layer["core.reconstructor.self_s"]
    layer["core.reconstructor.rows_per_s"] = (
        layer["core.reconstructor.rows"] / rebuilding if rebuilding else 0.0
    )
    for metric in CACHE_COUNTERS:
        layer[metric] = query.get("cache", {}).get(metric, 0) / n_passes
    layer["process.peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return layer


def dump_spans(name: str, seed: int, spans: list) -> None:
    path = os.path.join(OUT_DIR, f"trace-{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": name,
                "seed": seed,
                "columns": ["name", "start", "end", "parent", "op_id"],
                "spans": spans_as_rows(spans),
            },
            fh,
        )


def emit(record: Dict[str, Any], spec: Dict[str, Any], traced: bool) -> int:
    """Print one workload's record in the driver's format; the exit code
    is non-zero when an operation failed or a named metric is missing."""
    wanted = spec["per_layer" if traced else "end_to_end"]
    detail = record["detail"]
    name = detail["workload"]
    missing = [m["name"] for m in wanted if m["name"] not in record["metrics"]]
    metrics = {
        m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
        for m in wanted
        if m["name"] not in missing
    }
    for metric, body in metrics.items():
        print(f"{name} {metric} {body['value']:.6g} {body['unit']}")
    print(
        f"{name} failed_share {record['failed']}/{record['attempted']} "
        f"samples={detail['query_samples']} rounds={detail['ingest_rounds']} "
        f"passes={detail['query_passes']}"
    )
    for problem in detail["problems"]:
        print(f"{name} FAILED {problem}")
    print("detail " + json.dumps(detail))
    if missing:
        print(f"{name}: metrics not emitted: {missing}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if record["correct"] else 1


# ----------------------------------------------------------------------
# all workloads, one subprocess each
# ----------------------------------------------------------------------
def run_child(name: str, seed: int, seconds: float, traced: bool, scale: float) -> Dict[str, Any]:
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(traced)), "--scale", str(scale),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    detail = next(
        (json.loads(l[len("detail "):]) for l in lines if l.startswith("detail ")), {}
    )
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}, "detail": detail}
    record = json.loads(lines[-1])
    record["detail"] = detail
    return record


def spread_of(values: Sequence[float]) -> Optional[float]:
    """Interquartile range over the median, the driver's steadiness test."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_all(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    result: Dict[str, Any] = {
        "seed": args.seed, "seconds": seconds, "repeat": args.repeat,
        "scale": args.scale, "workloads": {},
    }
    status = 0
    for entry in spec["workloads"]:
        name = entry["name"]
        runs = [
            run_child(name, args.seed, seconds, False, args.scale)
            for _ in range(args.repeat)
        ]
        row: Dict[str, Any] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "detail": runs[-1]["detail"],
            "end_to_end": {},
            "per_layer": {},
        }
        for metric in spec["end_to_end"]:
            values = [
                r["metrics"][metric["name"]]["value"]
                for r in runs if metric["name"] in r["metrics"]
            ]
            if len(values) < len(runs):
                print(f"{name}: {metric['name']} not emitted", file=sys.stderr)
                status = 1
                continue
            row["end_to_end"][metric["name"]] = {
                "value": statistics.median(values), "unit": metric["unit"],
                "runs": values, "spread": spread_of(values),
            }
            print(f"{name} {metric['name']} {statistics.median(values):.6g} {metric['unit']}")
        if args.trace:
            traced = run_child(name, args.seed, seconds, True, args.scale)
            row["attempted"] += traced["attempted"]
            row["failed"] += traced["failed"]
            for metric in spec["per_layer"]:
                body = traced["metrics"].get(metric["name"])
                if body is None:
                    print(f"{name}: {metric['name']} not emitted", file=sys.stderr)
                    status = 1
                    continue
                row["per_layer"][metric["name"]] = body
                print(f"{name} {metric['name']} {body['value']:.6g} {body['unit']}")
        row["failed_share"] = row["failed"] / row["attempted"]
        print(f"{name} failed_share {row['failed_share']:.6g} ratio ({row['failed']}/{row['attempted']})")
        if row["failed"]:
            status = 1
        result["workloads"][name] = row
    if args.baselines:
        result["baselines"] = run_baselines(args.seed, args.scale)
    out = args.out or os.path.join(OUT_DIR, "result.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(out)}")
    return status


def run_baselines(seed: int, scale: float) -> Dict[str, Any]:
    """The paper's Fig 7 comparators on the ingest-encode corpora and the
    query-needle ops: reported for the ledger, never gated."""
    from repro.baselines import CLP, GzipGrep

    wl = _workloads()
    workload = wl.workload_by_name("query-needle")
    corpora = wl.make_corpora(workload, seed, scale)
    ops = wl.make_ops(workload, corpora, seed)
    wanted = [
        [corpora[op.corpus].lines[i] for i in wl.oracle_ids(op.command, corpora[op.corpus].lines)]
        for op in ops
    ]
    out: Dict[str, Any] = {}
    for label, make in (
        ("ggrep", lambda: GzipGrep(block_bytes=wl.BLOCK_BYTES)),
        ("CLP", CLP),
    ):
        before = slowdown()
        systems = [make() for _ in corpora]
        for system, corpus in zip(systems, corpora):
            system.ingest(corpus.lines)
        answers = [systems[op.corpus].timed_query(op.command) for op in ops]
        factor = (before + slowdown()) / 2
        raw = sum(s.raw_bytes for s in systems)
        out[label] = {
            "compression_ratio": raw / sum(s.storage_bytes() for s in systems),
            "ingest_mb_s": raw / 1e6 / (sum(s.compress_seconds for s in systems) / factor),
            "query_p50_ms": percentile([t for _, t in answers], 0.5) / factor * 1000,
            "failed": sum(lines != want for (lines, _), want in zip(answers, wanted)),
            "attempted": len(ops),
        }
        for metric in ("compression_ratio", "ingest_mb_s", "query_p50_ms"):
            print(f"baseline:{label} {metric} {out[label][metric]:.6g}")
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process (driver mode)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None, help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 = per-layer metrics from the traced run")
    parser.add_argument("--scale", type=float, default=1.0, help="shrink corpora (tests only)")
    parser.add_argument("--repeat", type=int, default=3, help="untraced runs per workload when running all")
    parser.add_argument("--baselines", action="store_true", help="also run gzip+grep and CLP (never gated)")
    parser.add_argument("--out", help="where to write the result set (default perfbench/out/result.json)")
    args = parser.parse_args(argv)

    bootstrap()
    spec = load_spec()
    if args.workload is None:
        return run_all(args, spec)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    record = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.scale)
    return emit(record, spec, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
