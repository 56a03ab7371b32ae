"""Outside-in span tracer for the per-layer run (``run.py --trace 1``).

The benchmark attributes time to this repo's modules without editing them:
:meth:`Tracer.install` replaces each layer's entry point *by name in the
module that calls it* (``repro.core.compressor.encode_vector``, not the
defining module) with a wrapper that records one span per call, and
:meth:`Tracer.uninstall` puts every original back.  Spans stay in memory
and are written out once, when the run ends.

A span is ``[name, start, end, parent, op_id]``; ``parent`` is the span
that was open on the same thread when this one started.  A layer's *self
time* is its spans' duration minus the part of that interval their child
spans cover (:func:`self_times`), so self times of one thread partition
the wall time of its root spans.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: ``[name, start, end, parent record or None, op_id]``
Span = List[Any]

CountHook = Callable[[Counter, tuple, Any], None]


# ----------------------------------------------------------------------
# work counters, taken at the same boundaries as the spans
# ----------------------------------------------------------------------
def _count_parse(counts: Counter, args: tuple, result: Any) -> None:
    counts["staticparse.lines"] += args[0].num_lines
    outcome = result[1]
    if outcome is not None:
        counts["staticparse.cache_hits"] += outcome.cache_hits
        counts["staticparse.cache_lines"] += outcome.total_lines


def _count_classify(counts: Counter, args: tuple, result: Any) -> None:
    counts[f"runtime.vectors_{result.value}"] += 1


def _count_real_pattern(counts: Counter, args: tuple, result: Any) -> None:
    counts["runtime.patterns_tried"] += 1
    counts["runtime.patterns_found"] += not result.is_trivial


def _count_nominal_pattern(counts: Counter, args: tuple, result: Any) -> None:
    counts["runtime.patterns_tried"] += 1
    counts["runtime.patterns_found"] += len(result.patterns) > 1


def _count_encoded(counts: Counter, args: tuple, result: Any) -> None:
    from repro.capsule.box import _capsules_of

    kind = ("real", "nominal", "plain")[result.tag]
    counts[f"capsule.bytes_{kind}"] += sum(
        capsule.compressed_bytes for capsule in _capsules_of(result)
    )


def _count_written(counts: Counter, args: tuple, result: Any) -> None:
    counts["blockstore.calls"] += 1
    counts["blockstore.bytes_written"] += len(args[2])


def _count_read(counts: Counter, args: tuple, result: Any) -> None:
    counts["blockstore.calls"] += 1
    counts["blockstore.bytes_read"] += len(result)


def _count_scan(counts: Counter, args: tuple, result: Any) -> None:
    counts["query.matcher.rows_scanned"] += args[0].count


def _count_reconstructed(counts: Counter, args: tuple, result: Any) -> None:
    counts["core.reconstructor.rows"] += len(result)


#: (module, class or None, attribute, span name, count hook).  The module
#: is the one whose *name binding* is replaced — for a function imported
#: with ``from x import f`` that is the importing module.
WRAP_POINTS: Sequence[Tuple[str, Optional[str], str, str, Optional[CountHook]]] = (
    # -- ingest ---------------------------------------------------------
    ("repro.core.loggrep", "LogGrep", "compress", "core.compress", None),
    ("repro.core.schedule", None, "parse_block", "staticparse.parse_block", _count_parse),
    ("repro.core.streaming", None, "parse_block", "staticparse.parse_block", _count_parse),
    ("repro.core.compressor", None, "classify", "runtime.classify", _count_classify),
    ("repro.core.compressor", None, "encode_vector", "capsule.encode_vector", _count_encoded),
    ("repro.capsule.assembler", None, "extract_real_pattern", "runtime.extract_real_pattern", _count_real_pattern),
    ("repro.capsule.assembler", None, "extract_nominal", "runtime.extract_nominal", _count_nominal_pattern),
    ("repro.capsule.capsule", None, "_choose_codec", "capsule.codec", None),
    ("repro.capsule.box", "CapsuleBox", "serialize", "capsule.serialize", None),
    ("repro.blockstore.index", "BlockSummary", "from_box", "blockstore.summary", None),
    ("repro.blockstore.store", "ArchiveStore", "put", "blockstore.put", _count_written),
    ("repro.blockstore.store", "ArchiveStore", "put_aux", "blockstore.put_aux", _count_written),
    ("repro.core.streaming", "StreamingCompressor", "append", "core.streaming.append", None),
    ("repro.core.streaming", "StreamingCompressor", "_tail_box", "core.streaming.tail_build", None),
    ("repro.core.streaming", "StreamingCompressor", "open_reader", "core.streaming.open_reader", None),
    ("repro.core.streaming", "StreamingCompressor", "close", "core.streaming.close", None),
    # -- query ----------------------------------------------------------
    ("repro.core.loggrep", "LogGrep", "grep", "core.grep", None),
    ("repro.core.loggrep", "LogGrep", "count", "core.count", None),
    ("repro.core.loggrep", None, "build_plan", "query.plan.build_plan", None),
    ("repro.query.executor", "QueryExecutor", "execute_block", "query.executor.execute_block", None),
    ("repro.query.executor", None, "summary_might_match", "query.blockfilter.summary_might_match", None),
    ("repro.capsule.box", "CapsuleBox", "open", "capsule.open", None),
    ("repro.capsule.box", "CapsuleBox", "prefetch", "capsule.prefetch", None),
    ("repro.capsule.capsule", None, "_lzma_decompress", "capsule.decompress", None),
    ("repro.capsule.capsule", "Capsule", "values", "capsule.values", None),
    ("repro.blockstore.store", "ArchiveStore", "get", "blockstore.get", _count_read),
    ("repro.blockstore.store", "ArchiveStore", "get_aux", "blockstore.get_aux", _count_read),
    ("repro.blockstore.store", "ArchiveStore", "get_range", "blockstore.get_range", _count_read),
    ("repro.query.engine", "BlockEngine", "execute", "query.engine.execute", None),
    ("repro.query.vectors", None, "locate", "query.locator.locate", None),
    ("repro.query.vectors", None, "search_capsule", "query.matcher.search_capsule", _count_scan),
    ("repro.core.reconstructor", "BlockReconstructor", "reconstruct", "core.reconstructor.reconstruct", _count_reconstructed),
)


class Tracer:
    """Records spans and work counts around the wrapped entry points."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        #: Identifier shared by every span of one benchmark operation.
        self.op_id = -1
        #: Spans are recorded only while the harness has an operation
        #: under the clock; its own set-up and checks stay out.
        self.active = False
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(
        self, func: Callable, name: str, count: Optional[CountHook]
    ) -> Callable:
        spans = self.spans
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return func(*args, **kwargs)
            stack = self._stack()
            span: Span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op_id]
            spans.append(span)
            stack.append(span)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every wrap point; idempotence is the caller's concern."""
        for module_name, class_name, attr, name, count in WRAP_POINTS:
            owner: object = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = vars(owner)[attr]
            # classmethods are stored as descriptor objects: wrap the
            # function inside and rebuild the same kind of descriptor.
            if isinstance(original, (classmethod, staticmethod)):
                replacement: object = type(original)(
                    self._wrapper(original.__func__, name, count)
                )
            else:
                replacement = self._wrapper(original, name, count)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every original, most recent patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> Tuple[List[Span], Counter]:
        """Hand over (and forget) everything recorded so far."""
        spans, counts = self.spans[:], Counter(self.counts)
        del self.spans[:]
        self.counts.clear()
        return spans, counts


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    total = 0.0
    edge = lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def self_times(
    spans: Sequence[Span], slowdowns: Optional[Dict[int, float]] = None
) -> Dict[str, float]:
    """Self seconds per span name: duration minus child-covered interval.

    With *slowdowns* (op_id -> machine slowdown, see speed.py) each
    span's self time is divided by the slowdown around its operation."""
    slowdowns = slowdowns or {}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span[3]
        if parent is not None:
            children.setdefault(id(parent), []).append((span[1], span[2]))
    out: Dict[str, float] = {}
    for span in spans:
        name, start, end = span[0], span[1], span[2]
        busy = (end - start) - _covered(children.get(id(span), ()), start, end)
        out[name] = out.get(name, 0.0) + busy / slowdowns.get(span[4], 1.0)
    return out


def root_seconds(
    spans: Sequence[Span], slowdowns: Optional[Dict[int, float]] = None
) -> float:
    """Total duration of the spans that have no parent, scaled like
    :func:`self_times`."""
    slowdowns = slowdowns or {}
    return sum(
        (span[2] - span[1]) / slowdowns.get(span[4], 1.0)
        for span in spans
        if span[3] is None
    )


def layer_of(span_name: str) -> str:
    """``query.matcher.search_capsule`` → ``query.matcher``."""
    return span_name.rsplit(".", 1)[0]


def spans_as_rows(spans: Sequence[Span]) -> List[list]:
    """JSON form: the parent reference becomes the parent's row index."""
    index = {id(span): i for i, span in enumerate(spans)}
    return [
        [name, start, end, index.get(id(parent)) if parent is not None else None, op_id]
        for name, start, end, parent, op_id in spans
    ]
