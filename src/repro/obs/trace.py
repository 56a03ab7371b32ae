"""Hierarchical spans: where the time of one operation went.

The whole value proposition of LogGrep is *work avoided* — Capsules proven
irrelevant by stamps, blocks pruned by their time range, bytes never
decompressed.  Spans make that evidence visible per operation: a traced
``grep`` produces a tree ``query → plan / block → block_filter / locate →
match → decompress / reconstruct`` whose stage times sum to the total and
whose attributes carry the byte and capsule counters.

Tracing is off by default and free when off: the module-level tracer is a
:class:`NullTracer` whose spans are a shared no-op singleton, so
instrumented code calls ``get_tracer().span(...)`` unconditionally — no
``if tracing:`` in callers.  :func:`tracing` installs a real
:class:`Tracer` for the duration of a ``with`` block::

    from repro.obs import tracing, render_span_tree

    with tracing() as tracer:
        lg.grep("ERROR")
    print(render_span_tree(tracer.last_root()))

Spans nest via a thread-local stack; fan-out code that enters spans from
worker threads passes ``parent=`` explicitly to attach them to the right
node of the tree (see ``cluster/coordinator.py``).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence


class Span:
    """One timed stage with attributes and child spans."""

    __slots__ = (
        "name", "attrs", "children", "start", "end", "tid",
        "_tracer", "_parent",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        parent: Optional["Span"] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.children: List["Span"] = []
        self.start: Optional[float] = None
        self.end: Optional[float] = None
        #: OS thread the span ran on (for the Chrome trace export's lanes).
        self.tid: int = 0
        self._tracer = tracer
        self._parent = parent

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        self._tracer._enter(self)
        self.tid = threading.get_ident()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self._tracer._exit(self)

    # ------------------------------------------------------------------
    def set(self, key: str, value: Any) -> "Span":
        """Set one attribute; returns self for chaining."""
        self.attrs[key] = value
        return self

    def add(self, key: str, delta: float = 1) -> "Span":
        """Increment a counter attribute."""
        self.attrs[key] = self.attrs.get(key, 0) + delta
        return self

    # ------------------------------------------------------------------
    @property
    def seconds(self) -> float:
        if self.start is None:
            return 0.0
        return (self.end if self.end is not None else time.perf_counter()) - self.start

    @property
    def parent(self) -> Optional["Span"]:
        return self._parent

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> List["Span"]:
        """All descendants (including self) with the given name."""
        return [span for span in self.walk() if span.name == name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.seconds * 1000:.2f}ms, {self.attrs!r})"


class _NullSpan:
    """Shared do-nothing span returned by the NullTracer."""

    __slots__ = ()

    seconds = 0.0
    name = ""
    attrs: Dict[str, Any] = {}
    children: List["Span"] = []

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, key: str, value: Any) -> "_NullSpan":
        return self

    def add(self, key: str, delta: float = 1) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer that records nothing; every span is the shared no-op span.

    This is the default process-wide tracer, so instrumentation costs one
    method call returning a singleton when tracing is disabled.
    """

    enabled = False
    roots: tuple = ()

    def span(self, name: str, parent=None, **attrs) -> _NullSpan:
        return NULL_SPAN

    def current(self) -> None:
        return None

    def last_root(self) -> None:
        return None

    def reset(self) -> None:
        return None


NULL_TRACER = NullTracer()


class Tracer:
    """Records a forest of spans; safe under fan-out across threads.

    Spans started while another span of the same thread is open become its
    children; spans started from worker threads attach to the span passed
    as ``parent=`` (or become new roots).
    """

    enabled = True

    def __init__(self):
        self.roots: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def span(self, name: str, parent: Optional[Span] = None, **attrs) -> Span:
        return Span(self, name, parent=parent, attrs=attrs)

    def current(self) -> Optional[Span]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def last_root(self) -> Optional[Span]:
        return self.roots[-1] if self.roots else None

    def reset(self) -> None:
        with self._lock:
            self.roots.clear()

    # ------------------------------------------------------------------
    def _enter(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if span._parent is None and stack:
            span._parent = stack[-1]
        with self._lock:
            if span._parent is None:
                self.roots.append(span)
            else:
                span._parent.children.append(span)
        stack.append(span)

    def _exit(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # exited out of order; drop through it
            del stack[stack.index(span):]


# ----------------------------------------------------------------------
# process-wide tracer
# ----------------------------------------------------------------------
_active: Any = NULL_TRACER


def get_tracer():
    """The process-wide tracer (a NullTracer unless tracing is enabled)."""
    return _active


def set_tracer(tracer) -> Any:
    """Install *tracer* as the process-wide tracer; returns the previous one."""
    global _active
    previous = _active
    _active = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Enable tracing for the duration of a with-block."""
    active = tracer or Tracer()
    previous = set_tracer(active)
    try:
        yield active
    finally:
        set_tracer(previous)


# ----------------------------------------------------------------------
# rendering and summarizing
# ----------------------------------------------------------------------
def _format_attrs(attrs: Dict[str, Any]) -> str:
    if not attrs:
        return ""
    parts = []
    for key, value in attrs.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:.3g}")
        else:
            parts.append(f"{key}={value!r}" if isinstance(value, str) else f"{key}={value}")
    return "  " + " ".join(parts)


def render_span_tree(root: Optional[Span], total: Optional[float] = None) -> str:
    """Text rendering of a span tree with per-stage percentages of the root."""
    if root is None:
        return "(no spans recorded)"
    total = total if total else (root.seconds or 1e-12)
    lines: List[str] = []

    def visit(span: Span, depth: int) -> None:
        label = "  " * depth + span.name
        pct = span.seconds / total * 100
        lines.append(
            f"{label:<40} {span.seconds * 1000:9.2f} ms {pct:5.1f}%"
            f"{_format_attrs(span.attrs)}"
        )
        for child in span.children:
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)


def to_chrome_trace(roots: Sequence[Optional[Span]]) -> Dict[str, Any]:
    """A recorded span forest as a Chrome trace-event (Perfetto) object.

    Every span becomes one complete (``ph: "X"``) event; timestamps are
    microseconds relative to the earliest span start so the timeline
    starts at zero, and each OS thread gets its own compact ``tid`` lane.
    The result serializes to a ``trace.json`` loadable by
    ``chrome://tracing`` and https://ui.perfetto.dev.
    """
    spans = [
        span
        for root in roots
        if root is not None
        for span in root.walk()
        if span.start is not None
    ]
    origin = min((span.start for span in spans), default=0.0)
    lanes: Dict[int, int] = {}
    events: List[Dict[str, Any]] = []
    for span in spans:
        lane = lanes.setdefault(span.tid, len(lanes) + 1)
        end = span.end if span.end is not None else span.start
        events.append(
            {
                "name": span.name,
                "cat": "loggrep",
                "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round((end - span.start) * 1e6, 3),
                "pid": 1,
                "tid": lane,
                "args": dict(span.attrs),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, roots: Sequence[Optional[Span]]) -> int:
    """Write :func:`to_chrome_trace` of *roots* to *path*; returns the
    number of events written."""
    payload = to_chrome_trace(roots)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, default=str)
        handle.write("\n")
    return len(payload["traceEvents"])
