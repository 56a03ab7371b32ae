"""Observability: spans, metrics and export for every pipeline.

See docs/OBSERVABILITY.md for the span taxonomy, metric names and export
formats.  Quick start::

    from repro.obs import tracing, render_span_tree, get_registry

    with tracing() as tracer:
        lg.grep("ERROR")
    print(render_span_tree(tracer.last_root()))
    print(get_registry().to_prometheus())
"""

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from .trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    render_span_tree,
    set_tracer,
    to_chrome_trace,
    tracing,
    write_chrome_trace,
)

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_SPAN",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "tracing",
    "render_span_tree",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "DEFAULT_LATENCY_BUCKETS",
]
