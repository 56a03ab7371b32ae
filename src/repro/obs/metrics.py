"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

One registry per process accumulates the counters every pipeline already
produces (QueryStats fields, cache hits, store bytes, cluster per-node
work) plus latency histograms, and exports them in two machine-readable
formats:

* **Prometheus text format** (`to_prometheus`) — what a scrape endpoint or
  node-exporter textfile collector expects;
* **JSON** (`to_json`) — for scripts and the bench reports.

Metrics are always on: incrementing a counter is a dict lookup and an add
under a lock, cheap enough for the hot paths that call it once per query
or per block (never per capsule — per-capsule accounting rides on
QueryStats and is published once per query).  Counters that always move
together — a ranged store read advances its count, its bytes and the
store's total bytes — form a :class:`CounterGroup`: one lock, one call
per event.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

#: Label sets are keyed by their sorted (key, value) tuples.
LabelKey = Tuple[Tuple[str, str], ...]

#: Default latency buckets (seconds) — sub-millisecond to tens of seconds,
#: matching the interactive-query regime the paper targets.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _label_key(labels: Dict[str, str]) -> LabelKey:
    if not labels:
        return ()  # the unlabeled series: most calls, nothing to sort
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Prometheus label-value escaping: backslash, double quote, newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """Prometheus HELP escaping: backslash and newline."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(key: LabelKey, extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(key)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Counter:
    """Monotonically increasing value, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._values: Dict[LabelKey, float] = {}
        self._lock = threading.Lock()

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0)

    def _reset(self) -> None:
        with self._lock:
            self._values.clear()

    def _samples(self) -> List[Tuple[LabelKey, float]]:
        with self._lock:
            return sorted(self._values.items())


class CounterGroup:
    """Unlabeled counters advanced together: :meth:`inc` adds one amount
    to each under a single lock instead of one locked ``inc`` apiece.

    The counters share that lock from then on, so their own ``inc``,
    reads and exports stay serialized with the group's updates; the
    values they export are exactly what separate calls would give.
    """

    __slots__ = ("_counters", "_lock")

    def __init__(self, *counters: Counter):
        self._lock = threading.Lock()
        for counter in counters:
            counter._lock = self._lock
        self._counters = counters

    def inc(self, *amounts: float) -> None:
        """Add ``amounts[i]`` to the i-th counter's unlabeled series."""
        with self._lock:
            for counter, amount in zip(self._counters, amounts):
                values = counter._values
                values[()] = values.get((), 0) + amount


class Gauge(Counter):
    """A value that can go up and down (set, inc, dec)."""

    kind = "gauge"

    def inc(self, amount: float = 1, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels) -> None:
        self.inc(-amount, **labels)

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._values[_label_key(labels)] = value


class Histogram:
    """Fixed-bucket histogram with cumulative bucket counts.

    An observation increments only the first bucket whose bound covers
    it (one bisect); the counts are cumulated when read.  A value above
    the last bound, or NaN, lands in no finite bucket — only in ``+Inf``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket bound")
        self._counts: Dict[LabelKey, List[int]] = {}
        self._sums: Dict[LabelKey, float] = {}
        self._totals: Dict[LabelKey, int] = {}
        self._lock = threading.Lock()

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        slot = bisect_left(self.buckets, value)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = self._counts[key] = [0] * len(self.buckets)
                self._sums[key] = 0.0
                self._totals[key] = 0
            if slot < len(counts) and value == value:  # NaN is no bucket's
                counts[slot] += 1
            self._sums[key] += value
            self._totals[key] += 1

    def count(self, **labels) -> int:
        return self._totals.get(_label_key(labels), 0)

    def sum(self, **labels) -> float:
        return self._sums.get(_label_key(labels), 0.0)

    def _reset(self) -> None:
        with self._lock:
            self._counts.clear()
            self._sums.clear()
            self._totals.clear()

    def _samples(self) -> List[Tuple[LabelKey, List[int], float, int]]:
        """Per label set: cumulative bucket counts, sum and count."""
        with self._lock:
            return sorted(
                (key, list(accumulate(counts)), self._sums[key], self._totals[key])
                for key, counts in self._counts.items()
            )


class MetricsRegistry:
    """Name → metric map with get-or-create accessors and exporters."""

    def __init__(self):
        self._metrics: Dict[str, object] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls) or type(metric) is not cls:
                raise TypeError(
                    f"metric {name!r} already registered as {type(metric).__name__}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        if buckets is None:
            buckets = DEFAULT_LATENCY_BUCKETS
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str):
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def reset(self) -> None:
        """Zero every metric (objects stay registered — callers keep refs)."""
        for metric in self._metrics.values():
            metric._reset()

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        out: List[str] = []
        for name in self.names():
            metric = self._metrics[name]
            if metric.help:
                out.append(f"# HELP {name} {_escape_help(metric.help)}")
            out.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, Histogram):
                for key, counts, total_sum, total in metric._samples():
                    # _samples has already cumulated the bucket counts.
                    for bound, count in zip(metric.buckets, counts):
                        out.append(
                            f"{name}_bucket"
                            f"{_render_labels(key, ('le', _format_value(bound)))} "
                            f"{count}"
                        )
                    out.append(
                        f"{name}_bucket{_render_labels(key, ('le', '+Inf'))} {total}"
                    )
                    out.append(
                        f"{name}_sum{_render_labels(key)} "
                        f"{_format_value(total_sum)}"
                    )
                    out.append(f"{name}_count{_render_labels(key)} {total}")
            else:
                samples = metric._samples()
                if not samples:
                    out.append(f"{name} 0")
                for key, value in samples:
                    out.append(f"{name}{_render_labels(key)} {_format_value(value)}")
        return "\n".join(out) + "\n"

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_dict(self) -> Dict[str, dict]:
        out: Dict[str, dict] = {}
        for name in self.names():
            metric = self._metrics[name]
            entry: Dict[str, object] = {"type": metric.kind, "help": metric.help}
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
                entry["samples"] = [
                    {
                        "labels": dict(key),
                        "counts": counts,
                        "sum": total_sum,
                        "count": total,
                    }
                    for key, counts, total_sum, total in metric._samples()
                ]
            else:
                entry["samples"] = [
                    {"labels": dict(key), "value": value}
                    for key, value in metric._samples()
                ]
            out[name] = entry
        return out


# ----------------------------------------------------------------------
# process-wide registry
# ----------------------------------------------------------------------
_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _registry
