"""Aggregation core: specs, pure helpers and mergeable partial aggregates.

The paper's §2 observation is structural: capsule dictionaries already
*are* a group-by index, so ``COUNT BY variable`` is per-entry index-cell
counting with zero payload decompression.  This module is the logical
half of that insight — what an aggregate *is* and how per-block partial
results merge — while the physical half (the ``Aggregate`` pipeline
operator, the index-cell ``value_counts`` fast path) lives in
:mod:`repro.query.executor` and :mod:`repro.query.vectors`.

Two layers:

* **pure helpers** (``count_values``/``top_k``/``numeric_stats``/
  ``group_count``/``histogram``) — functions over value streams, also the
  naive oracle the property tests compare the pushdown path against;
* **partial aggregates** — one per-block accumulator per
  :class:`~repro.query.modes.AggregateKind`, with *commutative* ``merge``
  (Counter addition; numeric stats keep the full value→multiplicity map so
  percentiles are exact and merge order never matters) so the thread-pool
  scheduler and the cluster coordinator can fold partials in any order.

Leaf module: imports only :mod:`repro.query.modes` — safe for the plan IR
and the executor to depend on without cycles.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .modes import AggregateKind

#: Leading numeric run of a value ("40719us" → 40719, "-3.5ms" → -3.5).
_NUMBER_RE = re.compile(r"^-?\d+(\.\d+)?")

#: One finalized histogram bucket: (first line id, last line id, hits).
Bucket = Tuple[int, int, int]


# ----------------------------------------------------------------------
# aggregate spec (carried inside the QueryPlan)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AggregateSpec:
    """What to aggregate — decided at plan time, shipped with the plan.

    ``bucket_width``/``total_lines`` are fixed by the planner for
    ``HISTOGRAM`` so every block (and every cluster node) buckets line
    ids identically and partials merge without re-scaling.
    """

    kind: AggregateKind
    field: Optional[str] = None
    k: int = 10  # TOP_K only
    buckets: int = 20  # HISTOGRAM only
    bucket_width: int = 0  # HISTOGRAM: lines per bucket
    total_lines: int = 0  # HISTOGRAM: logical-clock extent
    value_field: Optional[str] = None  # PAIRS only

    def __post_init__(self) -> None:
        needs_field = self.kind in (
            AggregateKind.COUNT_BY,
            AggregateKind.TOP_K,
            AggregateKind.STATS,
            AggregateKind.VALUES,
            AggregateKind.PAIRS,
        )
        if needs_field and not self.field:
            raise ValueError(f"{self.kind.value} aggregate needs a field")
        if self.kind is AggregateKind.PAIRS and not self.value_field:
            raise ValueError("pairs aggregate needs a value field")
        if self.kind is AggregateKind.TOP_K and self.k <= 0:
            raise ValueError("top_k needs k >= 1")

    def describe(self) -> str:
        if self.kind is AggregateKind.COUNT_BY:
            return f"count_by({self.field})"
        if self.kind is AggregateKind.TOP_K:
            return f"top_k({self.field}, k={self.k})"
        if self.kind is AggregateKind.STATS:
            return f"stats({self.field})"
        if self.kind is AggregateKind.HISTOGRAM:
            return (
                f"histogram({self.buckets} bucket(s) x "
                f"{self.bucket_width} line(s))"
            )
        if self.kind is AggregateKind.COUNT_BY_TEMPLATE:
            return "count_by_template"
        if self.kind is AggregateKind.PAIRS:
            return f"pairs({self.field}, {self.value_field})"
        return f"values({self.field})"


# ----------------------------------------------------------------------
# numeric summaries
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NumericStats:
    """Summary statistics of a numeric column.

    ``nulls`` counts values the numeric parser rejected — they are
    *reported*, never silently dropped, so a column that is 90% garbage
    is visibly so.
    """

    count: int
    minimum: float
    maximum: float
    mean: float
    p50: float
    p95: float
    p99: float
    nulls: int = 0

    @classmethod
    def empty(cls, nulls: int = 0) -> "NumericStats":
        nan = math.nan
        return cls(0, nan, nan, nan, nan, nan, nan, nulls)


def parse_number(value: str) -> Optional[float]:
    """Leading numeric run of a value, tolerating unit suffixes
    ("40719us" → 40719.0); None when the value has no leading number."""
    match = _NUMBER_RE.match(value)
    return float(match.group(0)) if match else None


def stats_from_counts(
    numbers: Dict[float, int], nulls: int = 0
) -> NumericStats:
    """Summarize a value → multiplicity map (the partials' native form).

    Percentiles use linear interpolation between closest ranks over the
    sorted multiset (numpy's default): exact for any column size — one
    value is every percentile, empty is NaN — instead of the old
    ``int(fraction * n)`` index that mis-ranked tiny columns.
    """
    total = sum(numbers.values())
    if total == 0:
        return NumericStats.empty(nulls)
    values = sorted(numbers)
    cumulative: List[int] = []
    running = 0
    for value in values:
        running += numbers[value]
        cumulative.append(running)

    def at_rank(rank: int) -> float:
        return values[bisect_right(cumulative, rank)]

    def percentile(fraction: float) -> float:
        position = (total - 1) * fraction
        low_rank = math.floor(position)
        low = at_rank(low_rank)
        if position == low_rank:
            return low
        return low + (position - low_rank) * (at_rank(low_rank + 1) - low)

    mean = sum(value * n for value, n in numbers.items()) / total
    return NumericStats(
        count=total,
        minimum=values[0],
        maximum=values[-1],
        mean=mean,
        p50=percentile(0.50),
        p95=percentile(0.95),
        p99=percentile(0.99),
        nulls=nulls,
    )


def numeric_stats(values: Iterable[str]) -> NumericStats:
    """Parse values as numbers and summarize; parse failures are counted
    as ``nulls`` in the result."""
    numbers: Counter[float] = Counter()
    nulls = 0
    for value in values:
        number = parse_number(value)
        if number is None:
            nulls += 1
        else:
            numbers[number] += 1
    return stats_from_counts(numbers, nulls)


# ----------------------------------------------------------------------
# pure helpers (also the property-test oracle)
# ----------------------------------------------------------------------
def count_values(values: Iterable[str]) -> "Counter[str]":
    """value → occurrence count."""
    return Counter(values)


def top_k(values: Iterable[str], k: int) -> List[Tuple[str, int]]:
    """The *k* most frequent values with their counts."""
    return Counter(values).most_common(k)


def group_count(pairs: Iterable[Tuple[str, str]]) -> Dict[str, "Counter[str]"]:
    """(group key, value) pairs → per-key value counts."""
    out: Dict[str, Counter[str]] = {}
    for key, value in pairs:
        counter = out.get(key)
        if counter is None:
            counter = Counter()
            out[key] = counter
        counter[value] += 1
    return out


def histogram(
    values: Iterable[str], bucket_count: int = 10
) -> List[Tuple[float, float, int]]:
    """Equal-width numeric histogram: (low, high, count) per bucket."""
    numbers: List[float] = []
    for value in values:
        number = parse_number(value)
        if number is not None:
            numbers.append(number)
    if not numbers:
        return []
    low, high = min(numbers), max(numbers)
    if low == high:
        return [(low, high, len(numbers))]
    width = (high - low) / bucket_count
    counts = [0] * bucket_count
    for number in numbers:
        index = min(bucket_count - 1, int((number - low) / width))
        counts[index] += 1
    return [
        (low + i * width, low + (i + 1) * width, counts[i])
        for i in range(bucket_count)
    ]


# ----------------------------------------------------------------------
# partial aggregates (one per block; merge is commutative)
# ----------------------------------------------------------------------
class AggregatePartial:
    """Base of the per-block accumulators.

    ``merge`` must be commutative and associative: the thread-pool
    scheduler and the cluster coordinator fold partials in whatever
    order blocks finish.
    """

    kind: AggregateKind
    #: Rows folded into this partial (for the loggrep_agg_rows metric).
    rows: int = 0

    def merge(self, other: "AggregatePartial") -> None:
        raise NotImplementedError

    def finalize(self, spec: AggregateSpec) -> object:
        raise NotImplementedError


class CountPartial(AggregatePartial):
    """COUNT_BY / TOP_K / COUNT_BY_TEMPLATE: a Counter of values."""

    def __init__(self, kind: AggregateKind):
        self.kind = kind
        self.rows = 0
        self.counts: Counter[str] = Counter()

    def add(self, value: str, n: int = 1) -> None:
        self.counts[value] += n
        self.rows += n

    def merge(self, other: "AggregatePartial") -> None:
        assert isinstance(other, CountPartial)
        self.counts.update(other.counts)
        self.rows += other.rows

    def finalize(self, spec: AggregateSpec) -> object:
        if spec.kind is AggregateKind.TOP_K:
            return self.counts.most_common(spec.k)
        return self.counts


class StatsPartial(AggregatePartial):
    """STATS: the full value → multiplicity map plus a null count.

    Keeping the multiset (not a sketch) makes merge exact and
    order-independent, and percentiles identical to the naive oracle.
    """

    kind = AggregateKind.STATS

    def __init__(self) -> None:
        self.rows = 0
        self.numbers: Counter[float] = Counter()
        self.nulls = 0

    def add(self, value: str, n: int = 1) -> None:
        number = parse_number(value)
        if number is None:
            self.nulls += n
        else:
            self.numbers[number] += n
        self.rows += n

    def merge(self, other: "AggregatePartial") -> None:
        assert isinstance(other, StatsPartial)
        self.numbers.update(other.numbers)
        self.nulls += other.nulls
        self.rows += other.rows

    def finalize(self, spec: AggregateSpec) -> object:
        return stats_from_counts(self.numbers, self.nulls)


class HistogramPartial(AggregatePartial):
    """HISTOGRAM: hit counts per logical-time bucket.

    Buckets are fixed by the spec (``bucket_width`` lines each), so a
    block only increments integers — no line id is ever materialized
    beyond the group's own ``line_ids`` vector, and no payload is read.
    """

    kind = AggregateKind.HISTOGRAM

    def __init__(self) -> None:
        self.rows = 0
        self.counts: Counter[int] = Counter()

    def add_line(self, line_id: int, spec: AggregateSpec) -> None:
        width = spec.bucket_width or 1
        self.counts[min(spec.buckets - 1, line_id // width)] += 1
        self.rows += 1

    def merge(self, other: "AggregatePartial") -> None:
        assert isinstance(other, HistogramPartial)
        self.counts.update(other.counts)
        self.rows += other.rows

    def finalize(self, spec: AggregateSpec) -> object:
        if spec.total_lines == 0 or spec.buckets <= 0:
            return []
        width = spec.bucket_width or 1
        out: List[Bucket] = []
        for i in range(spec.buckets):
            low = i * width
            if low >= spec.total_lines:
                # With width = ceil(total/buckets) the id space can run
                # out before the bucket count does; degenerate trailing
                # buckets would break the tiling invariant.
                break
            high = min(spec.total_lines, (i + 1) * width) - 1
            out.append((low, high, self.counts.get(i, 0)))
        return out


class ValuesPartial(AggregatePartial):
    """VALUES: ordered per-block chunks of a column.

    Chunks are keyed by the block's first line id, so merging in any
    order and sorting at finalize reproduces the deterministic
    block-order stream of the column.
    """

    kind = AggregateKind.VALUES

    def __init__(self) -> None:
        self.rows = 0
        self.chunks: List[Tuple[int, List[str]]] = []

    def add_chunk(self, order_key: int, values: List[str]) -> None:
        self.chunks.append((order_key, values))
        self.rows += len(values)

    def merge(self, other: "AggregatePartial") -> None:
        assert isinstance(other, ValuesPartial)
        self.chunks.extend(other.chunks)
        self.rows += other.rows

    def finalize(self, spec: AggregateSpec) -> object:
        out: List[str] = []
        for _, values in sorted(self.chunks, key=lambda chunk: chunk[0]):
            out.extend(values)
        return out


class PairsPartial(AggregatePartial):
    """PAIRS: ordered per-block chunks of (key, value) tuples."""

    kind = AggregateKind.PAIRS

    def __init__(self) -> None:
        self.rows = 0
        self.chunks: List[Tuple[int, List[Tuple[str, str]]]] = []

    def add_chunk(
        self, order_key: int, pairs: List[Tuple[str, str]]
    ) -> None:
        self.chunks.append((order_key, pairs))
        self.rows += len(pairs)

    def merge(self, other: "AggregatePartial") -> None:
        assert isinstance(other, PairsPartial)
        self.chunks.extend(other.chunks)
        self.rows += other.rows

    def finalize(self, spec: AggregateSpec) -> object:
        out: List[Tuple[str, str]] = []
        for _, pairs in sorted(self.chunks, key=lambda chunk: chunk[0]):
            out.extend(pairs)
        return out


def make_partial(spec: AggregateSpec) -> AggregatePartial:
    """A fresh (empty) partial for one spec — also the identity element
    the mergers start from."""
    if spec.kind in (
        AggregateKind.COUNT_BY,
        AggregateKind.TOP_K,
        AggregateKind.COUNT_BY_TEMPLATE,
    ):
        return CountPartial(spec.kind)
    if spec.kind is AggregateKind.STATS:
        return StatsPartial()
    if spec.kind is AggregateKind.HISTOGRAM:
        return HistogramPartial()
    if spec.kind is AggregateKind.VALUES:
        return ValuesPartial()
    if spec.kind is AggregateKind.PAIRS:
        return PairsPartial()
    raise ValueError(f"unknown aggregate kind {spec.kind!r}")

