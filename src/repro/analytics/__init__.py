"""Structure-based aggregation on compressed logs (the §2 "second phase"),
running directly on Capsule columns — no line reconstruction."""

from ..query.aggregate import (
    NumericStats,
    count_values,
    group_count,
    histogram,
    numeric_stats,
    top_k,
)
from .analyzer import Analyzer
from ..query.schema import FieldRef, Schema, discover_schema

__all__ = [
    "Analyzer",
    "Schema",
    "FieldRef",
    "discover_schema",
    "NumericStats",
    "count_values",
    "top_k",
    "numeric_stats",
    "group_count",
    "histogram",
]
