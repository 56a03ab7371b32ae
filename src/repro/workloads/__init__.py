"""Synthetic workloads standing in for the paper's 21 production and 16
public log datasets, plus the Table 1 query per dataset."""

from .fields import (
    Choice,
    Compose,
    Counter,
    Enum,
    Field,
    HexId,
    IPv4,
    Literal,
    Number,
    Path,
    PrefixedId,
    Sometimes,
    Timestamp,
    Word,
)
from .loader import FileLogSpec
from .production import production_specs
from .public import public_specs
from .queries import DerivedQuery, derived_queries
from .spec import LogSpec, TemplateSpec, total_lines


def all_specs():
    """Every dataset of the evaluation (21 production + 16 public)."""
    return production_specs() + public_specs()


def spec_by_name(name: str) -> LogSpec:
    for spec in all_specs():
        if spec.name == name:
            return spec
    raise KeyError(f"unknown dataset {name!r}")


__all__ = [
    "LogSpec",
    "FileLogSpec",
    "DerivedQuery",
    "derived_queries",
    "TemplateSpec",
    "total_lines",
    "production_specs",
    "public_specs",
    "all_specs",
    "spec_by_name",
    "Field",
    "Timestamp",
    "HexId",
    "Counter",
    "IPv4",
    "Path",
    "Enum",
    "Number",
    "PrefixedId",
    "Literal",
    "Choice",
    "Sometimes",
    "Compose",
    "Word",
]
