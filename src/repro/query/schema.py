"""Schema discovery over compressed archives.

The paper's §2 describes a second debugging phase: query results are
passed to "another system, which performs more sophisticated analysis like
anomaly detection, structure-based aggregation with SQL".  LogGrep's
storage format already *is* structured — groups are relations, variable
vectors are columns — so aggregation can run directly on Capsules without
ever reconstructing log text.

Field names are inferred from the recovered structure itself:

* a variable whose runtime pattern starts with a constant like
  ``Project:<*>`` or ``HWID=<*>`` is named after that key (``Project``,
  ``HWID``), and extraction strips the key prefix;
* a variable preceded by a constant *token* ending in ``:`` or ``=``
  (CLP-style ``state: <*>``) is named after that token;
* anything else gets a positional name ``g<template>_v<slot>``.

Discovery reads only group templates and vector metadata — under lazy
I/O no capsule payload is fetched — and is memoized per CapsuleBox
(:func:`schema_of`) since the Aggregate operator re-discovers on every
query while boxes live in the BoxCache.

This module lives in the query layer so the executor's Aggregate operator
can use it without importing ``analytics`` (which imports the LogGrep
facade — a cycle).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..capsule.assembler import (
    NominalEncodedVector,
    RealEncodedVector,
)
from ..capsule.box import CapsuleBox
from ..runtime.pattern import Const

#: "key:" / "key=" at the *start* of a constant fragment.
_KEY_PREFIX_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_.-]*)([:=])")
#: "key:" / "key=" as an entire preceding token.
_KEY_TOKEN_RE = re.compile(r"([A-Za-z][A-Za-z0-9_.-]*)[:=]$")


@dataclass(frozen=True)
class FieldRef:
    """One column of one group: where a named field lives.

    ``var_index == -1`` marks a *constant field*: the template's token is
    the literal ``key:value`` (e.g. an incident template where every entry
    has ``Project:2963``), so every row of the group carries ``constant``.
    """

    name: str
    template_id: int
    group_index: int
    var_index: int
    strip_prefix: str = ""  # leading "key:" baked into the stored values
    constant: Optional[str] = None

    @property
    def is_constant(self) -> bool:
        return self.var_index < 0

    def clean(self, value: str) -> str:
        if self.strip_prefix and value.startswith(self.strip_prefix):
            return value[len(self.strip_prefix) :]
        return value


@dataclass
class Schema:
    """All fields discovered in one CapsuleBox."""

    fields: List[FieldRef] = field(default_factory=list)

    def by_name(self, name: str) -> List[FieldRef]:
        return [ref for ref in self.fields if ref.name == name]

    def names(self) -> List[str]:
        seen: Dict[str, None] = {}
        for ref in self.fields:
            seen.setdefault(ref.name, None)
        return list(seen)


def _leading_const(encoded: object) -> Optional[str]:
    """The first constant fragment of a vector's runtime pattern(s).

    For nominal vectors every dictionary pattern must agree on the
    key-bearing prefix.
    """
    if isinstance(encoded, RealEncodedVector):
        elements = encoded.pattern.elements
        if elements and isinstance(elements[0], Const):
            return elements[0].text
        return None
    if isinstance(encoded, NominalEncodedVector):
        prefixes = set()
        for dp in encoded.dict_patterns:
            elements = dp.pattern.elements
            if not elements or not isinstance(elements[0], Const):
                return None
            match = _KEY_PREFIX_RE.match(elements[0].text)
            if match is None:
                return None
            prefixes.add(match.group(0))
        if len(prefixes) == 1:
            return prefixes.pop()
    return None


def discover_schema(box: CapsuleBox) -> Schema:
    """Infer field names for every column (and constant pseudo-field)."""
    schema = Schema()
    for group_index, group in enumerate(box.groups):
        template = group.template
        for var_index, encoded in enumerate(group.vectors):
            token_pos = template.var_positions[var_index]
            name: Optional[str] = None
            strip = ""
            leading = _leading_const(encoded)
            if leading is not None:
                match = _KEY_PREFIX_RE.match(leading)
                if match:
                    name = match.group(1)
                    strip = match.group(0)
            if name is None and token_pos > 0:
                previous = template.tokens[token_pos - 1]
                if previous is not None:
                    match = _KEY_TOKEN_RE.search(previous)
                    if match:
                        name = match.group(1)
            if name is None:
                name = f"g{template.template_id}_v{var_index}"
            schema.fields.append(
                FieldRef(name, template.template_id, group_index, var_index, strip)
            )
        # Constant key:value tokens (e.g. an incident template where every
        # entry reads Project:2963) become constant pseudo-fields, so
        # aggregations see those rows too.
        for token in template.tokens:
            if token is None:
                continue
            match = _KEY_PREFIX_RE.match(token)
            if match and match.end() < len(token):
                schema.fields.append(
                    FieldRef(
                        match.group(1),
                        template.template_id,
                        group_index,
                        -1,
                        constant=token[match.end() :],
                    )
                )
    return schema


def schema_of(box: CapsuleBox) -> Schema:
    """Memoized :func:`discover_schema` — the memo lives on the box, so
    it dies with it (BoxCache eviction) and costs nothing to look up.

    The Aggregate operator runs once per (query, block); cached boxes
    (BoxCache, pinned sessions) would otherwise pay re-discovery on every
    aggregate.  A racing duplicate discovery under the thread-pool
    scheduler is benign: discovery is deterministic, last write wins.
    """
    schema: Optional[Schema] = getattr(box, "_schema_memo", None)
    if schema is None:
        schema = discover_schema(box)
        box._schema_memo = schema
    return schema
