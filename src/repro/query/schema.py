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

Discovery reads only group templates and the vectors' runtime patterns,
read off their records (``GroupBox.patterns``) — no vector is built and
no capsule payload is fetched — and is memoized per CapsuleBox
(:func:`schema_of`) since the Aggregate operator re-discovers on every
query while boxes live in the BoxCache.

This module lives in the query layer so the executor's Aggregate operator
and ``LogGrep.fields`` share one discovery.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..capsule.box import CapsuleBox, GroupBox
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


def _leading_const(group: GroupBox, var_index: int) -> Optional[str]:
    """The key-bearing prefix (``key:`` / ``key=``) that every runtime
    pattern of a vector starts with: a real vector's one pattern, or
    each dictionary pattern of a nominal one; None when they lack one
    or disagree."""
    prefixes = set()
    for pattern in group.patterns(var_index):
        elements = pattern.elements
        if not elements or not isinstance(elements[0], Const):
            return None
        match = _KEY_PREFIX_RE.match(elements[0].text)
        if match is None:
            return None
        prefixes.add(match.group(0))
    return prefixes.pop() if len(prefixes) == 1 else None


def discover_schema(box: CapsuleBox) -> Schema:
    """Infer field names for every column (and constant pseudo-field)."""
    schema = Schema()
    for group_index, group in enumerate(box.groups):
        template = group.template
        for var_index, token_pos in enumerate(template.var_positions):
            strip = _leading_const(group, var_index) or ""
            name = strip[:-1] or None
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
    it dies with it (unpinned from the BoxCache) and costs nothing to look up.

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
