"""Query-command parsing (paper §3, §5).

A LogGrep query command combines *search strings* with the logical
operators ``AND``, ``OR`` and ``NOT`` (case-insensitive) and, as an
extension beyond the paper, parentheses::

    error AND dst:11.8.* NOT state:503
    ( ERROR OR WARNING ) AND Unexpected error NOT retry

Each search string is tokenized with the same delimiters as log entries;
a multi-token search string must match *consecutive* tokens of an entry
(the first keyword as a token suffix, interior keywords exactly, the last
as a token prefix — grep substring semantics over the token model).
Wildcards ``*`` (any run) and ``?`` (one character) are allowed within a
token but never span delimiters — the paper's stated restriction.
``ignore_case=True`` gives grep ``-i`` semantics.

Precedence: ``NOT`` (as ``AND NOT``) and ``AND`` bind tighter than ``OR``;
parentheses override.  Internally commands normalize to disjunctive normal
form — an OR of conjunctions of possibly-negated search strings — which is
what the engine's row-set algebra and the baselines' index filters consume.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Pattern, Tuple

from ..common.chartypes import type_mask
from ..common.errors import QuerySyntaxError
from ..common.tokenizer import tokenize
from .modes import MatchMode

_OPERATORS = {"and": "AND", "or": "OR", "not": "NOT"}
_PARENS = {"(", ")"}
_WILDCARDS = frozenset("*?")

#: Hard cap on DNF size (parenthesized queries could blow up).
MAX_DISJUNCTS = 64


@dataclass
class Keyword:
    """One token of a search string."""

    text: str
    ignore_case: bool = False
    _regexes: Dict[Tuple[MatchMode, bool], Pattern] = field(
        default_factory=dict, repr=False
    )
    #: Whether the text holds a ``*`` or ``?``.
    is_wildcard: bool = field(init=False, repr=False, compare=False)
    #: True when token matching must go through the regex path.  Both
    #: flags are fixed at construction: the engine asks per token.
    needs_regex: bool = field(init=False, repr=False, compare=False)
    #: ``(mask, length)`` that a value holding a match must cover and
    #: reach, for the vector stamp gate: a literal keyword's own
    #: character-class mask and length; a wildcard keyword's literal
    #: runs' union mask and their total length plus one per ``?``.  None under ``-i``, since stamps record exact
    #: character classes.
    gate: Optional[Tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.is_wildcard = not _WILDCARDS.isdisjoint(self.text)
        self.needs_regex = self.is_wildcard or self.ignore_case
        if self.ignore_case:
            self.gate = None
        elif self.is_wildcard:
            runs = self.literals()
            self.gate = (
                type_mask("".join(runs)),
                sum(map(len, runs)) + self.text.count("?"),
            )
        else:
            self.gate = (type_mask(self.text), len(self.text))

    def literals(self) -> List[str]:
        """Literal runs between wildcards (all of them non-empty)."""
        return [part for part in re.split(r"[*?]+", self.text) if part]

    def longest_literal(self) -> str:
        """The best stamp-filterable fragment; empty when none is safe.

        Case-insensitive keywords return "" because stamps record exact
        character classes — a lowercase literal must not be used to filter
        Capsules that hold its uppercase form.
        """
        if self.ignore_case:
            return ""
        runs = self.literals()
        return max(runs, key=len) if runs else ""

    def regex_for(self, mode: MatchMode) -> Pattern:
        """Anchored regex equivalent for wildcard/ignore-case evaluation."""
        key = (mode, self.ignore_case)
        regex = self._regexes.get(key)
        if regex is None:
            body = "".join(
                ".*" if ch == "*" else "." if ch == "?" else re.escape(ch)
                for ch in self.text
            )
            if mode is MatchMode.EXACT:
                body = f"^{body}$"
            elif mode is MatchMode.PREFIX:
                body = f"^{body}"
            elif mode is MatchMode.SUFFIX:
                body = f"{body}$"
            regex = re.compile(body, re.IGNORECASE if self.ignore_case else 0)
            self._regexes[key] = regex
        return regex


@dataclass
class SearchString:
    """One operand of a query command."""

    text: str
    ignore_case: bool = False
    keywords: List[Keyword] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.keywords:
            self.keywords = [
                Keyword(token, self.ignore_case) for token in tokenize(self.text)
            ]

    @property
    def multi_token(self) -> bool:
        return len(self.keywords) > 1

    @property
    def cache_key(self) -> str:
        return f"i:{self.text}" if self.ignore_case else self.text


@dataclass
class Term:
    """A possibly negated search string within a conjunction."""

    search: SearchString
    negated: bool = False


@dataclass
class QueryCommand:
    """A parsed command in disjunctive normal form."""

    disjuncts: List[List[Term]]
    raw: str
    ignore_case: bool = False

    def search_strings(self) -> List[SearchString]:
        return [term.search for disjunct in self.disjuncts for term in disjunct]


# ----------------------------------------------------------------------
# AST (internal): built by the recursive-descent parser, then normalized.
# ----------------------------------------------------------------------
class _Node:
    pass


@dataclass
class _Leaf(_Node):
    text: str
    negated: bool = False


@dataclass
class _And(_Node):
    parts: List[_Node]


@dataclass
class _Or(_Node):
    parts: List[_Node]


class _Parser:
    """Recursive descent over pre-grouped items.

    Items are either operator markers, parentheses, or search-string text
    chunks (which may contain spaces).
    """

    def __init__(self, items: List[str], raw: str):
        self.items = items
        self.raw = raw
        self.pos = 0

    def _peek(self) -> Optional[str]:
        return self.items[self.pos] if self.pos < len(self.items) else None

    def _take(self) -> str:
        item = self.items[self.pos]
        self.pos += 1
        return item

    def parse(self) -> _Node:
        node = self.or_expr()
        if self._peek() is not None:
            raise QuerySyntaxError(f"unexpected {self._peek()!r} in query {self.raw!r}")
        return node

    def or_expr(self) -> _Node:
        parts = [self.and_expr()]
        while self._peek() == "OR":
            self._take()
            parts.append(self.and_expr())
        return parts[0] if len(parts) == 1 else _Or(parts)

    def and_expr(self) -> _Node:
        parts = [self.unary()]
        while self._peek() in ("AND", "NOT"):
            op = self._take()
            operand = self.unary()
            if op == "NOT":
                operand = _negate(operand)
            parts.append(operand)
        return parts[0] if len(parts) == 1 else _And(parts)

    def unary(self) -> _Node:
        item = self._peek()
        if item is None:
            raise QuerySyntaxError(f"query {self.raw!r} ends unexpectedly")
        if item == "NOT":
            self._take()
            return _negate(self.unary())
        if item == "(":
            self._take()
            node = self.or_expr()
            if self._peek() != ")":
                raise QuerySyntaxError(f"missing ')' in query {self.raw!r}")
            self._take()
            return node
        if item in ("AND", "OR", ")"):
            raise QuerySyntaxError(f"unexpected {item!r} in query {self.raw!r}")
        return _Leaf(self._take())


def _negate(node: _Node) -> _Node:
    """Negation-normal form via De Morgan."""
    if isinstance(node, _Leaf):
        return _Leaf(node.text, not node.negated)
    if isinstance(node, _And):
        return _Or([_negate(part) for part in node.parts])
    return _And([_negate(part) for part in node.parts])


def _to_dnf(node: _Node, raw: str) -> List[List[_Leaf]]:
    if isinstance(node, _Leaf):
        return [[node]]
    if isinstance(node, _Or):
        out: List[List[_Leaf]] = []
        for part in node.parts:
            out.extend(_to_dnf(part, raw))
            if len(out) > MAX_DISJUNCTS:
                raise QuerySyntaxError(f"query {raw!r} is too complex")
        return out
    # AND: cartesian product of the parts' DNFs.
    product: List[List[_Leaf]] = [[]]
    for part in node.parts:
        branches = _to_dnf(part, raw)
        product = [
            existing + branch for existing in product for branch in branches
        ]
        if len(product) > MAX_DISJUNCTS:
            raise QuerySyntaxError(f"query {raw!r} is too complex")
    return product


def _group_items(raw: str) -> List[str]:
    """Split a raw command into operator/paren markers and search chunks."""
    items: List[str] = []
    pending: List[str] = []

    def flush() -> None:
        if pending:
            text = " ".join(pending)
            if not text.strip(" "):
                raise QuerySyntaxError(f"empty search string in query {raw!r}")
            items.append(text)
            pending.clear()

    for token in raw.split(" "):
        op = _OPERATORS.get(token.lower()) if token else None
        if op is not None:
            flush()
            items.append(op)
        elif token in _PARENS:
            flush()
            items.append(token)
        else:
            pending.append(token)
    flush()
    if not items:
        raise QuerySyntaxError(f"query {raw!r} contains no search string")
    return items


def parse_query(raw: str, ignore_case: bool = False) -> QueryCommand:
    """Parse a query command string into DNF.

    ``ignore_case`` applies grep ``-i`` semantics to every keyword.
    """
    items = _group_items(raw)
    node = _Parser(items, raw).parse()
    disjuncts: List[List[Term]] = []
    cache: Dict[Tuple[str, bool], SearchString] = {}
    for branch in _to_dnf(node, raw):
        terms = []
        for leaf in branch:
            key = (leaf.text, ignore_case)
            search = cache.get(key)
            if search is None:
                search = SearchString(leaf.text, ignore_case)
                cache[key] = search
            terms.append(Term(search, leaf.negated))
        disjuncts.append(terms)
    return QueryCommand(disjuncts, raw, ignore_case)
