"""Per-block query execution.

The engine evaluates a parsed query command over one CapsuleBox.  For each
group (static pattern) it matches every search string at the token level:

* a single-keyword search string matches an entry when the keyword occurs
  as a substring of *any* token (constants checked directly, variables via
  their vector readers);
* a multi-keyword search string must match a window of *consecutive*
  tokens: the first keyword as a token suffix, interior keywords exactly,
  the last as a token prefix — i.e. plain grep substring semantics lifted
  onto the token model.

Results are row sets per group, combined with the query's logical
operators, and finally handed to the Reconstructor.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..capsule.box import CapsuleBox, GroupBox
from ..common.rowset import RowSet
from .language import Keyword, QueryCommand, SearchString
from .modes import MatchMode
from .plan import QueryPlan, build_plan
from .stats import QueryStats
from .vectors import QuerySettings, make_reader

#: Block-level result: group index → matching entry rows.
GroupRows = Dict[int, RowSet]

#: Resolver hook used for the query cache: maps a search string to its
#: block-level result (the engine's ``search_string_rows`` by default).
Resolver = Callable[[SearchString], GroupRows]


class BlockEngine:
    """Query executor bound to one deserialized CapsuleBox."""

    def __init__(
        self,
        box: CapsuleBox,
        settings: Optional[QuerySettings] = None,
        stats: Optional[QueryStats] = None,
    ):
        self.box = box
        self.settings = settings or QuerySettings()
        self.stats = stats if stats is not None else QueryStats()
        self._readers: Dict[Tuple[int, int], object] = {}
        # token position → variable ordinal, per group
        self._var_ordinals: List[Dict[int, int]] = [
            {pos: k for k, pos in enumerate(group.template.var_positions)}
            for group in box.groups
        ]

    # ------------------------------------------------------------------
    @property
    def readers(self) -> Dict[Tuple[int, int], object]:
        """The (group, var) → vector-reader cache.

        Shared with the Reconstructor so Capsules decompressed during
        matching are reused for reconstruction.
        """
        return self._readers

    def reader(self, group_idx: int, var_idx: int):
        key = (group_idx, var_idx)
        reader = self._readers.get(key)
        if reader is None:
            encoded = self.box.groups[group_idx].vectors[var_idx]
            reader = make_reader(encoded, self.settings, self.stats)
            self._readers[key] = reader
        return reader

    # ------------------------------------------------------------------
    def execute(
        self,
        command: Union[QueryCommand, QueryPlan],
        resolver: Optional[Resolver] = None,
    ) -> GroupRows:
        """Evaluate a planned command; returns matching rows per group.

        A raw :class:`QueryCommand` is planned on the spot; callers that
        run one plan over many blocks (the executor, the cluster) build
        the :class:`QueryPlan` once and pass it directly, so term ordering
        is decided a single time per query.
        """
        plan = command if isinstance(command, QueryPlan) else build_plan(command)
        return fold_disjuncts(
            plan, resolver or self.search_string_rows, self.full_rows
        )

    def full_rows(self) -> GroupRows:
        """Every row of every non-empty group — the identity of the
        row-set algebra, and the row source for unfiltered aggregates
        (``agg count-by`` with no WHERE)."""
        return shape_rows(group.num_entries for group in self.box.groups)

    # ------------------------------------------------------------------
    def search_string_rows(self, search: SearchString) -> GroupRows:
        """Block-level match of one search string."""
        out: GroupRows = {}
        for group_idx, group in enumerate(self.box.groups):
            rows = self._match_group(group_idx, group, search)
            if rows:
                out[group_idx] = rows
        return out

    def _match_group(
        self, group_idx: int, group: GroupBox, search: SearchString
    ) -> RowSet:
        n = group.num_entries
        result = RowSet.empty(n)
        keywords = search.keywords
        tokens = group.template.tokens
        k = len(keywords)
        if k == 1:
            keyword = keywords[0]
            for pos, token in enumerate(tokens):
                if token is not None:
                    if _const_matches(token, keyword, MatchMode.SUBSTRING):
                        return RowSet.full(n)
                    continue
                var_idx = self._var_ordinals[group_idx][pos]
                result = result | self._search_var(
                    group_idx, var_idx, keyword, MatchMode.SUBSTRING
                )
                if result.is_full():
                    break
            return result

    # multi-keyword: consecutive token windows
        for start in range(0, len(tokens) - k + 1):
            window = self._match_window(group_idx, group, keywords, start)
            if window is not None:
                result = result | window
                if result.is_full():
                    break
        return result

    def _match_window(
        self,
        group_idx: int,
        group: GroupBox,
        keywords: List[Keyword],
        start: int,
    ) -> Optional[RowSet]:
        """Match keywords against tokens[start : start+k]; None = no match."""
        tokens = group.template.tokens
        n = group.num_entries
        k = len(keywords)
        # Constants first: they are free and prune whole windows.
        var_checks = []
        for j, keyword in enumerate(keywords):
            mode = _mode_for(j, k)
            token = tokens[start + j]
            if token is not None:
                if not _const_matches(token, keyword, mode):
                    return None
            else:
                var_checks.append((start + j, keyword, mode))
        acc = RowSet.full(n)
        for pos, keyword, mode in var_checks:
            var_idx = self._var_ordinals[group_idx][pos]
            acc = acc & self._search_var(group_idx, var_idx, keyword, mode)
            if not acc:
                return acc
        return acc

    def _search_var(
        self, group_idx: int, var_idx: int, keyword: Keyword, mode: MatchMode
    ) -> RowSet:
        reader = self.reader(group_idx, var_idx)
        if keyword.needs_regex:
            return reader.search_wildcard(keyword, mode)
        return reader.search(keyword.text, mode)


def _mode_for(j: int, k: int) -> MatchMode:
    if k == 1:
        return MatchMode.SUBSTRING
    if j == 0:
        return MatchMode.SUFFIX
    if j == k - 1:
        return MatchMode.PREFIX
    return MatchMode.EXACT


def _const_matches(token: str, keyword: Keyword, mode: MatchMode) -> bool:
    if keyword.needs_regex:
        return keyword.regex_for(mode).search(token) is not None
    text = keyword.text
    if mode is MatchMode.EXACT:
        return token == text
    if mode is MatchMode.PREFIX:
        return token.startswith(text)
    if mode is MatchMode.SUFFIX:
        return token.endswith(text)
    return text in token


# ----------------------------------------------------------------------
# group-rows algebra
# ----------------------------------------------------------------------
def shape_rows(shape: Iterable[int]) -> GroupRows:
    """Full row sets for a block *shape* (per-group row counts)."""
    return {g: RowSet.full(n) for g, n in enumerate(shape) if n}


def fold_disjuncts(
    plan: QueryPlan, resolve: Resolver, full: Callable[[], GroupRows]
) -> GroupRows:
    """The disjunct fold: OR over disjuncts of AND/NOT over ordered terms.

    *resolve* maps a search string to its block-level rows and *full*
    yields the algebra's identity (every row of every group).  Neither
    needs an open box — on a warm query cache both are answered from
    cached row sets and the block's cached shape.
    """
    total: GroupRows = {}
    for disjunct in plan.disjuncts:
        acc = full()
        for term in disjunct.terms:
            rows = resolve(term.search)
            if term.negated:
                acc = _difference(acc, rows)
            else:
                acc = _intersect(acc, rows)
            if not acc:
                break
        total = _union(total, acc)
    return {g: rs for g, rs in total.items() if rs}


def _intersect(a: GroupRows, b: GroupRows) -> GroupRows:
    return {g: a[g] & b[g] for g in a.keys() & b.keys() if a[g] & b[g]}


def _union(a: GroupRows, b: GroupRows) -> GroupRows:
    out = dict(a)
    for g, rows in b.items():
        out[g] = (out[g] | rows) if g in out else rows
    return {g: rs for g, rs in out.items() if rs}


def _difference(a: GroupRows, b: GroupRows) -> GroupRows:
    out = {}
    for g, rows in a.items():
        remainder = rows - b[g] if g in b else rows
        if remainder:
            out[g] = remainder
    return out
