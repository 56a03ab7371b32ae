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

A conjunction is evaluated as a pushdown: the first term of a disjunct
is matched over every group, and each later AND or NOT term only over
the rows the accumulator still holds (*alive*).  The engine then visits
only the groups in *alive*, starts every match from their candidate
rows, and the readers probe those rows in place (§5.2 direct checking)
instead of scanning the Capsule when there are few of them.  A term
resolved on *alive* is exact on *alive* only; the executor's Match memo
and the Query Cache keep that coverage next to the rows.

Capsule decisions are counted here and nowhere else (``_search_var``).

Lines that were never encoded — a stream's hot tail — are located by
:func:`text_rows`, one text scan per search string under the same token
model, folded by the same :func:`fold_disjuncts`.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Pattern,
    Sequence,
    Tuple,
    Union,
)

from ..capsule.box import CapsuleBox, GroupBox
from ..common.rowset import RowSet
from ..obs import ledger as ledger_channel
from .language import Keyword, QueryCommand, SearchString
from .modes import MatchMode
from .plan import QueryPlan, build_plan
from .vectors import QuerySettings, VectorReader, box_readers

#: Block-level result: group index → matching entry rows.
GroupRows = Dict[int, RowSet]

#: Resolver hook used for the query cache: maps a search string and the
#: accumulator's alive rows (None = every row) to its block-level result,
#: exact on the alive rows and within them (the engine's
#: ``search_string_rows`` by default).
Resolver = Callable[[SearchString, Optional[GroupRows]], GroupRows]


class BlockEngine:
    """Query executor bound to one deserialized CapsuleBox.

    The engine is per pass — it carries the run's settings — while the
    vector readers it searches through belong to the box
    (:func:`~repro.query.vectors.box_readers`), so a pinned box's readers
    serve every query of a refining session.
    """

    def __init__(self, box: CapsuleBox, settings: Optional[QuerySettings] = None):
        self.box = box
        self.settings = settings or QuerySettings()
        self._vectors = box_readers(box)
        # The open Match's read log and Capsule decisions (_search_var).
        self._reads: List[int] = []
        self._considered = 0
        self._filtered = 0

    # ------------------------------------------------------------------
    @property
    def readers(self) -> Dict[Tuple[int, int], VectorReader]:
        """The box's (group, var) → vector-reader map, shared with the
        Reconstructor and with every later pass over the same box."""
        return self._vectors.readers

    def reader(self, group_idx: int, var_idx: int) -> VectorReader:
        return self._vectors.reader(group_idx, var_idx)

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
    def search_string_rows(
        self, search: SearchString, alive: Optional[GroupRows] = None
    ) -> GroupRows:
        """Block-level match of one search string, over every row, or
        only over the *alive* rows of the groups in *alive*.  Its Capsule
        decisions are charged once, at the end."""
        out: GroupRows = {}
        groups = self.box.groups
        self._considered = self._filtered = 0
        previous = ledger_channel.record_reads(self._reads)
        try:
            for group_idx in range(len(groups)) if alive is None else sorted(alive):
                candidates = None if alive is None else alive[group_idx]
                if candidates is not None and candidates.is_full():
                    candidates = None  # a whole group is matched as one
                rows = self._match_group(
                    group_idx, groups[group_idx], search, candidates
                )
                if rows:
                    out[group_idx] = rows
        finally:
            ledger_channel.record_reads(previous)
            ledger_channel.charge_decisions(self._considered, self._filtered)
        return out

    def _match_group(
        self,
        group_idx: int,
        group: GroupBox,
        search: SearchString,
        candidates: Optional[RowSet],
    ) -> RowSet:
        """The rows of one group matching *search*, among *candidates*
        (every row when None)."""
        n = group.num_entries
        every = RowSet.full(n) if candidates is None else candidates
        result = RowSet.empty(n)
        keywords = search.keywords
        tokens = group.template.tokens
        k = len(keywords)
        if k == 1:
            keyword = keywords[0]
            for pos, token in enumerate(tokens):
                if token is not None:
                    if _const_matches(token, keyword, MatchMode.SUBSTRING):
                        return every
                    continue
                var_idx = self._vectors.var_ordinals[group_idx][pos]
                result = result | self._search_var(
                    group_idx, var_idx, keyword, MatchMode.SUBSTRING, candidates
                )
                if result and result == every:
                    break
            return result

    # multi-keyword: consecutive token windows
        for start in range(0, len(tokens) - k + 1):
            window = self._match_window(
                group_idx, group, keywords, start, candidates
            )
            if window is not None:
                result = result | window
                if result and result == every:
                    break
        return result

    def _match_window(
        self,
        group_idx: int,
        group: GroupBox,
        keywords: List[Keyword],
        start: int,
        candidates: Optional[RowSet],
    ) -> Optional[RowSet]:
        """Match keywords against tokens[start : start+k] among
        *candidates* (every row when None); None = no match.  Each
        variable narrows the candidates the next one is checked on."""
        tokens = group.template.tokens
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
        acc = RowSet.full(group.num_entries) if candidates is None else candidates
        for pos, keyword, mode in var_checks:
            var_idx = self._vectors.var_ordinals[group_idx][pos]
            acc = self._search_var(
                group_idx, var_idx, keyword, mode,
                None if acc.is_full() else acc,
            )
            if not acc:
                return acc
        return acc

    def _search_var(
        self,
        group_idx: int,
        var_idx: int,
        keyword: Keyword,
        mode: MatchMode,
        candidates: Optional[RowSet],
    ) -> RowSet:
        """The rows among *candidates* (every row when None) whose value
        of one variable matches *keyword*.  Readers may check every row
        (above their direct-checking bound); the result is cut to the
        candidates here.  Each of the vector's Capsules is counted as
        considered once, and as filtered unless the search read it.

        A case-sensitive keyword is first checked against the vector's
        stamp (:func:`~repro.capsule.box.vector_stamp`, read off the
        box's directory) through its :attr:`~Keyword.gate`: one it cannot
        pass occurs in no value, and is answered before the vector or a
        reader is built or the Locator asked — with the same counts a
        Locator rejection gives (:meth:`_gate`)."""
        owned = self._gate(group_idx, var_idx, keyword)
        if owned is not None:
            self._considered += owned
            self._filtered += owned
            return RowSet.empty(self.box.groups[group_idx].num_entries)
        reader = self._vectors.reader(group_idx, var_idx)
        reads = self._reads
        reads.clear()
        if keyword.needs_regex:
            rows = reader.search_wildcard(keyword, mode, self.settings, candidates)
        else:
            rows = reader.search(keyword.text, mode, self.settings, candidates)
        # A Capsule may be read more than once (several Locator candidates).
        read = len(reads) if len(reads) < 2 else len(set(reads))
        owned = reader.num_capsules
        self._considered += owned
        self._filtered += owned - read
        return rows if candidates is None else rows & candidates

    def _gate(
        self, group_idx: int, var_idx: int, keyword: Keyword
    ) -> Optional[int]:
        """The vector stamp gate: None when *keyword* may occur in a value
        of the vector (always under ``-i`` or ``w/o stamp``), else the
        number of Capsules the vector owns, all of which it filters."""
        gate = keyword.gate
        if gate is None or not self.settings.use_stamps:
            return None
        mask, max_len, owned = self._vectors.stamp(group_idx, var_idx)
        return owned if gate[1] > max_len or gate[0] & ~mask else None


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
# raw text
# ----------------------------------------------------------------------
def text_rows(plan: QueryPlan, lines: Sequence[str]) -> GroupRows:
    """Locate *plan* over raw *lines*, as one group of ``len(lines)``
    rows.

    One space is the token model's only delimiter, so a literal search
    string matches a line exactly where its text occurs in it: ``"a b"``
    occurs only as a suffix of one token, a space and a prefix of the
    next, which is what the engine checks.  A wildcard search string is
    one regex over the same text (``*`` → ``[^ \\n]*``, ``?`` →
    ``[^ \\n]``), and ``ignore_case`` adds ``re.IGNORECASE``.  Each term
    is one ``str.find`` / ``re.search`` walk over the lines joined by
    ``\\n``; a hit maps to its row by bisection over the line starts
    and the walk resumes at the next line.
    """
    text = "\n".join(lines)
    starts = [0, *accumulate(len(line) + 1 for line in lines)]
    last = len(lines) - 1

    def resolve(search: SearchString, alive: Optional[GroupRows]) -> GroupRows:
        if "\n" in search.text:  # a line holds no newline
            return {}
        rows = RowSet.empty(len(lines))
        if any(keyword.needs_regex for keyword in search.keywords):
            regex = _text_regex(search)

            def find(pos: int) -> int:
                hit = regex.search(text, pos)
                return -1 if hit is None else hit.start()

        else:
            needle = search.text

            def find(pos: int) -> int:
                return text.find(needle, pos)

        pos = find(0)
        while pos >= 0:
            row = bisect_right(starts, pos) - 1
            rows.add(row)
            if row == last:
                break
            pos = find(starts[row + 1])
        return {0: rows} if rows else {}

    return fold_disjuncts(plan, resolve, lambda: shape_rows((len(lines),)))


def _text_regex(search: SearchString) -> Pattern:
    body = "".join(
        "[^ \n]*" if ch == "*" else "[^ \n]" if ch == "?" else re.escape(ch)
        for ch in search.text
    )
    return re.compile(body, re.IGNORECASE if search.ignore_case else 0)


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

    A disjunct's first term is resolved over every row; each later term
    only over the accumulator it is about to narrow, so its answer need
    be exact on those rows alone.
    """
    total: GroupRows = {}
    for disjunct in plan.disjuncts:
        acc = full()
        alive: Optional[GroupRows] = None  # the first term sees every row
        for term in disjunct.terms:
            rows = resolve(term.search, alive)
            if term.negated:
                acc = _difference(acc, rows)
            else:
                acc = _intersect(acc, rows)
            if not acc:
                break
            alive = acc
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
