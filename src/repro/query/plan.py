"""Logical query plans: the one IR every query consumer builds (§5).

``grep``, ``count``, ``explain``, interactive sessions and the cluster
coordinator all turn a command string into a :class:`QueryPlan` and hand
it to the physical pipeline in :mod:`repro.query.executor`.  The plan
captures everything that is decided *before* any block is touched:

* the parsed command — a DNF of possibly-negated search strings
  (:class:`~repro.query.language.QueryCommand`);
* per-disjunct **term order**: positive terms sorted most-selective-first
  (CLP's "obscurest query first" heuristic — longer literals are rarer,
  so they empty the row-set accumulator early and short-circuit the rest),
  negated terms last because they can only shrink a set the positives must
  first establish;
* the **output mode** — ``LINES`` runs the full pipeline, ``COUNT`` elides
  reconstruction, ``EXPLAIN`` dry-runs the pipeline and renders what each
  operator would decide.

Because the plan is an ordinary value object it can be built once and
shipped to every block — the thread-pool scheduler and the cluster
coordinator both execute the *same* plan instead of re-parsing the raw
command per block.

Plans are also agnostic to where a block's bytes live.  The streaming
hot tail exploits this: its reader lists **unencoded tail blocks**
(``tail-*.lgcb``, one per uncommitted block plus the append buffer)
after the sealed ``block-*`` names, and the executor runs the same plan
over them — COUNT/LINES/ANALYZE plans as one text scan of their lines,
folded by the same disjunct fold, and every other plan over a box built
on demand, which the prune operators skip because it is already open.
Nothing in this module knows about the tail; that is the point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Union

from .aggregate import AggregateSpec
from .language import QueryCommand, SearchString, Term, parse_query


class OutputMode(Enum):
    """What the physical pipeline produces."""

    LINES = "lines"  # full pipeline: locate + reconstruct original entries
    COUNT = "count"  # reconstruction elided; only located-row counts
    EXPLAIN = "explain"  # dry run; render per-operator decisions
    ANALYZE = "analyze"  # full pipeline + per-operator resource ledger
    AGGREGATE = "aggregate"  # fold located rows into a partial aggregate
    #: Locate only; ship the per-group row sets and defer reconstruction
    #: to a later bounded fetch (the cluster's grep gather protocol).
    ROWS = "rows"


def term_selectivity(term: Term) -> int:
    """Crude selectivity estimate of one term.

    The total length of the stamp-filterable literals of its keywords:
    longer literal runs are rarer in practice, so evaluating them first
    maximizes early short-circuiting.  Wildcard keywords contribute their
    longest literal run; ignore-case keywords fall back to their raw text.
    """
    return sum(
        len(keyword.longest_literal() or keyword.text)
        for keyword in term.search.keywords
    )


@dataclass
class PlannedTerm:
    """One possibly-negated search string with its selectivity estimate."""

    search: SearchString
    negated: bool
    selectivity: int

    @classmethod
    def from_term(cls, term: Term) -> "PlannedTerm":
        return cls(term.search, term.negated, term_selectivity(term))

    def describe(self) -> str:
        prefix = "NOT " if self.negated else ""
        return f"{prefix}{self.search.text!r}(sel={self.selectivity})"


@dataclass
class PlannedDisjunct:
    """One conjunction with its terms already in evaluation order."""

    terms: List[PlannedTerm] = field(default_factory=list)

    @classmethod
    def from_terms(cls, terms: List[Term]) -> "PlannedDisjunct":
        planned: List[PlannedTerm] = []
        seen = set()
        for term in terms:
            # AND is idempotent: a literal repeated within one conjunction
            # ("a AND a") would pay Match twice for the same row set, so
            # identical (search, polarity) pairs collapse to one term.
            key = (term.search.cache_key, term.negated)
            if key in seen:
                continue
            seen.add(key)
            planned.append(PlannedTerm.from_term(term))
        planned.sort(key=lambda t: (t.negated, -t.selectivity))
        return cls(planned)

    def describe(self) -> str:
        return " AND ".join(term.describe() for term in self.terms)


@dataclass
class QueryPlan:
    """The logical plan: ordered terms per disjunct plus the output mode."""

    command: QueryCommand
    mode: OutputMode = OutputMode.LINES
    disjuncts: List[PlannedDisjunct] = field(default_factory=list)
    #: Set for aggregate plans: what the Aggregate operator folds rows
    #: into (replacing Reconstruct).  ``None`` disjuncts + an aggregate
    #: means match-all — every row of every group is aggregated.
    aggregate: Optional[AggregateSpec] = None
    #: Optional wall-clock window (epoch seconds, inclusive): blocks whose
    #: prune-index timestamp range is disjoint from it are skipped before
    #: any stamp check — zero store reads.  Pruning is
    #: block-granular (partition pruning): in-window blocks still return
    #: all their matches.
    from_time: Optional[float] = None
    to_time: Optional[float] = None

    @property
    def raw(self) -> str:
        return self.command.raw

    @property
    def ignore_case(self) -> bool:
        return self.command.ignore_case

    def search_strings(self) -> List[SearchString]:
        """Distinct search strings in evaluation order (deduped by key)."""
        seen = set()
        out: List[SearchString] = []
        for disjunct in self.disjuncts:
            for term in disjunct.terms:
                key = term.search.cache_key
                if key not in seen:
                    seen.add(key)
                    out.append(term.search)
        return out

    def describe(self) -> str:
        """Human-readable logical plan (one line per disjunct)."""
        lines = [
            f"logical plan for {self.raw!r} (mode={self.mode.value}"
            + (", ignore_case" if self.ignore_case else "")
            + ")"
        ]
        if self.aggregate is not None:
            lines.append(f"  aggregate: {self.aggregate.describe()}")
        if self.from_time is not None or self.to_time is not None:
            lines.append(
                f"  time window: [{self.from_time}, {self.to_time}] "
                "(block-granular prune)"
            )
        for i, disjunct in enumerate(self.disjuncts):
            lines.append(f"  disjunct {i}: {disjunct.describe()}")
        if not self.disjuncts:
            lines.append("  match: all rows (no WHERE filter)")
        return "\n".join(lines)


def build_plan(
    command: Union[str, QueryCommand],
    mode: OutputMode = OutputMode.LINES,
    ignore_case: bool = False,
    aggregate: Optional[AggregateSpec] = None,
    from_time: Optional[float] = None,
    to_time: Optional[float] = None,
) -> QueryPlan:
    """Parse (if needed) and plan a query command.

    ``ignore_case`` only applies when *command* is a raw string; a parsed
    :class:`QueryCommand` already carries its case sensitivity.
    """
    parsed = (
        parse_query(command, ignore_case)
        if isinstance(command, str)
        else command
    )
    disjuncts = [
        PlannedDisjunct.from_terms(disjunct) for disjunct in parsed.disjuncts
    ]
    return QueryPlan(parsed, mode, disjuncts, aggregate, from_time, to_time)


def match_all_command(ignore_case: bool = False) -> QueryCommand:
    """The empty WHERE: a command with no disjuncts.

    ``parse_query("")`` is (rightly) a syntax error for grep, but an
    aggregate without a filter folds *every* row, so the planner builds
    the no-op command directly.
    """
    return QueryCommand([], "", ignore_case)


def build_aggregate_plan(
    spec: AggregateSpec,
    where: Optional[Union[str, QueryCommand]] = None,
    mode: OutputMode = OutputMode.AGGREGATE,
    ignore_case: bool = False,
    from_time: Optional[float] = None,
    to_time: Optional[float] = None,
) -> QueryPlan:
    """Plan one aggregate: optional WHERE filter + the aggregate spec.

    The resulting plan is an ordinary value object — the thread-pool
    scheduler and the cluster coordinator ship the same plan to every
    block/node and merge the returned partial aggregates.
    """
    command: Union[str, QueryCommand] = (
        where if where else match_all_command(ignore_case)
    )
    return build_plan(
        command, mode, ignore_case, aggregate=spec,
        from_time=from_time, to_time=to_time,
    )
