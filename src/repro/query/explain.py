"""Query EXPLAIN: the dry-run rendering of the physical plan.

``LogGrep.explain(command)`` builds the same :class:`QueryPlan` that
``grep``/``count`` execute and hands it to the executor in ``EXPLAIN``
mode; instead of locating rows, each block's pipeline renders *why* each
Capsule would or would not be touched — block prunes, stamp checks,
runtime-pattern candidates.  Invaluable for understanding a slow query
and for teaching the §5 machinery.

The rendering is the engine's own Match, dry-run (:class:`DryRunEngine`
overrides only ``_search_var``): the distinct search strings come from
:meth:`QueryPlan.search_strings`, and the vectors each reaches, in which
keyword-position mode, and the groups its template constants answer,
from ``_match_group`` and ``_match_window``.  A vector reached gets the
engine's stamp gate, then its reader's pre-read verdict from the
helpers the reader's search calls.  No Capsule is read.  A vector that
may match is taken to match every row it is given, so a single
keyword's walk over a group ends at the first such vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from ..capsule.assembler import ENC_NOMINAL, ENC_PLAIN, ENC_REAL
from ..capsule.box import CapsuleBox
from ..common.rowset import RowSet
from ..query.engine import BlockEngine
from ..query.language import Keyword, QueryCommand
from ..query.locator import TOO_COMPLEX
from ..query.modes import MatchMode
from ..query.plan import OutputMode, QueryPlan, build_plan
from ..query.stats import CACHE_KINDS
from ..query.vectors import (
    NominalVectorReader,
    QuerySettings,
    RealVectorReader,
    VectorReader,
    literal_runs,
)

_KINDS = {ENC_REAL: "real", ENC_NOMINAL: "nominal", ENC_PLAIN: "plain"}


@dataclass
class VectorPlan:
    """What one keyword does to one variable vector."""

    group: int
    var: int
    kind: str  # real / nominal / plain
    keyword: str
    mode: str
    decision: str  # filtered / candidates / scan / regex-scan
    detail: str = ""


@dataclass
class BlockPlan:
    """Explain output for one block."""

    block: str
    template_hits: List[str] = field(default_factory=list)
    vector_plans: List[VectorPlan] = field(default_factory=list)

    def summary(self) -> str:
        filtered = sum(1 for p in self.vector_plans if p.decision == "filtered")
        total = len(self.vector_plans)
        lines = [f"block {self.block}: {filtered}/{total} keyword-vector pairs filtered"]
        for hit in self.template_hits:
            lines.append(f"  template hit: {hit}")
        for plan in self.vector_plans:
            lines.append(
                f"  g{plan.group}/v{plan.var} [{plan.kind}] "
                f"{plan.keyword!r} ({plan.mode}): {plan.decision}"
                + (f" — {plan.detail}" if plan.detail else "")
            )
        return "\n".join(lines)


def render_analyze(
    ledger, stats, elapsed: float, physical_plan: str = ""
) -> str:
    """The ``EXPLAIN ANALYZE`` report: the physical plan followed by a
    per-operator resource table from a :class:`~repro.query.stats.QueryLedger`.

    The ``read_bytes`` column counts exactly what the store-level metric
    ``loggrep_store_range_read_bytes_total`` counts, so the table's total
    reconciles with the registry's delta for the query.
    """
    columns = (
        ("calls", "calls"),
        ("time_ms", None),  # derived from seconds
        ("range_reads", "range_reads"),
        ("read_bytes", "read_bytes"),
        ("capsules", "capsules_fetched"),
        ("decompressed", "bytes_decompressed"),
        ("rows_scanned", "rows_scanned"),
        ("vectors_built", "vectors_built"),
    )

    def row(label: str, op) -> List[str]:
        return [label] + [
            f"{op.seconds * 1000:.2f}" if attr is None else str(getattr(op, attr))
            for _, attr in columns
        ]

    rows = [row(name, op) for name, op in ledger.ordered_operators()]
    rows.append(row("TOTAL", ledger.totals()))

    headers = ["operator"] + [header for header, _ in columns]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows))
        for i in range(len(headers))
    ]

    def fmt(cells):
        first = cells[0].ljust(widths[0])
        rest = "  ".join(
            cell.rjust(widths[i + 1]) for i, cell in enumerate(cells[1:])
        )
        return f"  {first}  {rest}"

    lines = []
    if physical_plan:
        lines.append(physical_plan)
    lines.append(f"resource ledger (wall time {elapsed * 1000:.2f} ms):")
    lines.append(fmt(headers))
    lines.append(fmt(["-" * w for w in widths]))
    for cells in rows:
        lines.append(fmt(cells))
    caches = [
        f"{kind}={getattr(ledger, f'{kind}_cache_hits')}"
        f"/{getattr(ledger, f'{kind}_cache_hits') + getattr(ledger, f'{kind}_cache_misses')}"
        for kind in CACHE_KINDS
    ]
    lines.append(f"  cache hits (hit/lookups): {', '.join(caches)}")
    lines.append(f"  decoded values: {ledger.decoded_values}")
    if ledger.budget is not None:
        budget = ledger.budget.as_dict()
        spent = [
            f"{key} {budget[key]}"
            + ("" if budget[f"max_{key}"] is None else f"/{budget[f'max_{key}']}")
            for key in ("read_bytes", "decoded_values")
        ]
        lines.append(f"  budget: {', '.join(spent)}")
    if stats is not None:
        lines.append(
            "  stats: "
            f"{stats.blocks_visited} block(s) visited, "
            f"{stats.blocks_pruned} pruned, "
            f"{stats.capsules_considered} capsule(s) considered, "
            f"{stats.capsules_filtered} filtered, "
            f"{stats.entries_matched} entr(ies) matched"
        )
    return "\n".join(lines)


def explain_block(
    box: CapsuleBox,
    command: Union[QueryCommand, QueryPlan],
    name: str,
    settings: Optional[QuerySettings] = None,
) -> BlockPlan:
    """Dry-run every distinct search string of *command* over *box*.

    Accepts a pre-built :class:`QueryPlan` (the executor's EXPLAIN path)
    or a raw :class:`QueryCommand`, which is planned on the spot.
    *settings* are the executing run's, so ``w/o stamp`` renders no
    stamp filter.  A group the search string matches without a vector
    that may match it is a template hit: its constants answer it.
    """
    query_plan = (
        command
        if isinstance(command, QueryPlan)
        else build_plan(command, OutputMode.EXPLAIN)
    )
    engine = DryRunEngine(box, settings)
    plan = BlockPlan(name, vector_plans=engine.plans)
    for search in query_plan.search_strings():
        start = len(engine.plans)
        matched = engine.search_string_rows(search)
        reached = {
            p.group for p in engine.plans[start:] if p.decision != "filtered"
        }
        plan.template_hits.extend(
            f"{search.text!r} matches static pattern of group {group_idx}"
            for group_idx in sorted(matched.keys() - reached)
        )
    return plan


class DryRunEngine(BlockEngine):
    """A :class:`BlockEngine` whose Match reads no Capsule: it records
    each vector search as a :class:`VectorPlan`.  A vector the stamp gate
    or its reader's pre-read verdict filters matches no row; any other
    matches every row it is given (every row when None)."""

    def __init__(self, box: CapsuleBox, settings: Optional[QuerySettings] = None):
        super().__init__(box, settings)
        self.plans: List[VectorPlan] = []

    def _search_var(
        self,
        group_idx: int,
        var_idx: int,
        keyword: Keyword,
        mode: MatchMode,
        candidates: Optional[RowSet],
    ) -> RowSet:
        group = self.box.groups[group_idx]
        if self._gate(group_idx, var_idx, keyword) is not None:
            decision, detail = "filtered", "vector stamp rules the keyword out"
        else:
            decision, detail = vector_verdict(
                self.reader(group_idx, var_idx), keyword, mode, self.settings
            )
        self.plans.append(
            VectorPlan(
                group_idx, var_idx, _KINDS[group.vector_tag(var_idx)],
                keyword.text, mode.value, decision, detail,
            )
        )
        if decision == "filtered":
            return RowSet.empty(group.num_entries)
        return RowSet.full(group.num_entries) if candidates is None else candidates


def vector_verdict(
    reader: VectorReader,
    keyword: Keyword,
    mode: MatchMode,
    settings: QuerySettings,
) -> Tuple[str, str]:
    """``(decision, detail)``: what *reader* decides about a keyword the
    stamp gate passed, before it reads a byte, from the helpers its
    search calls — a real vector's Locator candidates and outlier stamp,
    the dictionary patterns a nominal vector's Locator keeps, a plain
    vector's Capsule stamp.  Of a wildcard keyword's literal runs only a
    real vector's Locator can rule out more than the gate."""
    text = keyword.text
    if keyword.needs_regex:
        if (
            isinstance(reader, RealVectorReader)
            and not reader.encoded.outlier_rows
            and any(
                reader.locate(run, MatchMode.SUBSTRING, settings) == []
                for run in literal_runs(keyword)
            )
        ):
            return "filtered", "the Locator rules out a literal run"
        return "regex-scan", "wildcard/ignore-case keywords verify rows by regex"
    if isinstance(reader, RealVectorReader):
        candidates = reader.locate(text, mode, settings)
        outlier = reader.outlier_admits(text, settings)
        if candidates is TOO_COMPLEX:
            decision, detail = "scan", "candidate enumeration exceeded budget"
        elif candidates == [()]:
            decision, detail = "candidates", "keyword inside the pattern's constants"
        elif candidates:
            decision, detail = "candidates", f"{len(candidates)} possible match(es)"
        else:
            decision = "candidates" if outlier else "filtered"
            pattern = reader.encoded.pattern.display()
            detail = f"pattern {pattern!r} + stamps prove absence"
        return decision, detail + ("; outlier capsule still scanned" if outlier else "")
    if isinstance(reader, NominalVectorReader):
        live = len(reader.live_patterns(text, mode, settings))
        if not live:
            return "filtered", "no dictionary pattern can produce the keyword"
        total = len(reader.encoded.dict_patterns)
        return "candidates", f"{live}/{total} dictionary region(s) to check"
    if not reader.admits(text, settings):
        return "filtered", "Capsule stamp rejects the keyword"
    return "scan", "whole-vector scan required"
