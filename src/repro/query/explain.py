"""Query EXPLAIN: the dry-run rendering of the physical plan.

``LogGrep.explain(command)`` builds the same :class:`QueryPlan` that
``grep``/``count`` execute and hands it to the executor in ``EXPLAIN``
mode; instead of locating rows, each block's pipeline renders *why* each
Capsule would or would not be touched — block prunes, stamp checks,
runtime-pattern candidates.  Invaluable for understanding a slow query
and for teaching the §5 machinery.

The per-vector decisions below are produced by the same
:func:`~repro.query.locator.locate` the Locate operator uses, so the
rendering cannot drift from what execution actually does; which search
strings are planned (deduped, in evaluation order) comes straight from
:meth:`QueryPlan.search_strings`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Union

from ..capsule.assembler import (
    NominalEncodedVector,
    PlainEncodedVector,
    RealEncodedVector,
)
from ..capsule.box import CapsuleBox
from ..query.language import QueryCommand
from ..query.locator import TOO_COMPLEX, locate
from ..query.modes import MatchMode
from ..query.plan import OutputMode, QueryPlan, build_plan
from ..query.stats import CACHE_KINDS


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
    rows = []
    for name, op in ledger.ordered_operators():
        cells = [name]
        for header, attr in columns:
            if attr is None:
                cells.append(f"{op.seconds * 1000:.2f}")
            else:
                cells.append(str(getattr(op, attr)))
        rows.append(cells)
    total = ledger.totals()
    total_cells = ["TOTAL"]
    for header, attr in columns:
        if attr is None:
            total_cells.append(f"{total.seconds * 1000:.2f}")
        else:
            total_cells.append(str(getattr(total, attr)))
    rows.append(total_cells)

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
        lines.append(
            "  budget: "
            f"read_bytes {budget['read_bytes']}"
            + (
                f"/{budget['max_read_bytes']}"
                if budget["max_read_bytes"] is not None
                else ""
            )
            + f", decoded_values {budget['decoded_values']}"
            + (
                f"/{budget['max_decoded_values']}"
                if budget["max_decoded_values"] is not None
                else ""
            )
        )
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
    use_stamps: bool = True,
) -> BlockPlan:
    """Render every (search string keyword, vector) decision of one block.

    Accepts a pre-built :class:`QueryPlan` (the executor's EXPLAIN path)
    or a raw :class:`QueryCommand`, which is planned on the spot.  The
    distinct search strings and their order come from the plan — the same
    dedup the Match operator's memo performs.  *use_stamps* mirrors the
    executing config's switch, so ``w/o stamp`` renders no stamp filter.
    """
    query_plan = (
        command
        if isinstance(command, QueryPlan)
        else build_plan(command, OutputMode.EXPLAIN)
    )
    plan = BlockPlan(name)
    searches = query_plan.search_strings()

    for group_idx, group in enumerate(box.groups):
        template = group.template
        constants = [t for t in template.tokens if t is not None]
        for search in searches:
            for keyword in search.keywords:
                if keyword.needs_regex:
                    continue  # handled by the regex path; skip in summary
                if any(keyword.text in const for const in constants):
                    plan.template_hits.append(
                        f"{keyword.text!r} inside static pattern of group {group_idx}"
                    )
        for var_idx, encoded in enumerate(group.vectors):
            for search in searches:
                for keyword in search.keywords:
                    plan.vector_plans.append(
                        _plan_vector(
                            group_idx, var_idx, encoded, keyword, use_stamps
                        )
                    )
    return plan


def _plan_vector(
    group_idx: int, var_idx: int, encoded, keyword, use_stamps: bool = True
) -> VectorPlan:
    mode = MatchMode.SUBSTRING
    base = dict(
        group=group_idx,
        var=var_idx,
        keyword=keyword.text,
        mode=mode.value,
    )
    if keyword.needs_regex:
        return VectorPlan(
            kind=_kind(encoded), decision="regex-scan",
            detail="wildcard/ignore-case keywords verify candidate rows by regex",
            **base,
        )
    if isinstance(encoded, RealEncodedVector):
        stamps = [c.stamp for c in encoded.subvar_capsules]
        candidates = locate(
            encoded.pattern, stamps, keyword.text, mode, use_stamps=use_stamps
        )
        if candidates is TOO_COMPLEX:
            decision, detail = "scan", "candidate enumeration exceeded budget"
        elif not candidates:
            decision = "filtered"
            detail = f"pattern {encoded.pattern.display()!r} + stamps prove absence"
        elif candidates == [()]:
            decision, detail = "candidates", "keyword inside the runtime pattern's constants"
        else:
            decision = "candidates"
            detail = f"{len(candidates)} possible match(es)"
        if encoded.outlier_rows and decision == "filtered":
            decision = "candidates"
            detail += "; outlier capsule still scanned"
        return VectorPlan(kind="real", decision=decision, detail=detail, **base)
    if isinstance(encoded, NominalEncodedVector):
        alive = 0
        for dp in encoded.dict_patterns:
            from ..capsule.stamp import CapsuleStamp

            stamps = [
                CapsuleStamp(m, l)
                for m, l in zip(dp.subvar_masks, dp.subvar_maxlens)
            ]
            result = locate(
                dp.pattern, stamps, keyword.text, mode, use_stamps=use_stamps
            )
            if result is TOO_COMPLEX or result:
                alive += 1
        if alive == 0:
            return VectorPlan(
                kind="nominal", decision="filtered",
                detail="no dictionary pattern can produce the keyword",
                **base,
            )
        return VectorPlan(
            kind="nominal", decision="candidates",
            detail=f"{alive}/{len(encoded.dict_patterns)} dictionary region(s) to check",
            **base,
        )
    if isinstance(encoded, PlainEncodedVector):
        if use_stamps and not encoded.capsule.stamp.admits(keyword.text):
            return VectorPlan(
                kind="plain", decision="filtered",
                detail="vector-level stamp rejects the keyword",
                **base,
            )
        return VectorPlan(
            kind="plain", decision="scan", detail="whole-vector scan required", **base
        )
    return VectorPlan(kind="?", decision="scan", **base)


def _kind(encoded) -> str:
    if isinstance(encoded, RealEncodedVector):
        return "real"
    if isinstance(encoded, NominalEncodedVector):
        return "nominal"
    return "plain"
