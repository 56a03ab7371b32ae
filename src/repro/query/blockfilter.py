"""Block-level query pruning: the charset-mask check on the prune index.

:func:`summary_might_match` decides, from a block's
:class:`~repro.blockstore.index.BlockSummary` alone (zero store reads),
whether any line of the block can satisfy a query: the §5.1 charset-mask
check hoisted to block granularity.  The engine matches every keyword
fragment within a single rendered token, and the summary mask is the
union of the template-constant and vector-stamp masks, so a fragment
whose mask is not subsumed cannot occur anywhere in the block.
Wildcard keywords contribute their literal runs; case-insensitive
fragments skip the check (the classes are case-split); negated terms
never prune — the prune is always sound, never lossy.

The check takes an optional per-block **memo** (term key → verdict): a
block pass serving many plans hands every plan the same dict, so each
distinct term is decided once per block however many plans (or
disjuncts) contain it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, Optional

from ..common import chartypes
from .language import QueryCommand, Term

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..blockstore.index import BlockSummary


def _fragments(term: Term) -> Iterator[str]:
    """The literal runs every match of *term* must contain."""
    for keyword in term.search.keywords:
        yield from keyword.literals() if keyword.is_wildcard else [keyword.text]


def summary_might_match(
    summary: "BlockSummary",
    command: QueryCommand,
    use_stamps: bool = True,
    memo: Optional[Dict[str, bool]] = None,
) -> bool:
    """Could any entry of the summarized block satisfy *command*?

    Sound for the same reason the per-capsule checks are: every check is
    necessary for a match, so a False here proves no line can match.
    """
    if not use_stamps:
        return True
    memo = {} if memo is None else memo

    def alive(term: Term) -> bool:
        if term.negated or term.search.ignore_case:
            return True
        key = term.search.cache_key
        verdict = memo.get(key)
        if verdict is None:
            verdict = memo[key] = all(
                chartypes.mask_subsumes(
                    summary.type_mask, chartypes.fragment_mask(f)
                )
                for f in _fragments(term)
            )
        return verdict

    return any(all(alive(term) for term in disjunct) for disjunct in command.disjuncts)
