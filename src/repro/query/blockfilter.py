"""Block-level query pruning: the charset-mask check on the prune index.

:func:`summary_might_match` decides, from a block's
:class:`~repro.blockstore.index.BlockSummary` alone (zero store reads),
whether any line of the block can satisfy a query: the §5.1 charset-mask
check hoisted to block granularity.  The summary mask is the union of
the template-constant masks and the vector stamps, and every keyword
matches within a single rendered token, so a keyword whose
:attr:`~repro.query.language.Keyword.gate` mask — the mask the Match
gate checks each vector stamp against — is not subsumed cannot occur
anywhere in the block.  A ``-i`` keyword has no gate (the classes are
case-split) and negated terms never prune — the prune is always sound,
never lossy.  A check is a few integer operations per keyword, so no
verdict is memoized.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .language import QueryCommand, Term

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..blockstore.index import BlockSummary


def summary_might_match(
    summary: "BlockSummary", command: QueryCommand, use_stamps: bool = True
) -> bool:
    """Could any entry of the summarized block satisfy *command*?

    Sound for the same reason the per-capsule checks are: every check is
    necessary for a match, so a False here proves no line can match.
    """
    if not use_stamps:
        return True
    mask = summary.type_mask

    def alive(term: Term) -> bool:
        return term.negated or all(
            keyword.gate is None or not keyword.gate[0] & ~mask
            for keyword in term.search.keywords
        )

    return any(all(alive(term) for term in disjunct) for disjunct in command.disjuncts)
