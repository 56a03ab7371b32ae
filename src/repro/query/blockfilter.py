"""Block-level query pruning: trigram Bloom filters and charset masks.

:func:`command_might_match` decides whether a whole CapsuleBox can be
skipped for a query: if every OR-branch contains some positive literal
fragment whose trigrams are missing from the block's Bloom filter, no
entry of the block can match.  Wildcard keywords contribute their literal
runs; ignore-case and short (<3 char) fragments cannot be checked and
conservatively pass — the prune is always sound, never lossy.

:func:`summary_might_match` is the zero-read variant over a
:class:`~repro.blockstore.index.BlockSummary` from the persistent prune
index: it applies the same Bloom check (when bloom bits were compiled
into the archive) plus the §5.1 charset-mask check hoisted to block
granularity.  The engine matches every keyword fragment within a single
rendered token, and the summary mask is the union of template-constant,
capsule-stamp and pattern-constant masks, so a fragment whose mask is
not subsumed cannot occur anywhere in the block.  Case-insensitive
fragments skip the mask check (the classes are case-split); negated
terms never prune.

Both command-level checks take an optional per-block **memo** (term key →
verdict): a block pass serving many plans hands every plan the same dict,
so each distinct term is decided once per block however many plans (or
disjuncts) contain it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterator, Optional

from ..common import chartypes
from ..common.bloom import BloomFilter
from .language import QueryCommand, Term

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..blockstore.index import BlockSummary


def _fragments(term: Term) -> Iterator[str]:
    """The literal runs every match of *term* must contain."""
    for keyword in term.search.keywords:
        yield from keyword.literals() if keyword.is_wildcard else [keyword.text]


def term_might_match(bloom: BloomFilter, term: Term) -> bool:
    """Could this term match some line of the block?

    A negated term is satisfied by absence and trigrams are case-exact,
    so neither can prune.
    """
    if term.negated or term.search.ignore_case:
        return True
    return all(bloom.might_contain_text(f) for f in _fragments(term))


def _any_disjunct_alive(
    command: QueryCommand,
    alive: Callable[[Term], bool],
    memo: Optional[Dict[str, bool]],
) -> bool:
    """The DNF fold both checks share: some disjunct has every term alive."""

    def check(term: Term) -> bool:
        if term.negated or memo is None:
            return alive(term)
        key = term.search.cache_key
        verdict = memo.get(key)
        if verdict is None:
            verdict = memo[key] = alive(term)
        return verdict

    return any(all(check(term) for term in disjunct) for disjunct in command.disjuncts)


def command_might_match(
    bloom: BloomFilter,
    command: QueryCommand,
    memo: Optional[Dict[str, bool]] = None,
) -> bool:
    """Could any entry of the block satisfy *command*?"""
    return _any_disjunct_alive(
        command, lambda term: term_might_match(bloom, term), memo
    )


def summary_term_might_match(
    summary: "BlockSummary",
    term: Term,
    use_stamps: bool = True,
    use_bloom: bool = True,
) -> bool:
    """Zero-read variant of :func:`term_might_match` over an index entry:
    the same Bloom check plus the block-granular charset-mask check."""
    if term.negated or term.search.ignore_case:
        return True
    bloom = summary.bloom if use_bloom else None
    for fragment in _fragments(term):
        if use_stamps and not chartypes.mask_subsumes(
            summary.type_mask, chartypes.type_mask(fragment)
        ):
            return False
        if bloom is not None and not bloom.might_contain_text(fragment):
            return False
    return True


def summary_might_match(
    summary: "BlockSummary",
    command: QueryCommand,
    use_stamps: bool = True,
    use_bloom: bool = True,
    memo: Optional[Dict[str, bool]] = None,
) -> bool:
    """Could any entry of the summarized block satisfy *command*?

    Sound for the same reason the per-capsule checks are: every check is
    necessary for a match, so a False here proves no line can match.
    """
    return _any_disjunct_alive(
        command,
        lambda term: summary_term_might_match(
            summary, term, use_stamps, use_bloom
        ),
        memo,
    )
