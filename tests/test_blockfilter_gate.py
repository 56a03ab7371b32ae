"""The block filter decides each keyword from its ``Keyword.gate`` mask.

The verdict must equal the per-fragment check it replaced — every
literal run of every keyword subsumed by the summary mask — on literal,
wildcard, ``-i`` and negated terms.
"""

import pytest

from repro import LogGrep, LogGrepConfig
from repro.blockstore.index import BlockSummary
from repro.common.chartypes import ALL_CLASSES, mask_subsumes, type_mask
from repro.query.executor import summary_might_match
from repro.query.language import parse_query
from repro.workloads import spec_by_name
from tests.conftest import make_mixed_lines

COMMANDS = [
    "ERROR",
    "state: SUC#1663",
    "zzqq",
    "Z9",
    "ERR#1623 AND read",
    "ERROR NOT zzqq",
    "NOT ERROR",
    "zzqq OR ERROR",
    "bk.F?.1*",
    "*",
    "?",
    "q*Z",
    "REQ_ST_* AND 2001?",
    "reqId:5E9D*",
    "%%",
    "a b c",
]


def fragment_verdict(summary, command, use_stamps=True):
    """The per-fragment block-filter verdict the gate replaced."""
    if not use_stamps:
        return True

    def alive(term):
        if term.negated or term.search.ignore_case:
            return True
        return all(
            mask_subsumes(summary.type_mask, type_mask(fragment))
            for keyword in term.search.keywords
            for fragment in (
                keyword.literals() if keyword.is_wildcard else [keyword.text]
            )
        )

    return any(all(alive(term) for term in disjunct) for disjunct in command.disjuncts)


def _commands():
    for text in COMMANDS:
        for ignore_case in (False, True):
            yield parse_query(text, ignore_case)


@pytest.mark.parametrize("use_stamps", [True, False])
def test_gate_verdict_equals_fragment_verdict_on_every_mask(use_stamps):
    pruned = 0
    for mask in range(ALL_CLASSES + 1):
        summary = BlockSummary(0, 0, 1, mask)
        for command in _commands():
            verdict = summary_might_match(summary, command, use_stamps)
            assert verdict == fragment_verdict(summary, command, use_stamps), (
                mask, command.raw, command.ignore_case,
            )
            pruned += not verdict
    assert pruned > 0 if use_stamps else pruned == 0


def test_gate_verdict_equals_fragment_verdict_on_real_blocks():
    pruned = checks = 0
    for lines in (
        ["a", "ab", "x", "yz", "q", "no"] * 40,
        make_mixed_lines(2000, seed=95),
        spec_by_name("Log A").generate(2000),
        spec_by_name("Log T").generate(2000),
    ):
        lg = LogGrep(config=LogGrepConfig(block_bytes=16 * 1024))
        lg.compress(lines)
        for name in lg.store.names():
            summary = lg.executor.source.summary(name)
            for command in _commands():
                verdict = summary_might_match(summary, command)
                assert verdict == fragment_verdict(summary, command)
                checks += 1
                pruned += not verdict
    assert checks and pruned
