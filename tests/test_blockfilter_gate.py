"""A keyword's ``Keyword.gate`` mask decides it as its fragments do.

The Match gate rejects a vector for a keyword whose gate mask its stamp
does not subsume.  That verdict must equal the per-fragment check the
gate replaced — every literal run of the keyword subsumed by the mask —
on literal, wildcard and ``-i`` keywords.
"""

import pytest

from repro import LogGrep, LogGrepConfig
from repro.common.chartypes import ALL_CLASSES, mask_subsumes, type_mask
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


def fragment_verdict(mask, keyword):
    """The per-fragment verdict the gate replaced."""
    if keyword.ignore_case:
        return True
    return all(
        mask_subsumes(mask, type_mask(fragment))
        for fragment in (keyword.literals() if keyword.is_wildcard else [keyword.text])
    )


def gate_verdict(mask, keyword):
    return keyword.gate is None or not keyword.gate[0] & ~mask


def _keywords(ignore_case):
    for text in COMMANDS:
        for disjunct in parse_query(text, ignore_case).disjuncts:
            for term in disjunct:
                yield from term.search.keywords


@pytest.mark.parametrize("ignore_case", [False, True])
def test_gate_verdict_equals_fragment_verdict_on_every_mask(ignore_case):
    rejected = 0
    for mask in range(ALL_CLASSES + 1):
        for keyword in _keywords(ignore_case):
            verdict = gate_verdict(mask, keyword)
            assert verdict == fragment_verdict(mask, keyword), (mask, keyword.text)
            rejected += not verdict
    assert rejected == 0 if ignore_case else rejected > 0


def test_gate_verdict_equals_fragment_verdict_on_real_blocks():
    """The masks of real vector stamps, which the Match gate reads."""
    rejected = checks = 0
    for lines in (
        ["a", "ab", "x", "yz", "q", "no"] * 40,
        make_mixed_lines(2000, seed=95),
        spec_by_name("Log A").generate(2000),
        spec_by_name("Log T").generate(2000),
    ):
        lg = LogGrep(config=LogGrepConfig(block_bytes=16 * 1024))
        lg.compress(lines)
        for name in lg.store.names():
            for group in lg.executor.load_box(name).groups:
                for mask, _, _ in group.stamps:
                    for keyword in _keywords(False):
                        verdict = gate_verdict(mask, keyword)
                        assert verdict == fragment_verdict(mask, keyword)
                        checks += 1
                        rejected += not verdict
    assert checks and rejected
