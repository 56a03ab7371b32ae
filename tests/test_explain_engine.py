"""EXPLAIN is the engine's own Match, dry-run.

Every vector EXPLAIN marks filtered is one a COUNT of the same search
string reads no Capsule of, under the full config and under ``w/o
stamp``; multi-keyword lines carry the engine's keyword-position modes.
"""

import re

import pytest

from repro import LogGrep, LogGrepConfig
from repro.blockstore.block import parse_block_name
from repro.core.config import ablated
from repro.query.engine import BlockEngine
from repro.query.plan import build_plan
from repro.workloads import spec_by_name
from tests.conftest import make_mixed_lines

SMALL = 32 * 1024

#: corpus → (lines, [(command, ignore_case)]): single keyword,
#: multi-keyword, AND, NOT, wildcard and -i queries.
CORPORA = {
    "mixed": (
        lambda: make_mixed_lines(2000, seed=95),
        [
            ("ERROR", False),
            ("state: SUC#1663", False),
            ("ERR#1623 AND read", False),
            ("state: NOT ERR#16", False),
            ("bk.F?.1*", False),
            ("error", True),
        ],
    ),
    "Log A": (
        lambda: spec_by_name("Log A").generate(3000),
        [
            ("REQ_ST_ABORT", False),
            ("request state:REQ_ST_CLOSED code:20012", False),
            ("ERROR AND 20012 NOT accept", False),
            ("reqId:5E9D*", False),
            ("req_st_open", True),
        ],
    ),
    "Log T": (
        lambda: spec_by_name("Log T").generate(3000),
        [
            ("39244", False),
            ("io trace vol:39244", False),
            ("ERROR AND 39244", False),
            ("vol:3924?", False),
            ("dirty:1*mb", True),
        ],
    ),
}

_LINE = re.compile(r"  g(\d+)/v(\d+) \[(\w+)\] '(.*)' \((\w+)\): ([\w-]+)")



def _mode(j: int, k: int) -> str:
    """The engine's mode of keyword *j* of *k*."""
    if k == 1:
        return "substring"
    return "suffix" if j == 0 else "prefix" if j == k - 1 else "exact"


def explained(text: str):
    """(block id, group, var, keyword, mode, decision) of every vector
    line of an EXPLAIN rendering."""
    out = []
    block = None
    for line in text.splitlines():
        if line.startswith("block "):
            block = parse_block_name(line.split()[1].rstrip(":"))[0]
            continue
        match = _LINE.match(line)
        if match:
            g, v, _, keyword, mode, decision = match.groups()
            out.append((block, int(g), int(v), keyword, mode, decision))
    return out


@pytest.fixture(scope="module", params=sorted(CORPORA))
def corpus(request):
    make, queries = CORPORA[request.param]
    return make(), queries


@pytest.mark.parametrize("config_name", ["full", "w/o stamp"])
def test_filtered_vectors_are_never_read(corpus, config_name, monkeypatch):
    lines, queries = corpus
    config = (
        LogGrepConfig(block_bytes=SMALL)
        if config_name == "full"
        else ablated("w/o stamp", LogGrepConfig(block_bytes=SMALL))
    )
    lg = LogGrep(config=config)
    lg.compress(lines)

    # (block id, group, var, keyword, mode) -> whether a COUNT read a
    # Capsule of that vector for that keyword.
    reads = {}
    search_var = BlockEngine._search_var

    def spy(self, group_idx, var_idx, keyword, mode, candidates):
        self._reads.clear()
        rows = search_var(self, group_idx, var_idx, keyword, mode, candidates)
        key = (self.box.block_id, group_idx, var_idx, keyword.text, mode.value)
        reads[key] = reads.get(key, False) or bool(self._reads)
        return rows

    filtered_total = 0
    for command, ignore_case in queries:
        plans = explained(lg.explain(command, ignore_case=ignore_case))
        assert plans, command
        searches = build_plan(command, ignore_case=ignore_case).search_strings()
        # Multi-keyword lines show the engine's suffix/exact/prefix modes.
        modes = {
            keyword.text: _mode(j, len(search.keywords))
            for search in searches
            for j, keyword in enumerate(search.keywords)
        }
        for _, _, _, keyword, mode, _ in plans:
            assert mode == modes[keyword], (command, keyword)
        with monkeypatch.context() as patch:
            patch.setattr(BlockEngine, "_search_var", spy)
            reads.clear()
            for search in searches:
                lg.clear_query_cache()
                lg.unpin_blocks()
                lg.count(search.text, ignore_case=ignore_case)
        for block, g, v, keyword, mode, decision in plans:
            if decision == "filtered":
                filtered_total += 1
                assert not reads.get((block, g, v, keyword, mode)), (
                    command, block, g, v, keyword,
                )
    # Under ``w/o stamp`` only the Locator filters, which some corpora's
    # queries never leave to it.
    assert filtered_total > 0 or config_name == "w/o stamp"


def test_multi_keyword_is_a_prefix_on_the_vector_after_the_constant():
    lg = LogGrep(config=LogGrepConfig(block_bytes=SMALL))
    lg.compress(make_mixed_lines(2000, seed=95))
    plans = explained(lg.explain("state: SUC#1663"))
    after = [p for p in plans if p[3] == "SUC#1663"]
    assert after
    assert all(p[4] == "prefix" for p in after)
    # One vector per block: the one after the ``state:`` constant.
    assert len(after) == len({p[0] for p in after})
