"""Soundness of the prune sidecar's block charset mask.

A block's ``type_mask`` is the union of its template-constant masks and
its vector stamp masks (``GroupBox.stamps``).  Block pruning is sound
only if every token of every line of the block has a mask that union
subsumes, and a sidecar rebuilt from the stored blocks must prune exactly
as the one written at commit time: its summaries, time ranges included,
equal the committed ones.  Both are checked here under the full
configuration, LogGrep-SP and each Fig 9 ablation.
"""

import pytest

from repro import ABLATIONS, LogGrep, LogGrepConfig, ablated, sp_config
from repro.blockstore.index import BlockSummary, load_index
from repro.blockstore.store import MemoryStore
from repro.capsule.box import CapsuleBox
from repro.common.binio import BinaryReader, BinaryWriter
from repro.common.chartypes import mask_subsumes, type_mask
from repro.common.tokenizer import tokenize
from repro.workloads import spec_by_name

BASE = LogGrepConfig(block_bytes=8 * 1024)
CONFIGS = {"full": BASE, "sp": sp_config(BASE)}
CONFIGS.update({name: ablated(name, BASE) for name in ABLATIONS})
SPECS = ("Log A", "Log F", "Log J", "Hdfs", "Healthapp")


@pytest.fixture(scope="module", params=SPECS)
def lines(request):
    return spec_by_name(request.param).generate(600)


@pytest.mark.parametrize("config", CONFIGS.values(), ids=list(CONFIGS))
def test_block_mask_covers_every_token(lines, config):
    lg = LogGrep(store=MemoryStore(), config=config)
    lg.compress(lines)
    index = load_index(lg.store)
    names = lg.store.names()
    assert len(names) > 1 and sorted(index.blocks) == names
    for name in names:
        committed = index.get(name)
        first = committed.first_line_id
        for line in lines[first : first + committed.num_lines]:
            for token in tokenize(line):
                assert mask_subsumes(committed.type_mask, type_mask(token)), (
                    name, token,
                )
        rebuilt = BlockSummary.from_box(CapsuleBox.deserialize(lg.store.get(name)))
        assert as_stored(rebuilt) == committed


def as_stored(summary):
    """*summary* as the sidecar stores it: times in whole milliseconds."""
    writer = BinaryWriter()
    summary.write(writer)
    return BlockSummary.read(BinaryReader(writer.getvalue()))
