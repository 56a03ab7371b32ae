"""Where a CapsuleBox's bytes go: the metadata share of LGCB v3 boxes.

LGCB v3 stores the group of every line as one group-id column (a u8
cell per line, u16 above 255 groups) and every Capsule record in one
columnar Capsule table (24 bytes per Capsule), both inside the zlib'd
metadata.  This check compresses the 37 specs at 128 KiB blocks and reads
each stored box's layout (``CapsuleBox.layout``):

* every archive decompresses to its input lines, and no box's group-id
  column is more than 2 bytes per line before zlib;
* the geomean over the corpora of stored metadata ÷ box bytes is at most
  :data:`MAX_META_SHARE`, the value measured when v3 was introduced (the
  same specs in LGCB v2 boxes measured 0.111; EXPERIMENTS.md §LGCB v3).

Sizes only, no timings: the result is deterministic.
"""

import pytest

from repro.bench.report import format_table, print_banner
from repro.bench.runner import base_lines, geomean
from repro.blockstore.store import MemoryStore
from repro.capsule.box import CapsuleBox
from repro.core.config import LogGrepConfig
from repro.core.loggrep import LogGrep
from repro.workloads import production_specs, public_specs

BLOCK_BYTES = 128 * 1024
MAX_COLUMN_BYTES_PER_LINE = 2
MAX_META_SHARE = 0.080


@pytest.fixture(scope="module")
def per_corpus():
    """``(name, boxes, lines, column B, table B, metadata B, box B)`` per
    spec."""
    rows = []
    for spec in production_specs() + public_specs():
        lines = spec.generate(base_lines())
        lg = LogGrep(store=MemoryStore(), config=LogGrepConfig(block_bytes=BLOCK_BYTES))
        lg.compress(lines)
        assert lg.decompress_all() == lines, spec.name
        column = table = meta = total = 0
        names = lg.store.names()
        for name in names:
            blob = lg.store.get(name)
            layout = CapsuleBox.layout(blob)
            num_lines = CapsuleBox.deserialize(blob).num_lines
            assert layout.column_bytes <= MAX_COLUMN_BYTES_PER_LINE * num_lines, (
                f"{spec.name} {name}: group-id column of {layout.column_bytes} B "
                f"for {num_lines} lines"
            )
            column += layout.column_bytes
            table += layout.capsule_table_bytes
            meta += layout.meta_bytes
            total += len(blob)
        rows.append((spec.name, len(names), len(lines), column, table, meta, total))
    return rows


def test_metadata_share_of_the_box(per_corpus):
    print_banner(
        f"CapsuleBox bytes by section ({base_lines()} lines per spec, "
        f"{BLOCK_BYTES // 1024} KiB blocks; column and table before zlib)"
    )
    print(
        format_table(
            ["dataset", "boxes", "lines", "column B", "table B", "meta B", "box B",
             "meta/box"],
            [
                [name, b, n, f"{c:,}", f"{t:,}", f"{m:,}", f"{s:,}", f"{m / s:.3f}"]
                for name, b, n, c, t, m, s in per_corpus
            ],
        )
    )
    share = geomean([m / s for *_, m, s in per_corpus])
    print(f"geomean metadata/box: {share:.4f} (bar {MAX_META_SHARE})")
    assert share <= MAX_META_SHARE
