"""Where a CapsuleBox's bytes go: the metadata share of LGCB v4 boxes.

LGCB v4 stores the group of every line as one group-id column (a u8
cell per line, u16 above 255 groups), every Capsule record in one
columnar Capsule table (24 bytes per Capsule) and one directory entry
per vector record (its length, kind and Capsules, and a real vector's
constant stamp), all inside the zlib'd metadata.  This check compresses
the 37 specs at 128 KiB blocks and reads each stored box's layout
(``CapsuleBox.layout``):

* every archive decompresses to its input lines, and no box's group-id
  column is more than 2 bytes per line before zlib;
* the geomean over the corpora of stored metadata ÷ box bytes is at most
  :data:`MAX_META_SHARE`, the value measured when v3 was introduced (the
  same specs in LGCB v2 boxes measured 0.111; EXPERIMENTS.md §LGCB v3);
  the directory bytes and the in-process open cost per box (minimum of
  :data:`OPEN_ROUNDS` rounds) are printed, not asserted.

The same boxes check the two-phase open (``CapsuleBox.open`` reads the
directory, not the records, and builds each vector record on first
use): a box whose vectors are built in a shuffled order serializes to
the stored bytes, and every stamp the open takes from the directory
equals ``vector_stamp`` of the vector built from it.

The prune-index sidecar (``.index.lgix``) is one more case: for every
spec its bytes stay at most :data:`MAX_SIDECAR_SHARE` of the block bytes
(LGIX v4 keeps per block only its line ids and a time range).  A sidecar rebuilt from the stored blocks, at 128 KiB and at
512 KiB blocks, is byte-identical to the one the commit wrote: the
rebuild reads each block's time range off its clock vector, and its
seconds per block are printed.

Sizes only, no timing is asserted: the asserted results are
deterministic.
"""

import random
import time

import pytest

from repro.bench.report import format_table, print_banner
from repro.bench.runner import base_lines, geomean
from repro.blockstore.index import INDEX_AUX_NAME, ArchiveIndex, load_index
from repro.blockstore.store import MemoryStore
from repro.capsule.box import CapsuleBox, vector_stamp
from repro.core.config import LogGrepConfig
from repro.core.loggrep import LogGrep
from repro.workloads import production_specs, public_specs

BLOCK_BYTES = 128 * 1024
MAX_COLUMN_BYTES_PER_LINE = 2
MAX_META_SHARE = 0.080
MAX_SIDECAR_SHARE = 0.010
OPEN_ROUNDS = 40


@pytest.fixture(scope="module")
def archives():
    """``(name, lines, stored box blobs, sidecar blob)`` per spec."""
    out = []
    for spec in production_specs() + public_specs():
        lines = spec.generate(base_lines())
        lg = LogGrep(store=MemoryStore(), config=LogGrepConfig(block_bytes=BLOCK_BYTES))
        lg.compress(lines)
        assert lg.decompress_all() == lines, spec.name
        out.append(
            (
                spec.name,
                lines,
                [lg.store.get(name) for name in lg.store.names()],
                lg.store.get_aux(INDEX_AUX_NAME),
            )
        )
    return out


@pytest.fixture(scope="module")
def per_corpus(archives):
    """``(name, boxes, lines, column B, table B, directory B, open µs per
    box, metadata B, box B)`` per spec."""
    rows = []
    for spec_name, lines, blobs, _ in archives:
        column = table = directory = meta = total = 0
        for blob in blobs:
            layout = CapsuleBox.layout(blob)
            num_lines = CapsuleBox.deserialize(blob).num_lines
            assert layout.column_bytes <= MAX_COLUMN_BYTES_PER_LINE * num_lines, (
                f"{spec_name}: group-id column of {layout.column_bytes} B "
                f"for {num_lines} lines"
            )
            column += layout.column_bytes
            table += layout.capsule_table_bytes
            directory += layout.directory_bytes
            meta += layout.meta_bytes
            total += len(blob)
        rows.append((
            spec_name, len(blobs), len(lines), column, table, directory,
            _open_seconds(blobs) / len(blobs) * 1e6, meta, total,
        ))
    return rows


def _open_seconds(blobs):
    """Seconds to open every box of *blobs*, the least of
    :data:`OPEN_ROUNDS` rounds."""
    best = float("inf")
    for _ in range(OPEN_ROUNDS):
        start = time.perf_counter()
        for blob in blobs:
            CapsuleBox.deserialize(blob)
        best = min(best, time.perf_counter() - start)
    return best


def test_metadata_share_of_the_box(per_corpus):
    print_banner(
        f"CapsuleBox bytes by section ({base_lines()} lines per spec, "
        f"{BLOCK_BYTES // 1024} KiB blocks; column, table and directory "
        "before zlib; open µs per box, least of "
        f"{OPEN_ROUNDS} rounds)"
    )
    print(
        format_table(
            ["dataset", "boxes", "lines", "column B", "table B", "dir B",
             "open µs", "meta B", "box B", "meta/box"],
            [
                [name, b, n, f"{c:,}", f"{t:,}", f"{d:,}", f"{o:.1f}", f"{m:,}",
                 f"{s:,}", f"{m / s:.3f}"]
                for name, b, n, c, t, d, o, m, s in per_corpus
            ],
        )
    )
    boxes = sum(row[1] for row in per_corpus)
    opened = sum(row[1] * row[6] for row in per_corpus) / boxes
    print(f"open: {opened:.1f} µs per box over {boxes} boxes")
    share = geomean([m / s for *_, m, s in per_corpus])
    print(f"geomean metadata/box: {share:.4f} (bar {MAX_META_SHARE})")
    assert share <= MAX_META_SHARE


def test_sidecar_share_of_the_blocks(archives):
    rows = [
        (name, len(sidecar), sum(map(len, blobs)))
        for name, _, blobs, sidecar in archives
    ]
    print_banner(
        f"Prune-index sidecar bytes ({base_lines()} lines per spec, "
        f"{BLOCK_BYTES // 1024} KiB blocks)"
    )
    print(
        format_table(
            ["dataset", "sidecar B", "block B", "sidecar/blocks"],
            [[name, f"{i:,}", f"{b:,}", f"{i / b:.2%}"] for name, i, b in rows],
        )
    )
    total = sum(i for _, i, _ in rows)
    print(f"total sidecar bytes: {total:,} (bar {MAX_SIDECAR_SHARE:.1%} per spec)")
    over = [(name, i / b) for name, i, b in rows if i / b > MAX_SIDECAR_SHARE]
    assert not over


def test_vectors_built_in_any_order_reserialize_byte_for_byte(archives):
    rng = random.Random(47)
    for spec_name, _, blobs, _ in archives:
        for blob in blobs:
            box = CapsuleBox.deserialize(blob)
            order = [
                (g, v) for g, group in enumerate(box.groups)
                for v in range(len(group.vectors))
            ]
            rng.shuffle(order)
            for g, v in order:
                box.groups[g].vectors[v]
            assert box.serialize() == blob, spec_name


def test_directory_stamps_are_the_built_vectors_stamps(archives):
    for spec_name, _, blobs, _ in archives:
        for blob in blobs:
            box = CapsuleBox.deserialize(blob)
            for group in box.groups:
                stamps = list(group.stamps)
                assert stamps == [vector_stamp(v) for v in group.vectors], spec_name


@pytest.mark.parametrize("block_bytes", [BLOCK_BYTES, 4 * BLOCK_BYTES])
def test_a_rebuilt_sidecar_is_the_committed_one(block_bytes):
    rows = []
    for spec in production_specs() + public_specs():
        lg = LogGrep(store=MemoryStore(), config=LogGrepConfig(block_bytes=block_bytes))
        lg.compress(spec.generate(base_lines()))
        start = time.perf_counter()
        rebuilt = ArchiveIndex.build(lg.store).serialize()
        seconds = time.perf_counter() - start
        assert rebuilt == lg.store.get_aux(INDEX_AUX_NAME), spec.name
        summaries = load_index(lg.store).blocks.values()
        ranged = sum(summary.min_ts is not None for summary in summaries)
        rows.append((spec.name, len(summaries), ranged, seconds))
    print_banner(
        f"Sidecar rebuilt from the blocks ({base_lines()} lines per spec, "
        f"{block_bytes // 1024} KiB blocks): byte-identical to the committed one"
    )
    print(
        format_table(
            ["dataset", "blocks", "time-ranged", "rebuild ms/block"],
            [[name, b, r, f"{s / b * 1e3:.2f}"] for name, b, r, s in rows],
        )
    )
    blocks = sum(b for _, b, _, _ in rows)
    print(f"rebuild: {sum(s for *_, s in rows) / blocks * 1e3:.2f} ms per block")
    assert sum(r for _, _, r, _ in rows) > 0
