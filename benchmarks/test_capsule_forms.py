"""Digit and hex columns stored two characters per byte (§5.2 Packer).

A Capsule whose plain buffer is all digits (with the NUL pad) or all hex
of one case is packed two characters per byte before the codec rule runs
(the ``FORM_*`` forms of ``capsule/capsule.py``).  This check compresses
the 37 specs at 128 KiB blocks and compares, Capsule by Capsule, the
stored payload with what the codec rule makes of the same Capsule's
``plain()`` — the one-character-per-byte form, computed from the same
archive, so no switch is needed:

* every archive decompresses to its input lines, and every Capsule
  re-packs from ``plain()`` to exactly its stored form, codec and
  payload;
* every Capsule's stored stamp is the one its decoded values give: the
  type mask over them and the longest in characters (the packer reads
  both off its UTF-8 buffer);
* the geomean over the corpora of ASCII ÷ stored payload bytes is at
  least :data:`MIN_GEOMEAN`.

Sizes only, no timings: the result is deterministic.
"""

import pytest

from repro.bench.report import format_table, print_banner
from repro.bench.runner import base_lines, geomean
from repro.blockstore.store import MemoryStore
from repro.capsule.assembler import NominalEncodedVector
from repro.capsule.capsule import (
    FORM_ASCII,
    LAYOUT_REGION,
    CodecRequest,
    _choose_codec,
    _encode,
)
from repro.capsule.stamp import CapsuleStamp
from repro.common import chartypes
from repro.core.config import LogGrepConfig
from repro.core.loggrep import LogGrep
from repro.workloads import production_specs, public_specs

BLOCK_BYTES = 128 * 1024
MIN_GEOMEAN = 1.08


def _decoded_values(box):
    """``(capsule, its decoded values)`` for every Capsule of *box*."""
    shapes = {
        id(vector.dict_capsule): [(dp.count, dp.width) for dp in vector.dict_patterns]
        for group in box.groups
        for vector in group.vectors
        if isinstance(vector, NominalEncodedVector)
    }
    for capsule in box.capsules():
        if capsule.layout == LAYOUT_REGION:
            cells = capsule.region_cells(shapes[id(capsule)])
        else:
            cells = capsule.cells()
        yield capsule, [cell.rstrip(b"\x00").decode() for cell in cells]


@pytest.fixture(scope="module")
def per_corpus():
    """``(name, capsules, packed, ascii payload, stored payload)`` per spec."""
    rows = []
    for spec in production_specs() + public_specs():
        lines = spec.generate(base_lines())
        lg = LogGrep(store=MemoryStore(), config=LogGrepConfig(block_bytes=BLOCK_BYTES))
        lg.compress(lines)
        assert lg.decompress_all() == lines, spec.name
        capsules = packed = ascii_bytes = stored_bytes = 0
        for name in lg.store.names():
            for capsule, values in _decoded_values(lg.executor.load_box(name)):
                assert capsule.stamp == CapsuleStamp(
                    chartypes.type_mask("".join(values)),
                    max(map(len, values), default=0),
                ), f"{spec.name} {name}: stamp is not its values' stamp"
                plain = capsule.plain()
                assert _encode(plain, capsule.preset, CodecRequest.SMALLEST) == (
                    capsule.codec, capsule.form, capsule.payload,
                ), f"{spec.name} {name}: plain() does not re-pack to its payload"
                capsules += 1
                packed += capsule.form != FORM_ASCII
                ascii_bytes += len(_choose_codec(plain, capsule.preset)[1])
                stored_bytes += capsule.compressed_bytes
        rows.append((spec.name, capsules, packed, ascii_bytes, stored_bytes))
    return rows


def test_packed_forms_shrink_the_payload(per_corpus):
    print_banner(
        f"Capsule payload bytes, one character per byte vs stored "
        f"({base_lines()} lines per spec, {BLOCK_BYTES // 1024} KiB blocks)"
    )
    print(
        format_table(
            ["dataset", "capsules", "packed", "ascii B", "stored B", "ascii/stored"],
            [
                [name, n, p, f"{a:,}", f"{s:,}", f"{a / s:.3f}"]
                for name, n, p, a, s in per_corpus
            ],
        )
    )
    gain = geomean([a / s for *_, a, s in per_corpus])
    grew = [name for name, *_, a, s in per_corpus if s > a]
    print(f"geomean ascii/stored: {gain:.3f}; stored payload grew on: {grew or 'none'}")
    assert gain >= MIN_GEOMEAN
