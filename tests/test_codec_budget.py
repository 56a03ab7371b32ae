"""Work-count guard for the write path: counts, not timings.

Ingest cost must follow the bytes handled, not the number of Capsules or
values.  Compressing one fixed 128 KiB block may construct an LZMA encoder
(each one allocates and zeroes dictionary-sized match-finder tables) only
for the buffers the codec rule admits to a trial: 2 KiB or more and, at
the default preset, either 32 KiB or more or shrunk by zlib to at most
``LZMA_TRIAL_ZLIB_RATIO`` of their length (``_lzma_trial_skipped``).  It
may classify characters a handful of times per Capsule, not once per
value.
"""

import dataclasses
import lzma
import zlib

from repro.blockstore.block import LogBlock
from repro.capsule import capsule as capsule_module
from repro.capsule.capsule import (
    LZMA_ONLY_FROM,
    ZLIB_ONLY_BELOW,
    _lzma_trial_skipped,
)
from repro.common import chartypes
from repro.core.compressor import compress_block
from repro.core.config import LogGrepConfig
from repro.workloads import spec_by_name

BLOCK_BYTES = 128 * 1024


def _block() -> LogBlock:
    spec = dataclasses.replace(spec_by_name("Log A"), size_factor=1.0, seed=17)
    lines, size = [], 0
    for line in spec.generate(2000):
        size += len(line) + 1
        if size > BLOCK_BYTES:
            break
        lines.append(line)
    assert size > BLOCK_BYTES, "generate enough lines to fill the block"
    return LogBlock(0, 0, lines)


def _counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def test_encoders_and_class_scans_follow_capsules_not_values(monkeypatch):
    block = _block()
    codec_calls, encoders, class_scans = [], [], []
    _counting(monkeypatch, capsule_module, "_choose_codec", codec_calls)
    _counting(monkeypatch, lzma, "LZMACompressor", encoders)
    _counting(monkeypatch, chartypes, "type_mask", class_scans)

    box = compress_block(block, LogGrepConfig(compress_parallelism=1))

    capsules = box.capsule_count()
    assert capsules == len(codec_calls) > 20, "one codec decision per Capsule"
    values = sum(group.num_entries * len(group.vectors) for group in box.groups)
    assert values > 20 * capsules, "the block must make per-value work visible"

    large = sum(1 for buf, *_ in codec_calls if len(buf) >= ZLIB_ONLY_BELOW)
    assert 0 < large < capsules, "the block must have buffers on both sides"
    admitted = sum(
        1
        for buf, preset, *_ in codec_calls
        if len(buf) >= LZMA_ONLY_FROM
        or len(buf) >= ZLIB_ONLY_BELOW
        and not _lzma_trial_skipped(len(buf), len(zlib.compress(buf, 6)), preset)
    )
    assert len(encoders) == admitted < large, "the gate must skip a trial here"

    assert len(class_scans) <= 2 * capsules
