"""LZMA trials gated on zlib's ratio (§5.2 Packer): a size guard.

Wherever the codec rule runs zlib on a buffer of 2 KiB or more (the
2–32 KiB band, and every size on the speed tier), at the fast LZMA presets
it tries LZMA only where zlib shrank the buffer to at most
``LZMA_TRIAL_ZLIB_RATIO`` of its length.  This check compresses the 37
specs at preset 1 at two scales (8 000 lines in 128 KiB blocks, 16 000
lines in 256 KiB blocks), under both codec requests, and for every
Capsule the gate kept from a trial rebuilds the payload the trial would
have stored (``plain()`` → ``_pack_form`` → ``_lzma_compress``):

* the trials counted by ``loggrep_capsule_lzma_trials_total`` as skipped
  match the Capsules the gate sent past a trial;
* no spec would have stored fewer bytes with the trial, i.e. the gate
  costs nothing at these scales.  Wins reach higher zlib ratios as blocks
  grow, so the larger scale is the one that bounds the threshold.

Sizes only, no timings: the result is deterministic.
"""

import zlib

import pytest

from repro.bench.report import format_table, print_banner
from repro.blockstore.store import MemoryStore
from repro.capsule.capsule import (
    LZMA_ONLY_FROM,
    LZMA_TRIAL_ZLIB_RATIO,
    ZLIB_MARGIN,
    _lzma_compress,
    _lzma_trial_skipped,
    _pack_form,
)
from repro.common.chartypes import type_mask_of_buffer
from repro.core.config import LogGrepConfig
from repro.core.loggrep import LogGrep
from repro.obs.metrics import get_registry
from repro.workloads import production_specs, public_specs

PRESET = 1
SCALES = ((8000, 128 * 1024), (16000, 256 * 1024))
OUTCOMES = ("won", "lost", "skipped")


def _trials():
    counter = get_registry().get("loggrep_capsule_lzma_trials_total")
    return {outcome: counter.value(outcome=outcome) for outcome in OUTCOMES}


def _saved_by_trial(capsule, speed_tier: bool):
    """Bytes the LZMA trial would have saved on *capsule*, or None where
    the codec rule tried LZMA (or never would)."""
    plain = capsule.plain()
    _, packed = _pack_form(plain, type_mask_of_buffer(plain))
    size = len(packed)
    if not speed_tier and size >= LZMA_ONLY_FROM:
        return None
    zlib_len = len(zlib.compress(packed, 6))
    if not _lzma_trial_skipped(size, zlib_len, capsule.preset):
        return None
    lzma_len = len(_lzma_compress(packed, capsule.preset))
    margin = ZLIB_MARGIN if speed_tier else 1.0
    tried = lzma_len if lzma_len < margin * zlib_len else zlib_len
    return capsule.compressed_bytes - min(tried, size)


@pytest.fixture(
    scope="module",
    params=[(lines, block, speed) for lines, block in SCALES for speed in (False, True)],
    ids=lambda p: f"{p[0]}x{p[1] // 1024}K-{'speed' if p[2] else 'smallest'}",
)
def per_spec(request):
    """The scale, and ``(name, trial counts by outcome, skipped Capsules,
    bytes a trial would have saved)`` per spec."""
    lines_n, block_bytes, speed_tier = request.param
    config = LogGrepConfig(
        block_bytes=block_bytes, preset=PRESET, codec_speed_tier=speed_tier
    )
    rows = []
    for spec in production_specs() + public_specs():
        lg = LogGrep(store=MemoryStore(), config=config)
        before = _trials()
        lg.compress(spec.generate(lines_n))
        counts = {k: v - before[k] for k, v in _trials().items()}
        skipped = saved = 0
        for name in lg.store.names():
            for capsule in lg.executor.load_box(name).capsules():
                gain = _saved_by_trial(capsule, speed_tier)
                if gain is not None:
                    skipped += 1
                    saved += gain
        rows.append((spec.name, counts, skipped, saved))
    return request.param, rows


def test_gated_trials_would_save_no_bytes(per_spec):
    (lines_n, block_bytes, speed_tier), rows = per_spec
    print_banner(
        f"LZMA trials gated on zlib's ratio ≤ {LZMA_TRIAL_ZLIB_RATIO} "
        f"({lines_n} lines per spec, {block_bytes // 1024} KiB blocks, "
        f"preset {PRESET}, {'speed tier' if speed_tier else 'smallest'})"
    )
    print(
        format_table(
            ["dataset", "tried", "won", "skipped", "saved B"],
            [
                [name, c["won"] + c["lost"], c["won"], c["skipped"], saved]
                for name, c, _, saved in rows
            ],
        )
    )
    total = {k: sum(c[k] for _, c, *_ in rows) for k in OUTCOMES}
    print(
        f"trials ran {total['won'] + total['lost']}, skipped "
        f"{total['skipped']}, won {total['won']}"
    )
    for name, counts, skipped, _ in rows:
        assert counts["skipped"] == skipped, name
    assert total["skipped"] > 0, "the specs must exercise the gate"
    assert {name: saved for name, *_, saved in rows if saved} == {}
