"""Property test: one input stream, batch or streamed, one archive.

The compression scheduler's determinism contract (the compress-side
mirror of tests/test_plan_equivalence.py): for the same input and config,
batch compression and the streaming pipeline must produce
**byte-identical** archives — the warm-start template cache evolves in
block order either way, and the encode stage is a pure function of the
parse result.
"""

import pytest

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is in the dev env
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro import LogGrep, LogGrepConfig, StreamingCompressor
from repro.blockstore.store import MemoryStore
from tests.conftest import make_mixed_lines

BASE_CONFIG = LogGrepConfig(block_bytes=2 * 1024)


def archive_bytes(store):
    return {name: store.get(name) for name in store.names()}


def compress_batch(lines, config):
    lg = LogGrep(store=MemoryStore(), config=config)
    lg.compress(lines)
    return lg


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=40, max_value=250),
)
def test_streaming_archives_identical(seed, n):
    lines = make_mixed_lines(n, seed=seed)
    serial = compress_batch(lines, BASE_CONFIG)
    reference = archive_bytes(serial.store)
    assert serial.decompress_all() == lines  # the archive is also correct

    # The stream seals each block on the appending thread and writes the
    # batch bytes.
    streamed = MemoryStore()
    with StreamingCompressor(store=streamed, config=BASE_CONFIG) as stream:
        stream.extend(lines)
    assert archive_bytes(streamed) == reference


def test_multiple_compress_calls_keep_equivalence():
    """Incremental batch ingest (several compress() calls) matches one-shot:

    the warm-start cache lives on the LogGrep instance, so block N's
    parse sees the same template history whether the stream arrived in
    one call or many."""
    lines = make_mixed_lines(200, seed=5)
    one_shot = compress_batch(lines, BASE_CONFIG)

    incremental = LogGrep(store=MemoryStore(), config=BASE_CONFIG)
    incremental.compress(lines[:90])
    incremental.compress(lines[90:])
    # Splitting the stream mid-block seals a partial block, so compare
    # semantics (round trip), not bytes, for the incremental case.
    assert incremental.decompress_all() == lines
    assert one_shot.decompress_all() == lines
