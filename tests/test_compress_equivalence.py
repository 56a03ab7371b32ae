"""Property test: one input stream, every compression schedule, one archive.

The compression scheduler's determinism contract (the compress-side
mirror of tests/test_plan_equivalence.py): for the same input and config,
batch compression with any ``compress_parallelism`` and the streaming
pipeline must produce **byte-identical** archives — the warm-start
template cache evolves in block submission order regardless of worker
count, and the encode stage is a pure function of the parse result.
"""

import pytest

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is in the dev env
    pytest.skip("hypothesis not installed", allow_module_level=True)

from dataclasses import replace

from repro import LogGrep, LogGrepConfig, StreamingCompressor
from repro.blockstore.store import MemoryStore
from tests.conftest import make_mixed_lines

BASE_CONFIG = LogGrepConfig(
    block_bytes=2 * 1024, compress_parallelism=1, compress_executor="thread"
)


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
    parallelism=st.sampled_from([2, 4]),
)
def test_parallel_and_streaming_archives_identical(seed, n, parallelism):
    lines = make_mixed_lines(n, seed=seed)
    config = BASE_CONFIG

    serial = compress_batch(lines, config)
    reference = archive_bytes(serial.store)
    assert serial.decompress_all() == lines  # the archive is also correct

    parallel = compress_batch(
        lines, replace(config, compress_parallelism=parallelism)
    )
    assert archive_bytes(parallel.store) == reference

    streamed = MemoryStore()
    with StreamingCompressor(store=streamed, config=config) as stream:
        stream.extend(lines)
    assert archive_bytes(streamed) == reference


def test_process_executor_archive_identical():
    """The process pool is byte-identical too (GIL-free encode path)."""
    lines = make_mixed_lines(250, seed=77)
    serial = compress_batch(lines, BASE_CONFIG)
    process = compress_batch(
        lines,
        replace(BASE_CONFIG, compress_parallelism=2, compress_executor="process"),
    )
    assert archive_bytes(process.store) == archive_bytes(serial.store)


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
