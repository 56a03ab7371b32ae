"""Failure injection: corrupted archives must fail loudly, never return
wrong data or leak non-library exceptions where corruption is detectable
at the format layer; a lifecycle rewrite that crashes part way leaves an
archive that reads exactly as before or after it."""

import random
import zlib

import pytest

from repro import LogGrep, LogGrepConfig
from repro.baselines.evalutil import grep_lines
from repro.blockstore.index import live_names, load_index
from repro.blockstore.store import MemoryStore
from repro.capsule.box import CapsuleBox
from repro.common.errors import ReproError
from repro.core.lifecycle import LifecycleManager, Tier
from repro.core.streaming import StreamingCompressor
from tests.conftest import make_mixed_lines


@pytest.fixture(scope="module")
def archive_bytes():
    lg = LogGrep(config=LogGrepConfig())
    lg.compress(make_mixed_lines(400, seed=17))
    name = lg.store.names()[0]
    return lg.store.get(name)


ACCEPTABLE = (ReproError, zlib.error, EOFError, OverflowError, MemoryError)


class TestCorruption:
    def test_truncations_detected(self, archive_bytes):
        for fraction in (0.01, 0.3, 0.7, 0.95):
            data = archive_bytes[: int(len(archive_bytes) * fraction)]
            with pytest.raises(ACCEPTABLE):
                box = CapsuleBox.deserialize(data)
                # Payloads are lazy: force them.
                for group in box.groups:
                    for vector in group.vectors:
                        from repro.capsule.box import _capsules_of

                        for capsule in _capsules_of(vector):
                            capsule.plain()

    def test_header_flips_detected(self, archive_bytes):
        for pos in range(0, 13):
            data = bytearray(archive_bytes)
            data[pos] ^= 0xFF
            with pytest.raises(ACCEPTABLE):
                CapsuleBox.deserialize(bytes(data))

    def test_random_metadata_flips_never_crash_weirdly(self, archive_bytes):
        """Flipping metadata bytes must either still round-trip (the flip
        hit slack space) or raise a recognizable error — never e.g.
        TypeError from deep inside the decoder."""
        rng = random.Random(99)
        weird = []
        for _ in range(60):
            data = bytearray(archive_bytes)
            pos = rng.randrange(13, min(len(data), 4000))
            data[pos] ^= 1 << rng.randrange(8)
            try:
                box = CapsuleBox.deserialize(bytes(data))
                from repro.core.reconstructor import BlockReconstructor

                BlockReconstructor(box).all_lines()
            except ACCEPTABLE:
                pass
            except (UnicodeDecodeError, IndexError, ValueError, KeyError):
                # Corruption inside decompressed content: detected at the
                # decoding layer; acceptable failure modes.
                pass
            except Exception as exc:  # pragma: no cover - the assertion
                weird.append((pos, type(exc).__name__))
        assert not weird, weird

    def test_empty_input(self):
        with pytest.raises(ACCEPTABLE):
            CapsuleBox.deserialize(b"")

    def test_wrong_magic(self):
        with pytest.raises(ReproError):
            CapsuleBox.deserialize(b"ZZZZ" + b"\x00" * 64)


class TestVerify:
    def test_healthy_archive_verifies(self, archive_bytes):
        box = CapsuleBox.deserialize(archive_bytes)
        assert box.verify() == []

    def test_payload_flip_caught(self, archive_bytes):
        # Flip one byte deep in the payload area (past header + metadata).
        data = bytearray(archive_bytes)
        data[-10] ^= 0xFF
        box = CapsuleBox.deserialize(bytes(data))
        assert box.verify()  # at least one problem reported

    def test_in_memory_box_verifies(self):
        from repro.blockstore.block import LogBlock
        from repro.core.compressor import compress_block
        from repro.core.config import LogGrepConfig

        box = compress_block(LogBlock(0, 0, make_mixed_lines(120)), LogGrepConfig())
        assert box.verify() == []

    def test_cli_verify(self, tmp_path, capsys):
        from repro import LogGrep, LogGrepConfig
        from repro.blockstore.store import ArchiveStore
        from repro.cli import main

        store = ArchiveStore(str(tmp_path / "arch"))
        lg = LogGrep(store=store, config=LogGrepConfig(block_bytes=8 * 1024))
        lg.compress(make_mixed_lines(300))
        assert main(["verify", "-a", str(tmp_path / "arch")]) == 0
        out = capsys.readouterr().out
        assert "healthy" in out

        # Corrupt one block: verify must fail with exit code 1.
        name = store.names()[0]
        blob = bytearray(store.get(name))
        blob[-5] ^= 0x55
        store.put(name, bytes(blob))
        assert main(["verify", "-a", str(tmp_path / "arch")]) == 1


# ----------------------------------------------------------------------
# a lifecycle rewrite that crashes part way
# ----------------------------------------------------------------------
class Crash(Exception):
    """The injected failure."""


class CrashingStore(MemoryStore):
    """A MemoryStore whose ``fail_at``-th write (``put``, ``put_aux`` or
    ``delete``, counted from 1) raises :class:`Crash` instead of
    happening."""

    def __init__(self, blobs, aux):
        super().__init__()
        self._blobs = dict(blobs)
        self._aux = dict(aux)
        self.writes = 0
        self.fail_at = None

    def _write(self):
        self.writes += 1
        if self.writes == self.fail_at:
            raise Crash(f"write {self.writes}")

    def put(self, name, data):
        self._write()
        super().put(name, data)

    def put_aux(self, name, data):
        self._write()
        super().put_aux(name, data)

    def delete(self, name):
        self._write()
        super().delete(name)


CRASH_QUERIES = ["ERROR", "state: ERR", "read NOT bk.0F"]


@pytest.fixture(scope="module", params=["saved", "unsaved"])
def crash_archive(request):
    """``(lines, config, store)``: an archive whose sidecar lists every
    block (``saved``), or a stream's whose later commits it does not
    list yet (``unsaved``: the stream died before its drain saved it)."""
    lines = make_mixed_lines(300, seed=31)
    config = LogGrepConfig(block_bytes=1024)
    if request.param == "saved":
        lg = LogGrep(config=config)
        lg.compress(lines)
        assert len(lg.store.names()) > 4
        return lines, config, lg.store
    stream = StreamingCompressor(config=config, pipeline_depth=1)
    stream.extend(lines[:100])
    stream.flush()
    stream.extend(lines[100:])
    sealed = len(lines) - len(stream.tail_snapshot().lines)
    store = MemoryStore()
    store._blobs = dict(stream.store._blobs)
    store._aux = dict(stream.store._aux)
    stream.close()
    unsaved = set(store.names()) - set(load_index(store).blocks)
    assert len(unsaved) > 4
    return lines[:sealed], config, store


class TestDemoteCrash:
    """Every crash point of a demote leaves an archive that reads as
    before the rewrite or after it — for a fresh handle, a handle held
    across the crash and a stream's reader — and the next demote
    completes and removes what the crash left behind."""

    @pytest.mark.parametrize("tier", [Tier.WARM, Tier.COLD], ids=["warm", "cold"])
    def test_every_crash_point_reads_exactly(self, crash_archive, tier):
        lines, config, template = crash_archive
        clean = CrashingStore(template._blobs, template._aux)
        LifecycleManager(clean, config).demote(tier)
        assert clean.writes > len(template.names())
        for k in range(1, clean.writes + 1):
            store = CrashingStore(template._blobs, template._aux)
            held = LogGrep(store=store, config=config)
            stream = StreamingCompressor(store=store, config=config)
            readers = [held, stream.open_reader(tail=True)]
            self._check(readers, lines)
            store.fail_at = store.writes + k
            with pytest.raises(Crash):
                LifecycleManager(store, config).demote(tier)
            readers.append(LogGrep(store=store, config=config))
            self._check(readers, lines, k)
            store.fail_at = None
            LifecycleManager(store, config).demote(tier)
            readers.append(LogGrep(store=store, config=config))
            self._check(readers, lines, k)
            assert live_names(store.names(), load_index(store)) == store.names()
            stream.close()

    @pytest.mark.parametrize("tier", [Tier.WARM, Tier.COLD], ids=["warm", "cold"])
    def test_crash_under_a_running_stream(self, tier):
        """The demote rewrites blocks the running stream committed but
        has not saved the sidecar for; after each crash point the
        stream's reader, a fresh handle and, once the stream has appended
        the rest and closed, the whole archive read exactly."""
        lines = make_mixed_lines(300, seed=32)
        config = LogGrepConfig(block_bytes=1024)
        for k in range(1, 100):
            store = CrashingStore({}, {})
            stream = StreamingCompressor(store=store, config=config, pipeline_depth=1)
            stream.extend(lines[:100])
            stream.flush()
            stream.extend(lines[100:200])
            assert set(store.names()) - set(load_index(store).blocks)
            sealed = 200 - len(stream.tail_snapshot().lines)
            store.fail_at = store.writes + k
            try:
                LifecycleManager(store, config).demote(tier)
                crashed = False
            except Crash:
                crashed = True
            store.fail_at = None
            self._check([stream.open_reader(tail=True)], lines[:200], k)
            self._check([LogGrep(store=store, config=config)], lines[:sealed], k)
            stream.extend(lines[200:])
            stream.close()
            LifecycleManager(store, config).demote(tier)
            self._check([LogGrep(store=store, config=config)], lines, k)
            assert live_names(store.names(), load_index(store)) == store.names()
            if not crashed:
                break
        assert not crashed and k > 2

    @staticmethod
    def _check(readers, lines, k=None):
        for query in CRASH_QUERIES:
            want = grep_lines(query, lines)
            for reader in readers:
                assert reader.grep(query).lines == want, (k, query)
                assert reader.count(query) == len(want), (k, query)
        for reader in readers:
            assert reader.total_lines() == len(lines), k
