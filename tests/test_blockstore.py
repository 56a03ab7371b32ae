"""Tests for log-block splitting and the archive stores."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.blockstore import (
    ArchiveStore,
    LogBlock,
    MemoryStore,
    block_from_text,
    split_lines,
)
from repro.common.errors import BlockMissingError
from repro.core.config import LogGrepConfig
from repro.core.loggrep import LogGrep


class TestSplitLines:
    def test_single_block(self):
        blocks = list(split_lines(["a", "b"], max_bytes=1000))
        assert len(blocks) == 1
        assert blocks[0].lines == ["a", "b"]
        assert blocks[0].first_line_id == 0

    def test_budgeted_split(self):
        lines = ["x" * 10] * 10  # 11 bytes each with newline
        blocks = list(split_lines(lines, max_bytes=34))
        assert all(block.raw_bytes <= 34 for block in blocks)
        assert sum(block.num_lines for block in blocks) == 10

    def test_block_ids_and_line_ids_contiguous(self):
        lines = [f"line-{i}" for i in range(20)]
        blocks = list(split_lines(lines, max_bytes=30))
        assert [b.block_id for b in blocks] == list(range(len(blocks)))
        expected_first = 0
        for block in blocks:
            assert block.first_line_id == expected_first
            expected_first += block.num_lines

    def test_oversized_line_gets_own_block(self):
        blocks = list(split_lines(["short", "x" * 100, "short"], max_bytes=20))
        assert any(block.lines == ["x" * 100] for block in blocks)

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            list(split_lines(["a"], max_bytes=0))

    @given(st.lists(st.text(alphabet="ab", max_size=10), max_size=50))
    def test_no_line_lost_or_reordered(self, lines):
        blocks = list(split_lines(lines, max_bytes=16))
        rejoined = [line for block in blocks for line in block.lines]
        assert rejoined == lines


class TestLogBlock:
    def test_text_roundtrip(self):
        block = LogBlock(0, 0, ["a", "b"])
        assert block.text() == "a\nb\n"
        assert block_from_text(block.text()).lines == ["a", "b"]

    def test_empty(self):
        assert LogBlock(0, 0, []).text() == ""
        assert block_from_text("").lines == []

    def test_raw_bytes(self):
        assert LogBlock(0, 0, ["ab", "c"]).raw_bytes == 5


@pytest.mark.parametrize("store_factory", [MemoryStore, None])
class TestStores:
    def _make(self, store_factory, tmp_path):
        if store_factory is None:
            return ArchiveStore(str(tmp_path / "arch"))
        return store_factory()

    def test_put_get(self, store_factory, tmp_path):
        store = self._make(store_factory, tmp_path)
        store.put("a.bin", b"hello")
        assert store.get("a.bin") == b"hello"
        assert store.exists("a.bin")
        assert not store.exists("b.bin")

    def test_names_sorted(self, store_factory, tmp_path):
        store = self._make(store_factory, tmp_path)
        store.put("b", b"2")
        store.put("a", b"1")
        assert store.names() == ["a", "b"]

    def test_total_bytes(self, store_factory, tmp_path):
        store = self._make(store_factory, tmp_path)
        store.put("a", b"12345")
        store.put("b", b"123")
        assert store.total_bytes() == 8

    def test_overwrite(self, store_factory, tmp_path):
        store = self._make(store_factory, tmp_path)
        store.put("a", b"old")
        store.put("a", b"new!")
        assert store.get("a") == b"new!"

    def test_delete(self, store_factory, tmp_path):
        store = self._make(store_factory, tmp_path)
        store.put("a", b"1")
        store.delete("a")
        assert not store.exists("a")

    @pytest.mark.parametrize(
        "read",
        [
            lambda store: store.get("a"),
            lambda store: store.get_range("a", 0, 1),
            lambda store: store.size("a"),
        ],
        ids=["get", "get_range", "size"],
    )
    def test_vanished_block_is_a_typed_error(self, store_factory, tmp_path, read):
        store = self._make(store_factory, tmp_path)
        store.put("a", b"1")
        store.delete("a")
        with pytest.raises(BlockMissingError) as info:
            read(store)
        assert info.value.name == "a" and "'a'" in str(info.value)

    def test_block_deleted_under_a_reader(self, store_factory, tmp_path, monkeypatch):
        # The reader lists the blocks, then a rewrite deletes one of them
        # before the reader opens it.
        store = self._make(store_factory, tmp_path)
        config = LogGrepConfig(block_bytes=4096)
        LogGrep(store=store, config=config).compress(
            [f"ERROR disk {i} failed" for i in range(400)]
        )
        listing = store.names()
        victim = listing[1]
        store.delete(victim)
        monkeypatch.setattr(store, "names", lambda: list(listing))
        with pytest.raises(BlockMissingError, match=victim):
            LogGrep(store=store, config=config).grep("ERROR")

    def test_block_lost_outside_a_rewrite_fails_the_query(
        self, store_factory, tmp_path
    ):
        # The sidecar still lists the block and nothing replaced it: a
        # grep or count must name it, not answer from the other blocks.
        store = self._make(store_factory, tmp_path)
        config = LogGrepConfig(block_bytes=4096)
        lines = [f"ERROR disk {i} failed" for i in range(400)]
        opened = LogGrep(store=store, config=config)
        opened.compress(lines)
        assert opened.count("ERROR") == 400
        victim = store.names()[1]
        store.delete(victim)
        for lg in (opened, LogGrep(store=store, config=config)):
            with pytest.raises(BlockMissingError, match=victim):
                lg.grep("ERROR")
            with pytest.raises(BlockMissingError, match=victim):
                lg.count("ERROR")


class TestArchiveStorePaths:
    def test_rejects_path_traversal(self, tmp_path):
        store = ArchiveStore(str(tmp_path))
        with pytest.raises(ValueError):
            store.put("../evil", b"x")
        with pytest.raises(ValueError):
            store.put(".hidden", b"x")
