"""Tests for the reconstructor, compressor seeds and config plumbing."""

import pytest

from repro.blockstore.block import LogBlock
from repro.common.rowset import RowSet
from repro.core.compressor import compress_block
from repro.core.config import ABLATIONS, LogGrepConfig, ablated, sp_config
from repro.core.reconstructor import BlockReconstructor
from tests.conftest import make_mixed_lines


@pytest.fixture(scope="module")
def box_and_lines():
    lines = make_mixed_lines(500)
    box = compress_block(LogBlock(3, 1000, lines), LogGrepConfig())
    return box, lines


class TestReconstructor:
    def test_entry_uses_global_line_ids(self, box_and_lines):
        box, lines = box_and_lines
        recon = BlockReconstructor(box)
        row = RowSet.from_rows(box.groups[0].num_entries, [0])
        [(line_id, text)] = recon.reconstruct({0: row})
        assert line_id >= 1000  # block's first_line_id offset applies
        assert text == lines[line_id - 1000]

    def test_all_lines_in_order(self, box_and_lines):
        box, lines = box_and_lines
        assert BlockReconstructor(box).all_lines() == lines

    def test_selective_reconstruction(self, box_and_lines):
        box, lines = box_and_lines
        recon = BlockReconstructor(box)
        group = box.groups[0]
        rows = RowSet.from_rows(group.num_entries, [0, group.num_entries - 1])
        entries = recon.reconstruct({0: rows})
        assert len(entries) == 2
        assert entries[0][0] < entries[1][0]
        for line_id, text in entries:
            assert lines[line_id - 1000] == text

    def test_bulk_path_matches_per_row(self, box_and_lines):
        # One renderer serves every hit count: the whole group at once
        # and each row on its own must agree.
        box, lines = box_and_lines
        recon = BlockReconstructor(box)
        group_idx = max(
            range(len(box.groups)), key=lambda g: box.groups[g].num_entries
        )
        n = box.groups[group_idx].num_entries
        bulk = recon.reconstruct({group_idx: RowSet.full(n)})
        single = [
            entry
            for row in range(n)
            for entry in recon.reconstruct({group_idx: RowSet.from_rows(n, [row])})
        ]
        assert len(bulk) == n
        assert bulk == sorted(single)

    def test_shared_readers_with_engine(self, box_and_lines):
        box, _ = box_and_lines
        readers = {}
        recon = BlockReconstructor(box, readers=readers)
        recon.reconstruct({0: RowSet.full(box.groups[0].num_entries)})
        assert readers  # the shared cache is actually populated


class TestCompressor:
    def test_deterministic(self):
        lines = make_mixed_lines(300)
        a = compress_block(LogBlock(0, 0, lines), LogGrepConfig()).serialize()
        b = compress_block(LogBlock(0, 0, lines), LogGrepConfig()).serialize()
        assert a == b

    def test_different_blocks_different_parser_seed(self):
        lines = make_mixed_lines(300)
        a = compress_block(LogBlock(0, 0, lines), LogGrepConfig())
        b = compress_block(LogBlock(1, 0, lines), LogGrepConfig())
        # Different block ids may legitimately mine different samples, but
        # both must reconstruct exactly.
        assert BlockReconstructor(a).all_lines() == lines
        assert BlockReconstructor(b).all_lines() == lines

    def test_padded_flag_recorded(self):
        lines = make_mixed_lines(100)
        box = compress_block(LogBlock(0, 0, lines), ablated("w/o fixed"))
        assert not box.padded
        box2 = compress_block(LogBlock(0, 0, lines), LogGrepConfig())
        assert box2.padded


class TestConfig:
    def test_ablation_names(self):
        assert len(ABLATIONS) == 5
        for name in ABLATIONS:
            config = ablated(name)
            assert isinstance(config, LogGrepConfig)

    def test_ablations_flip_exactly_one_flag(self):
        base = LogGrepConfig()
        flags = [
            "use_real_patterns",
            "use_nominal_patterns",
            "use_stamps",
            "use_padding",
            "use_query_cache",
        ]
        for name, flag in zip(ABLATIONS, flags):
            config = ablated(name, base)
            assert getattr(config, flag) is False
            for other in flags:
                if other != flag:
                    assert getattr(config, other) is True

    def test_sp_config(self):
        config = sp_config()
        assert not config.use_real_patterns
        assert not config.use_nominal_patterns
        assert not config.use_padding
        assert config.use_stamps  # §2.2 keeps vector-level summaries

    def test_encoding_options_mirror_config(self):
        config = LogGrepConfig(duplication_threshold=0.7, preset=3)
        options = config.encoding_options()
        assert options.duplication_threshold == 0.7
        assert options.preset == 3
