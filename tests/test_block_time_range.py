"""A block's time range from its parsed columns, and the sidecar rebuild
that reads it off the stored boxes.

:func:`repro.common.timeparse.time_range` must equal the per-line
reference (``tests/test_runtime_split.py:ref_time_range``) on every
block: real spec blocks, hand-made adversarial columns and fuzzed
groups, both on the parse a commit holds and on the vectors a rebuild
decodes.  A rebuilt sidecar never reconstructs a line, equals the
committed one (under the full configuration, LogGrep-SP and each Fig 9
ablation), and serves each line id once.
"""

import random

import pytest

from repro import ABLATIONS, ablated, sp_config
from repro.baselines.evalutil import grep_lines
from repro.blockstore.block import LogBlock, block_name, split_lines
from repro.blockstore.index import (
    INDEX_AUX_NAME,
    ArchiveIndex,
    BlockSummary,
    load_index,
    once_each,
    stored_live_names,
)
from repro.blockstore.store import ArchiveStore, MemoryStore
from repro.capsule.box import CapsuleBox
from repro.common.binio import BinaryReader, BinaryWriter
from repro.common.timeparse import extract_timestamp
from repro.common.tokenizer import tokenize
from repro.core.compressor import encode_parsed, parse_block
from repro.core.config import LogGrepConfig
from repro.core.loggrep import LogGrep
from repro.core.reconstructor import BlockReconstructor
from repro.staticparse.parser import Group, ParsedBlock
from repro.staticparse.template import Template
from repro.workloads import spec_by_name
from tests.test_runtime_split import fuzzed_line, ref_time_range

DATE = "2024-03-01"
CONFIG = LogGrepConfig()


def build(*groups):
    """(parse, box, lines) of a block of *groups*, each a ``(tokens,
    rows)`` pair: template tokens (None at a variable slot) and the
    rows' full token lists.  Line ids run group after group."""
    parsed_groups, lines = [], []
    for template_id, (tokens, rows) in enumerate(groups):
        ids = list(range(len(lines), len(lines) + len(rows)))
        parsed_groups.append(
            Group.from_rows(Template(template_id, list(tokens)), ids, rows)
        )
        lines += [" ".join(row) for row in rows]
    parsed = ParsedBlock([g.template for g in parsed_groups], parsed_groups, len(lines))
    box = encode_parsed(LogBlock(0, 0, lines), parsed, CONFIG)
    return parsed, box, lines


def ranges(parsed, box):
    """The block's range as a commit takes it (from the parse) and as a
    rebuild does (from the stored box's vectors)."""
    committed = BlockSummary.from_box(box, parsed)
    rebuilt = BlockSummary.from_box(CapsuleBox.deserialize(box.serialize()))
    return (committed.min_ts, committed.max_ts), (rebuilt.min_ts, rebuilt.max_ts)


def assert_exact(*groups):
    parsed, box, lines = build(*groups)
    want = ref_time_range(lines)
    assert ranges(parsed, box) == (want, want), lines
    return want


def clock_group(clocks, date=DATE):
    return [date, None, "x"], [[date, clock, "x"] for clock in clocks]


class TestAdversarialColumns:
    @pytest.mark.parametrize(
        "clocks",
        [
            ["10:00:05,5", "10:00:05.009"],  # "," sorts before "."
            ["10:00:05.x", "10:00:05.1"],  # ".x" has fraction ""
            ["10:00:05.1234567", "10:00:05.123456", "10:00:05.9999999"],
            ["10:00:05\U0010ffff", "10:00:05.5"],  # past U+10FFFF: same run
            ["10:00:05Z", "10:00:05", "10:00:05,0", "10:00:06,5", "10:00:06.50"],
            ["23:59:59.999999", "00:00:00"],
            ["24:00:00", "10:00:00", "09:59:59.5"],  # greatest is no clock
            ["", "10:00:00", "zz"],  # neither extreme is a clock
            ["24:00:00", "1:00:00", "ab", "10:60:00"],  # no valid clock
            # An Arabic-Indic nine is no digit of a head, though it
            # sorts after every ASCII one.
            ["1\u0669:00:00", "19:30:00", "10:00:00"],
        ],
    )
    def test_clock_column_after_a_constant_date(self, clocks):
        assert_exact(clock_group(clocks))

    @pytest.mark.parametrize(
        "date",
        ["2024-02-30", "0000-01-01", "2023-02-29", "2024-3-01", "x2024-03-01"],
    )
    def test_a_constant_that_is_no_valid_date_has_no_head(self, date):
        assert assert_exact(clock_group(["10:00:00", "11:00:00"], date)) == (None, None)

    def test_valid_dates_and_constant_clocks(self):
        assert assert_exact(clock_group(["10:00:00"], "2024-02-29")) != (None, None)
        assert_exact(
            ([DATE, "10:00:00.5", None], [[DATE, "10:00:00.5", "a"], [DATE, "10:00:00.5", "b"]]),
            (["2024-03-01T09:00:00,25x", None], [["2024-03-01T09:00:00,25x", "y"]]),
            (["2024-03-02T00:00:00", "z"], [["2024-03-02T00:00:00", "z"]]),
        )

    def test_mixed_t_and_space_heads_in_one_column(self):
        rows = [
            ["2024-03-01T10:00:00", "y"],
            [DATE, "09:00:00.5"],  # a bare date: the head spans token 1
            ["2024-03-02T00:00:00,25", "z"],
            [DATE, "24:00:00"],
            ["2024-02-30T10:00:00", "q"],
        ]
        want = assert_exact(([None, None, "x"], [row + ["x"] for row in rows]))
        assert want[0] < want[1]
        assert_exact(([None, "09:00:00"], [[DATE, "09:00:00"], ["2024-03-01T08:00:00", "09:00:00"]]))
        assert_exact(([None], [[DATE], ["2024-03-01T08:00:00.5"]]))

    def test_column_zero_without_heads(self):
        healthapp = [["20171223-22:15:29:606|Step_LSC", "1"], ["20171224-01:00:00:000|x", "2"]]
        assert assert_exact(([None, None], healthapp)) == (None, None)
        # The extremes differ before the fifth character: read per row.
        rows = [["20171223-22:15", "1"], ["2024-03-01T10:00:00", "2"], ["zz", "3"]]
        assert assert_exact(([None, None], rows)) != (None, None)

    def test_heads_take_ascii_digits_only(self):
        assert extract_timestamp("2024-03-01 1\u0669:00:00 x") is None
        assert extract_timestamp("2024-03-01 19:00:00 x") is not None
        assert assert_exact(
            (["2024-03-0\u0661", None], [["2024-03-0\u0661", "10:00:00"]]),
        ) == (None, None)

    def test_blocks_with_no_timestamps(self):
        assert assert_exact((["ERROR", None], [["ERROR", "a"], ["ERROR", "b"]])) == (None, None)
        assert assert_exact(([DATE], [[DATE], [DATE]])) == (None, None)
        assert assert_exact(([None], [[""], ["10:00:00"]])) == (None, None)


def fuzzed_group(rng):
    """A group of fuzzed rows sharing a token count; tokens 0 and 1 are
    constant where every row agrees and a coin says so."""
    count = rng.randrange(1, 12)
    if rng.random() < 0.5:
        # A shared date token, valid or not, before fuzzed clocks.
        date = rng.choice([DATE, "2024-02-29", "2023-02-29", "0000-01-01", "2024-13-01"])
        lines = [f"{date} {fuzzed_line(rng)[11:]}".rstrip() for _ in range(count)]
    else:
        lines = [fuzzed_line(rng) for _ in range(count)]
    rows = [tokenize(line) for line in lines]
    width = min(map(len, rows))
    rows = [row[:width - 1] + [" ".join(row[width - 1:])] for row in rows]
    tokens = [
        rows[0][p] if len({row[p] for row in rows}) == 1 and rng.random() < 0.7 else None
        for p in range(width)
    ]
    return tokens, rows


def test_fuzzed_groups_equal_the_per_line_reference():
    rng = random.Random(51)
    ranged = 0
    for _ in range(300):
        groups = [fuzzed_group(rng) for _ in range(rng.randrange(1, 4))]
        ranged += assert_exact(*groups) != (None, None)
    assert ranged > 100


@pytest.mark.parametrize("name", ["Log A", "Log T", "Log G", "Log K", "Hdfs", "Healthapp"])
def test_spec_blocks_equal_the_per_line_reference(name):
    for block in split_lines(spec_by_name(name).generate(1500), 16 * 1024):
        parsed, _ = parse_block(block, CONFIG)
        box = encode_parsed(block, parsed, CONFIG)
        want = ref_time_range(block.lines)
        assert ranges(parsed, box) == (want, want), (name, block.block_id)


# ----------------------------------------------------------------------
# the rebuild
# ----------------------------------------------------------------------
def spec_archive(root, lines=600):
    spec = spec_by_name("Log A")
    raw = spec.generate(lines)
    store = ArchiveStore(str(root / "archive"))
    LogGrep(store=store, config=LogGrepConfig(block_bytes=16 * 1024)).compress(raw)
    return spec, raw, store


def test_a_rebuild_reconstructs_no_line(tmp_path, monkeypatch):
    _, _, store = spec_archive(tmp_path)
    sidecar = store.get_aux(INDEX_AUX_NAME)

    def forbidden(self):
        raise AssertionError("a rebuild reconstructed a block's lines")

    monkeypatch.setattr(BlockReconstructor, "all_lines", forbidden)
    assert ArchiveIndex.build(store).serialize() == sidecar
    store.delete_aux(INDEX_AUX_NAME)
    LogGrep(store=store)
    assert store.get_aux(INDEX_AUX_NAME) == sidecar


def test_a_rebuild_serves_a_leftover_block_never(tmp_path, capsys):
    """A crashed rewrite's copy of block 0, with the sidecar gone: the
    rebuild keeps each line once, and verify names the copy."""
    from repro.cli import main

    spec, raw, store = spec_archive(tmp_path)
    sidecar = store.get_aux(INDEX_AUX_NAME)
    names = store.names()
    leftover = block_name(0, epoch=1)
    store.put(leftover, store.get(names[0]))
    store.delete_aux(INDEX_AUX_NAME)
    assert main(["verify", "-a", store.root]) == 1
    out = capsys.readouterr().out
    assert f"{leftover}: left out" in out
    assert f"{len(names)}/{len(names) + 1} block(s) healthy" in out
    assert stored_live_names(store) == names  # what stats and status count
    assert not store.aux_exists(INDEX_AUX_NAME)  # neither saves a rebuild
    want = grep_lines(spec.query, raw)
    assert len(want) == 3
    assert LogGrep(store=store).grep(spec.query).lines == want
    assert store.get_aux(INDEX_AUX_NAME) == sidecar
    assert stored_live_names(store) == names
    # With the sidecar back, the copy is still not served and still named.
    assert main(["verify", "-a", store.root]) == 1
    assert f"{leftover}: left out" in capsys.readouterr().out


BASE = LogGrepConfig(block_bytes=8 * 1024)
CONFIGS = {"full": BASE, "sp": sp_config(BASE)}
CONFIGS.update({name: ablated(name, BASE) for name in ABLATIONS})


def as_stored(summary):
    """*summary* as the sidecar stores it: times in whole milliseconds."""
    writer = BinaryWriter()
    summary.write(writer)
    return BlockSummary.read(BinaryReader(writer.getvalue()))


@pytest.mark.parametrize("config", CONFIGS.values(), ids=list(CONFIGS))
@pytest.mark.parametrize("spec", ["Log A", "Log F", "Log J", "Hdfs", "Healthapp"])
def test_rebuilt_summaries_equal_the_committed(spec, config):
    store = MemoryStore()
    LogGrep(store=store, config=config).compress(spec_by_name(spec).generate(600))
    index = load_index(store)
    names = store.names()
    assert len(names) > 1 and sorted(index.blocks) == names
    for name in names:
        rebuilt = BlockSummary.from_box(CapsuleBox.deserialize(store.get(name)))
        assert as_stored(rebuilt) == index.get(name)


def summary(first, lines):
    return BlockSummary(0, first, lines)


class TestOnceEach:
    def test_a_crashed_merge_keeps_the_originals(self):
        blocks = {block_name(i): summary(100 * i, 100) for i in range(4)}
        blocks[block_name(1, 1)] = summary(0, 200)  # the merge's first half
        assert once_each(blocks) == {block_name(i) for i in range(4)}

    def test_a_published_merge_with_undeleted_originals(self):
        blocks = {
            block_name(2, 1): summary(0, 200),
            block_name(3, 1): summary(200, 200),
            block_name(2): summary(200, 100),
            block_name(3): summary(300, 100),
        }
        kept = once_each(blocks)
        assert sum(blocks[name].num_lines for name in kept) == 400
        assert kept == {block_name(2, 1), block_name(2), block_name(3)}

    def test_gaps_are_kept(self):
        blocks = {
            block_name(0): summary(0, 100),
            block_name(3): summary(300, 100),
            block_name(5): summary(500, 100),
        }
        assert once_each(blocks) == set(blocks)

    def test_the_cover_with_more_lines_wins(self):
        blocks = {
            block_name(0): summary(0, 100),
            block_name(1): summary(100, 100),
            block_name(1, 1): summary(50, 250),
        }
        assert once_each(blocks) == {block_name(1, 1)}
        blocks[block_name(2)] = summary(200, 100)
        assert once_each(blocks) == {block_name(i) for i in range(3)}


def test_a_rebuilt_memory_store_sidecar_equals_the_committed():
    store = MemoryStore()
    LogGrep(store=store, config=LogGrepConfig(block_bytes=8 * 1024)).compress(
        spec_by_name("Log K").generate(800)
    )
    assert ArchiveIndex.build(store).serialize() == store.get_aux(INDEX_AUX_NAME)
