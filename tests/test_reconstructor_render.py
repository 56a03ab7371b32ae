"""The byte-column renderer: every encoding, every row-subset shape.

``BlockReconstructor.reconstruct`` has one rendering path — padded cells
joined row-wise, pad bytes deleted once per group — so these tests drive
it with hand-built boxes covering each encoding and layout, and with
compressor-built boxes read back from their serialized form.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.blockstore.block import LogBlock
from repro.capsule.assembler import (
    EncodingOptions,
    NominalEncodedVector,
    PlainEncodedVector,
    RealEncodedVector,
    encode_vector,
)
from repro.capsule.box import CapsuleBox, GroupBox, _capsules_of
from repro.capsule.capsule import (
    CODEC_RAW,
    LAYOUT_FIXED,
    LAYOUT_REGION,
    LAYOUT_VARIABLE,
    Capsule,
)
from repro.common.errors import FormatError
from repro.common.rowset import RowSet
from repro.core.compressor import compress_block
from repro.core.config import LogGrepConfig, ablated, sp_config
from repro.core.reconstructor import BlockReconstructor
from repro.query.stats import QueryLedger, QueryStats, collect
from repro.runtime.classify import VectorKind
from repro.runtime.merge import DictPattern
from repro.runtime.pattern import Const, RuntimePattern, SubVar
from repro.staticparse.template import Template
from tests.conftest import make_mixed_lines

N = 37  # rows per hand-built group

UNPADDED = EncodingOptions(use_padding=False)


# ----------------------------------------------------------------------
# hand-built vectors: (encoded vector, the values it must render)
# ----------------------------------------------------------------------
def _pack(values, padded=True):
    return Capsule.pack_fixed(values) if padded else Capsule.pack_variable(values)


def real_vector(padded=True, outlier_every=0):
    """``blk_<a>_<b>`` split over two sub-variable Capsules; every
    *outlier_every*-th row escapes the pattern."""
    pattern = RuntimePattern([Const("blk_"), SubVar(0), Const("_"), SubVar(1)])
    values, first, second, outlier_rows, outliers = [], [], [], [], []
    for row in range(N):
        if outlier_every and row % outlier_every == 0:
            value = f"odd ünit {row}" if row % 2 else ""
            outlier_rows.append(row)
            outliers.append(value)
        else:
            a, b = str(row * 7919 % 1000), "é" * (row % 3) + str(row)
            value = f"blk_{a}_{b}"
            first.append(a)
            second.append(b)
        values.append(value)
    encoded = RealEncodedVector(
        pattern,
        [_pack(first, padded), _pack(second, padded)],
        _pack(outliers, padded) if outliers else None,
        outlier_rows,
        N,
    )
    return encoded, values


def all_outlier_vector():
    values = [f"free text {row}" for row in range(N)]
    encoded = RealEncodedVector(
        RuntimePattern([Const("x="), SubVar(0)]),
        [_pack([])],
        _pack(values),
        list(range(N)),
        N,
    )
    return encoded, values


def constant_real_vector():
    """A runtime pattern with no sub-variable at all."""
    encoded = RealEncodedVector(RuntimePattern([Const("same")]), [], None, [], N)
    return encoded, ["same"] * N


NOMINAL_VALUES = ["SUC#16", "ERR#4", "naïve-é", "", "SUC#17", "WARN"]


def nominal_vector(options=None):
    values = [NOMINAL_VALUES[row * row % len(NOMINAL_VALUES)] for row in range(N)]
    return encode_vector(values, options, kind=VectorKind.NOMINAL), values


def nominal_fixed_dict_vector():
    """A dictionary stored as one fixed-width Capsule (no regions)."""
    values = [NOMINAL_VALUES[row % len(NOMINAL_VALUES)] for row in range(N)]
    slots = [str(row % len(NOMINAL_VALUES)) for row in range(N)]
    dict_capsule = Capsule.pack_fixed(NOMINAL_VALUES)
    encoded = NominalEncodedVector(
        [DictPattern(RuntimePattern([SubVar(0)]), len(NOMINAL_VALUES), dict_capsule.width)],
        dict_capsule,
        Capsule.pack_fixed(slots, width=1),
        1,
        N,
        len(NOMINAL_VALUES),
    )
    return encoded, values


def plain_vector(values, padded=True):
    return PlainEncodedVector(_pack(values, padded), len(values)), list(values)


def hand_built_box():
    """One group per encoding; returns (box, raw lines by line id)."""
    newline_values = [f"v{row}" for row in range(N)]
    newline_values[5] = "two\nlines"
    specs = [
        (["real", None, "end"], [real_vector()]),
        (["outl", None, "end"], [real_vector(outlier_every=4)]),
        (["outl-var", None], [real_vector(padded=False, outlier_every=5)]),
        ([None, "all-outliers"], [all_outlier_vector()]),
        (["const", None, ""], [constant_real_vector()]),
        (["nom-region", None], [nominal_vector()]),
        (["nom-variable", None], [nominal_vector(UNPADDED)]),
        (["nom-fixed", None, None], [nominal_fixed_dict_vector(), real_vector()]),
        (["plain", None, None], [
            plain_vector([f"π{row}" * (row % 4) for row in range(N)]),
            plain_vector([str(row) for row in range(N)], padded=False),
        ]),
        (["width-0", None, "x"], [plain_vector([""] * N)]),
        (["all", "constant", "tokens"], []),
        (["newline", None], [plain_vector(newline_values)]),
    ]
    groups, raw = [], {}
    for group_idx, (tokens, columns) in enumerate(specs):
        template = Template(group_idx, tokens)
        # Interleave the groups' line ids so the global merge has work.
        line_ids = [row * len(specs) + group_idx for row in range(N)]
        groups.append(GroupBox(template, line_ids, [enc for enc, _ in columns]))
        for row, line_id in enumerate(line_ids):
            raw[line_id] = template.render([vals[row] for _, vals in columns])
    box = CapsuleBox(0, 500, N * len(specs), True, groups)
    return box, raw


def compressed_box(config, lines, block_id=0):
    """A compressor-built box, read back lazily from its serialized form."""
    box = compress_block(LogBlock(block_id, 500, lines), config)
    return CapsuleBox.deserialize(box.serialize()), dict(enumerate(lines))


UNICODE_LINES = [
    f"svc state={'naïve-é' if i % 3 else 'plain'} id={i} "
    f"user=ü{i % 7}ser ⚡{i * 37 % 1000}  gap"
    for i in range(150)
]

BOXES = {
    "hand-built": hand_built_box,
    "default": lambda: compressed_box(LogGrepConfig(), make_mixed_lines(400)),
    "w/o fixed": lambda: compressed_box(ablated("w/o fixed"), make_mixed_lines(400)),
    "sp": lambda: compressed_box(sp_config(), make_mixed_lines(400)),
    "unicode": lambda: compressed_box(LogGrepConfig(), UNICODE_LINES),
}

SHAPES = ("empty", "singleton", "sparse", "dense", "full")


def pick_rows(shape, n, rng):
    if shape == "empty" or n == 0:
        return RowSet.empty(n)
    if shape == "singleton":
        return RowSet.from_rows(n, [rng.randrange(n)])
    if shape == "full":
        return RowSet.full(n)
    share = 0.1 if shape == "sparse" else 0.8
    return RowSet.from_rows(n, [row for row in range(n) if rng.random() < share])


class TestRenderer:
    @pytest.mark.parametrize("name", sorted(BOXES))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_row_subsets_render_raw_lines(self, name, data):
        box, raw = BOXES[name]()
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        hits = {
            group_idx: pick_rows(
                data.draw(st.sampled_from(SHAPES), label=f"group {group_idx}"),
                group.num_entries,
                rng,
            )
            for group_idx, group in enumerate(box.groups)
        }
        entries = BlockReconstructor(box).reconstruct(hits)
        want = sorted(
            box.groups[group_idx].line_ids[row]
            for group_idx, rows in hits.items()
            for row in rows
        )
        assert [line_id for line_id, _ in entries] == [500 + lid for lid in want]
        assert [text for _, text in entries] == [raw[lid] for lid in want]

    @pytest.mark.parametrize("name", sorted(BOXES))
    def test_whole_box_round_trips(self, name):
        box, raw = BOXES[name]()
        assert BlockReconstructor(box).all_lines() == [raw[i] for i in sorted(raw)]

    def test_every_layout_is_exercised(self):
        box, _ = hand_built_box()
        layouts = {
            capsule.layout
            for group in box.groups
            for vector in group.vectors
            for capsule in _capsules_of(vector)
        }
        assert layouts == {LAYOUT_FIXED, LAYOUT_VARIABLE, LAYOUT_REGION}


# ----------------------------------------------------------------------
# corrupt payloads: a typed error, never a short line
# ----------------------------------------------------------------------
def _raw_copy(capsule, plain, count=None):
    return Capsule(
        capsule.layout,
        capsule.width,
        capsule.count if count is None else count,
        capsule.stamp,
        CODEC_RAW,
        capsule.preset,
        plain,
    )


def _one_group_box(vector, n):
    group = GroupBox(Template(0, ["k", None]), list(range(n)), [vector])
    return CapsuleBox(0, 0, n, True, [group])


class TestCorruptPayloads:
    @pytest.mark.parametrize(
        "rows", [RowSet.full(N), RowSet.from_rows(N, [0, 1]), RowSet.from_rows(N, [N - 1])]
    )
    def test_truncated_fixed_payload(self, rows):
        encoded, _ = plain_vector([f"value-{row}" for row in range(N)])
        encoded.capsule = _raw_copy(encoded.capsule, encoded.capsule.plain()[:-3])
        with pytest.raises(FormatError):
            BlockReconstructor(_one_group_box(encoded, N)).reconstruct({0: rows})

    def test_truncated_subvar_payload(self):
        encoded, _ = real_vector()
        capsule = encoded.subvar_capsules[1]
        encoded.subvar_capsules[1] = _raw_copy(capsule, capsule.plain()[: -capsule.width])
        with pytest.raises(FormatError):
            BlockReconstructor(_one_group_box(encoded, N)).all_lines()

    def test_wrong_count_variable_payload(self):
        encoded, _ = plain_vector([f"value-{row}" for row in range(N)], padded=False)
        encoded.capsule = _raw_copy(encoded.capsule, encoded.capsule.plain(), count=N + 1)
        with pytest.raises(FormatError):
            BlockReconstructor(_one_group_box(encoded, N)).reconstruct(
                {0: RowSet.from_rows(N, [2])}
            )

    def test_truncated_region_dictionary(self):
        encoded, _ = nominal_vector()
        capsule = encoded.dict_capsule
        encoded.dict_capsule = _raw_copy(capsule, capsule.plain()[:-1])
        with pytest.raises(FormatError):
            BlockReconstructor(_one_group_box(encoded, N)).all_lines()

    def test_index_cell_without_dictionary_slot(self):
        encoded, _ = nominal_fixed_dict_vector()
        encoded.index_capsule = Capsule.pack_fixed(["9"] * N, width=1)
        with pytest.raises(FormatError):
            BlockReconstructor(_one_group_box(encoded, N)).all_lines()

    def test_cells_reject_rows_out_of_range(self):
        capsule = Capsule.pack_fixed(["a", "bb", "ccc"])
        assert capsule.cells([2, 0]) == [b"ccc", b"a\x00\x00"]
        for rows in ([3], [-1], [0, 7]):
            with pytest.raises(FormatError):
                capsule.cells(rows)


# ----------------------------------------------------------------------
# accounting
# ----------------------------------------------------------------------
class TestAccounting:
    def test_full_reconstruct_counts_every_capsule_once(self):
        """The figures the previous (bulk ``values_list``) path reported
        for this box: 14 Capsules, 4 378 plain bytes, 1 469 values."""
        box, raw = compressed_box(LogGrepConfig(), make_mixed_lines(500), block_id=3)
        stats, ledger = QueryStats(), QueryLedger()
        with ledger.operator("reconstruct", stats):
            lines = BlockReconstructor(box).all_lines()
        assert lines == [raw[i] for i in sorted(raw)]
        capsules = [
            capsule
            for group in box.groups
            for vector in group.vectors
            for capsule in _capsules_of(vector)
        ]
        assert stats.capsules_decompressed == len(capsules) == 14
        assert stats.bytes_decompressed == sum(len(c.plain()) for c in capsules) == 4378
        assert ledger.decoded_values == sum(c.count for c in capsules) == 1469
        operator = ledger.operators["reconstruct"]
        assert operator.capsules_decompressed == 14
        assert operator.bytes_decompressed == 4378

    @pytest.mark.parametrize("shape", SHAPES)
    def test_counted_decompressions_are_the_real_ones(self, shape):
        # Row subsets used to inflate real-vector Capsules behind the
        # counters' back (value_at never went through touch_capsule).
        box, _ = compressed_box(LogGrepConfig(), make_mixed_lines(400))
        rng = random.Random(7)
        hits = {
            group_idx: pick_rows(shape, group.num_entries, rng)
            for group_idx, group in enumerate(box.groups)
        }
        stats, ledger = QueryStats(), QueryLedger()
        with ledger.operator("reconstruct", stats):
            entries = BlockReconstructor(box).reconstruct(hits)
        inflated = [
            capsule
            for group in box.groups
            for vector in group.vectors
            for capsule in _capsules_of(vector)
            if capsule.is_decompressed
        ]
        assert stats.capsules_decompressed == len(inflated)
        assert stats.bytes_decompressed == sum(len(c.plain()) for c in inflated)
        if shape == "empty":
            assert not inflated and not entries and ledger.decoded_values == 0

    def test_outlier_only_subset_leaves_subvariable_capsules_closed(self):
        encoded, values = real_vector(outlier_every=4)
        box = _one_group_box(encoded, N)
        with collect() as stats:
            entries = BlockReconstructor(box).reconstruct(
                {0: RowSet.from_rows(N, [0, 8])}
            )
        assert [text for _, text in entries] == [f"k {values[0]}", f"k {values[8]}"]
        assert stats.capsules_decompressed == 1
        assert not any(c.is_decompressed for c in encoded.subvar_capsules)
