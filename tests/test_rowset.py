"""Unit + property tests for bitmap row sets."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.rowset import RowSet

rows_strategy = st.sets(st.integers(min_value=0, max_value=63))


class TestConstruction:
    def test_empty(self):
        rs = RowSet.empty(10)
        assert len(rs) == 0
        assert not rs

    def test_full(self):
        rs = RowSet.full(5)
        assert len(rs) == 5
        assert rs.rows() == [0, 1, 2, 3, 4]
        assert rs.is_full()

    def test_full_zero_universe(self):
        assert not RowSet.full(0)

    def test_from_rows(self):
        rs = RowSet.from_rows(10, [3, 7, 3])
        assert rs.rows() == [3, 7]

    def test_from_rows_out_of_range(self):
        with pytest.raises(IndexError):
            RowSet.from_rows(4, [4])

    def test_negative_universe(self):
        with pytest.raises(ValueError):
            RowSet(-1)

    def test_bits_truncated_to_universe(self):
        rs = RowSet(3, 0b11111)
        assert rs.rows() == [0, 1, 2]


class TestOperations:
    def test_add_and_contains(self):
        rs = RowSet.empty(8)
        rs.add(5)
        assert 5 in rs
        assert 4 not in rs
        assert 100 not in rs

    def test_add_out_of_range(self):
        with pytest.raises(IndexError):
            RowSet.empty(4).add(4)

    def test_universe_mismatch(self):
        with pytest.raises(ValueError):
            RowSet.empty(4) & RowSet.empty(5)

    def test_equality_and_hash(self):
        a = RowSet.from_rows(8, [1, 2])
        b = RowSet.from_rows(8, [2, 1])
        assert a == b
        assert hash(a) == hash(b)
        assert a != RowSet.from_rows(9, [1, 2])


class TestSetAlgebra:
    @given(rows_strategy, rows_strategy)
    def test_and_matches_set_intersection(self, a, b):
        ra, rb = RowSet.from_rows(64, a), RowSet.from_rows(64, b)
        assert set((ra & rb).rows()) == a & b

    @given(rows_strategy, rows_strategy)
    def test_or_matches_set_union(self, a, b):
        ra, rb = RowSet.from_rows(64, a), RowSet.from_rows(64, b)
        assert set((ra | rb).rows()) == a | b

    @given(rows_strategy, rows_strategy)
    def test_sub_matches_set_difference(self, a, b):
        ra, rb = RowSet.from_rows(64, a), RowSet.from_rows(64, b)
        assert set((ra - rb).rows()) == a - b

    @given(rows_strategy)
    def test_invert(self, a):
        ra = RowSet.from_rows(64, a)
        assert set(ra.invert().rows()) == set(range(64)) - a

    @given(rows_strategy)
    def test_iteration_sorted(self, a):
        ra = RowSet.from_rows(64, a)
        assert ra.rows() == sorted(a)

    @given(rows_strategy)
    def test_len(self, a):
        assert len(RowSet.from_rows(64, a)) == len(a)


def _peel_rows(rs):
    """The original definition of iteration: lowest set bit first."""
    bits, out = rs.bits, []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


class TestRowsListing:
    @given(st.integers(0, 300), st.floats(0, 1), st.randoms(use_true_random=False))
    def test_rows_match_bit_peeling(self, n, density, rng):
        rs = RowSet.from_rows(n, [row for row in range(n) if rng.random() < density])
        assert rs.rows() == _peel_rows(rs)
        assert list(rs) == rs.rows()
        assert len(rs.rows()) == len(rs)

    @given(st.integers(0, 300))
    def test_full_and_empty(self, n):
        assert RowSet.full(n).rows() == list(range(n))
        assert RowSet.empty(n).rows() == []

    def test_rows_is_a_fresh_list(self):
        rs = RowSet.full(4)
        rs.rows().append(99)
        assert rs.rows() == [0, 1, 2, 3]


def _shifted_bits(rows):
    """The original bitmap build: one big-integer shift per row."""
    bits = 0
    for row in rows:
        bits |= 1 << row
    return bits


class TestBulkBuild:
    """``from_rows`` / ``add_rows`` build the bitmap in one byte pass and
    must equal the shift-per-row build they replace."""

    @pytest.mark.parametrize(
        "n, rows",
        [
            (0, []),
            (9, []),
            (5000, list(range(5000))),  # dense
            (100_000, [99_999, 3, 50_000]),  # sparse, unordered
            (17, [16, 0, 8, 8, 7, 9, 16]),  # byte edges, duplicates
        ],
        ids=["empty-universe", "empty", "dense", "sparse", "edges"],
    )
    def test_from_rows_equals_per_row_shift(self, n, rows):
        assert RowSet.from_rows(n, rows) == RowSet(n, _shifted_bits(rows))

    @given(st.integers(1, 400), st.floats(0, 1), st.randoms(use_true_random=False))
    def test_add_rows_equals_add(self, n, density, rng):
        start = [row for row in range(n) if rng.random() < 0.1]
        extra = [row for row in range(n) if rng.random() < density]
        bulk, single = RowSet.from_rows(n, start), RowSet.from_rows(n, start)
        bulk.add_rows(extra)
        for row in extra:
            single.add(row)
        assert bulk == single

    @pytest.mark.parametrize("row", [-1, 10])
    def test_out_of_universe_rows_rejected(self, row):
        with pytest.raises(IndexError):
            RowSet.from_rows(10, [3, row])
        with pytest.raises(IndexError):
            RowSet.empty(10).add_rows([row])
