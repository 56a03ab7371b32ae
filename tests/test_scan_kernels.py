"""Byte-level scan kernels vs naive per-value matching (§5.2).

The kernels must be observationally identical to ``value_matches`` applied
to every decoded value, on every layout and every mode; end to end, grep
must equal the raw-line oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.evalutil import grep_lines
from repro.capsule import scan
from repro.capsule.capsule import Capsule
from repro.core.config import LogGrepConfig
from repro.core.loggrep import LogGrep
from repro.query.matcher import search_capsule
from repro.query.modes import MatchMode, value_matches

values_strategy = st.lists(
    st.text(alphabet="ab1F#", max_size=6), min_size=0, max_size=24
)
fragment_strategy = st.text(alphabet="ab1F#", max_size=4)
mode_strategy = st.sampled_from(list(MatchMode))


def naive_rows(values, fragment, mode):
    return {r for r, v in enumerate(values) if value_matches(v, fragment, mode)}


class TestKernelEquivalence:
    """scan kernels ≡ naive matching, property-checked."""

    @given(values_strategy, fragment_strategy, mode_strategy)
    @settings(max_examples=300)
    def test_fixed_layout(self, values, fragment, mode):
        capsule = Capsule.pack_fixed(values)
        by = set(search_capsule(capsule, fragment, mode))
        assert by == naive_rows(values, fragment, mode)

    @given(values_strategy, fragment_strategy, mode_strategy)
    @settings(max_examples=300)
    def test_variable_layout(self, values, fragment, mode):
        capsule = Capsule.pack_variable(values)
        by = set(search_capsule(capsule, fragment, mode))
        assert by == naive_rows(values, fragment, mode)

    @given(
        st.lists(
            st.lists(st.text(alphabet="ab1F#", max_size=4), max_size=6),
            max_size=4,
        ),
        fragment_strategy,
        mode_strategy,
    )
    @settings(max_examples=300)
    def test_region_layout(self, regions, fragment, mode):
        widths = [
            max((len(v.encode("utf-8")) for v in region), default=1) or 1
            for region in regions
        ]
        capsule = Capsule.pack_regions(regions, widths)
        flat = [v for region in regions for v in region]
        expected = naive_rows(flat, fragment, mode)
        got = set(
            scan.scan_regions(
                capsule.plain(),
                [(len(r), w) for r, w in zip(regions, widths)],
                fragment.encode("utf-8"),
                mode.value,
            )
        )
        assert got == expected

    @given(values_strategy, fragment_strategy, mode_strategy)
    @settings(max_examples=300)
    def test_direct_checking_subset(self, values, fragment, mode):
        """check_rows_fixed over a hint equals the scan ∩ hint."""
        capsule = Capsule.pack_fixed(values)
        hint = list(range(0, len(values), 2))
        got = set(search_capsule(capsule, fragment, mode, rows_hint=hint))
        assert got == naive_rows(values, fragment, mode) & set(hint)


class TestKernelValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="scan mode"):
            scan.scan_fixed(b"a", 1, 1, b"a", "glob")
        with pytest.raises(ValueError, match="scan mode"):
            scan.scan_variable(b"a", [0], 1, b"a", "glob")
        with pytest.raises(ValueError, match="scan mode"):
            scan.check_rows_fixed(b"a", 1, [0], b"a", "glob")


class TestZeroWidthAndEmpty:
    def test_zero_width_column(self):
        capsule = Capsule.pack_fixed(["", "", ""])
        assert capsule.width == 0
        assert set(search_capsule(capsule, "", MatchMode.EXACT)) == {0, 1, 2}
        assert not search_capsule(capsule, "x", MatchMode.SUBSTRING)

    def test_empty_exact_matches_only_empty_values(self):
        capsule = Capsule.pack_fixed(["", "a", ""])
        assert set(search_capsule(capsule, "", MatchMode.EXACT)) == {0, 2}


CORPUS = [
    f"T{1000 + i} state: {'SUC' if i % 3 else 'ERR'}#{1600 + (i * 37) % 100}"
    for i in range(120)
] + [f"T{2000 + i} bk.{i % 7:02X}.{i % 5} read" for i in range(60)]

QUERIES = ["ERR", "read AND bk.03", "state: NOT SUC", "T1003", "bk.*.4"]


class TestEndToEndEquivalence:
    """grep over a full archive equals the raw-line oracle."""

    @pytest.mark.parametrize("query", QUERIES)
    def test_grep_identical(self, query):
        lg = LogGrep(config=LogGrepConfig(block_bytes=4 * 1024))
        lg.compress(CORPUS)
        assert lg.grep(query).lines == grep_lines(query, CORPUS)

    def test_reconstruction_identical(self):
        lg = LogGrep(config=LogGrepConfig(block_bytes=4 * 1024))
        lg.compress(CORPUS)
        assert lg.grep("T").lines == CORPUS
