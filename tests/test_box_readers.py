"""Vector readers live as long as their box.

A refining session pins its boxes, and with them every reader's decoded
state: a repeated warm query builds no reader, no nominal cell table and
inflates no Capsule.  A foreign rewrite replaces the block names, which
drops the old boxes and their readers, so the next query decodes the new
bytes.
Queries racing on one pinned box inflate each Capsule once and charge
only the query that inflated it.
"""

import sys
import threading

import pytest

from repro import LogGrep, LogGrepConfig
from repro.baselines.evalutil import grep_lines
from repro.query import vectors
from tests.conftest import make_mixed_lines

#: Matches real (``bk.``), nominal (``state: ERR``) and plain groups.
QUERY = "ERR"


@pytest.fixture
def corpus():
    return make_mixed_lines(900, seed=5)


@pytest.fixture
def lg(corpus):
    handle = LogGrep(config=LogGrepConfig(block_bytes=4 * 1024))
    handle.compress(corpus)
    assert len(handle.store.names()) > 1
    return handle


@pytest.fixture
def builds(monkeypatch):
    """Counts of readers constructed and nominal cell tables built."""
    counts = {"readers": 0, "cell_tables": 0}
    make_reader = vectors.make_reader
    cell_table = vectors.NominalVectorReader._cell_table

    def counting_make_reader(encoded):
        counts["readers"] += 1
        return make_reader(encoded)

    def counting_cell_table(self):
        if self._table is None:
            counts["cell_tables"] += 1
        return cell_table(self)

    monkeypatch.setattr(vectors, "make_reader", counting_make_reader)
    monkeypatch.setattr(
        vectors.NominalVectorReader, "_cell_table", counting_cell_table
    )
    return counts


def inflated(lg):
    """Capsules decompressed across the archive's pinned boxes."""
    return sum(
        capsule.is_decompressed
        for name in lg.store.names()
        for capsule in lg.executor.load_box(name).capsules()
    )


class TestWarmPath:
    def test_repeated_warm_query_builds_nothing(self, lg, corpus, builds):
        want = grep_lines(QUERY, corpus)
        with lg.open_session() as session:
            first = session.grep(QUERY)
            assert first.lines == want
            # The cold query did build: the counters see real work.
            assert builds["readers"] > 0 and builds["cell_tables"] > 0
            assert first.stats.capsules_decompressed > 0
            before = dict(builds)
            capsules = inflated(lg)
            warm = session.grep(QUERY)
            assert warm.lines == want
            assert builds == before  # 0 readers, 0 cell tables
            assert inflated(lg) == capsules  # 0 Capsules inflated
            assert warm.stats.capsules_decompressed == 0

    @pytest.mark.parametrize("tier_name", ["warm", "cold"])
    def test_foreign_demote_rebuilds_from_new_bytes(
        self, lg, corpus, builds, tier_name
    ):
        from repro.core.lifecycle import LifecycleManager, Tier

        with lg.open_session() as session:
            session.grep(QUERY)
            session.grep(QUERY)
            replaced = lg.store.names()
            LifecycleManager(lg.store, lg.config).demote(Tier(tier_name))
            before = builds["readers"]
            after = session.grep(QUERY)
            assert builds["readers"] > before  # the old readers went too
            # The pinned boxes of the replaced names are dropped.
            assert not any(name in lg._box_cache for name in replaced)
            assert after.lines == grep_lines(QUERY, corpus)
            assert session.grep(QUERY).lines == after.lines


class TestConcurrentQueries:
    @pytest.mark.parametrize("trial", range(5))
    def test_each_capsule_is_inflated_and_charged_once(
        self, lg, corpus, trial
    ):
        want = grep_lines(QUERY, corpus)
        threads = 4
        start = threading.Barrier(threads)
        results = [None] * threads

        def run(i):
            start.wait(timeout=60)
            results[i] = lg.grep(QUERY)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often: widen races
        try:
            with lg.open_session():
                assert inflated(lg) == 0
                workers = [
                    threading.Thread(target=run, args=(i,))
                    for i in range(threads)
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
                assert not any(worker.is_alive() for worker in workers)
                charged = sum(r.stats.capsules_decompressed for r in results)
                assert charged == inflated(lg)
        finally:
            sys.setswitchinterval(interval)
        assert all(r.lines == want for r in results)
