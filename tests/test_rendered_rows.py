"""A box renders each row once.

The rows the Reconstructor has built belong to the box's decoded state
(:class:`~repro.query.vectors.BoxReaders`): a later request renders only
the rows that box has not shown yet and picks the rest.

* A session revisit of a grep inflates no Capsule, decodes no value and
  reads nothing, and returns the same lines and ids.
* A refining step renders only the rows no earlier step showed.
* One ``grep_many`` block pass renders a row shared by several plans
  once.
* Racing greps over one pinned session all answer like grep over the
  raw lines.
"""

import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import LogGrep, LogGrepConfig
from repro.baselines.evalutil import grep_lines
from repro.capsule.box import CapsuleBox
from repro.common.rowset import RowSet
from repro.core.reconstructor import BlockReconstructor
from repro.obs import ledger as ledger_channel
from repro.query.vectors import box_readers
from tests.conftest import make_mixed_lines

SMALL = 4 * 1024

#: Hits real (``bk.``), nominal (``state: ERR``) and plain groups.
BROAD = "ERR"


def _compress(lines, **overrides):
    lg = LogGrep(config=LogGrepConfig(block_bytes=SMALL, **overrides))
    lg.compress(lines)
    assert len(lg.store.names()) > 1
    return lg


@pytest.fixture(scope="module")
def corpus():
    return make_mixed_lines(900, seed=7)


@pytest.fixture
def lg(corpus):
    return _compress(corpus)


@pytest.fixture
def rendered(monkeypatch):
    """Rows passed through ``BlockReconstructor._render``, as one count."""
    counts = {"rows": 0}
    render = BlockReconstructor._render

    def counting(self, group_idx, rows, num_rows):
        counts["rows"] += num_rows
        return render(self, group_idx, rows, num_rows)

    monkeypatch.setattr(BlockReconstructor, "_render", counting)
    return counts


@pytest.fixture
def decoded(monkeypatch):
    """Capsule cells taken for decoding, whatever scope is open."""
    counts = {"values": 0}
    charge = ledger_channel.charge_decoded_values

    def counting(count):
        counts["values"] += count
        charge(count)

    monkeypatch.setattr(ledger_channel, "charge_decoded_values", counting)
    return counts


class TestRevisit:
    def test_a_revisit_inflates_decodes_and_reads_nothing(
        self, lg, corpus, decoded
    ):
        with lg.open_session():
            first = lg.explain_analyze(BROAD)
            assert first.ledger.decoded_values > 0
            assert decoded["values"] > 0
            decoded["values"] = 0
            again = lg.explain_analyze(BROAD)
            totals = again.ledger.totals()
            assert again.ledger.decoded_values == 0
            assert totals.capsules_decompressed == 0
            assert totals.capsules_fetched == 0
            assert totals.read_bytes == 0
            assert decoded["values"] == 0
            assert again.lines == first.lines == grep_lines(BROAD, corpus)
            assert again.line_ids == first.line_ids

    def test_a_revisit_renders_no_row(self, lg, corpus, rendered):
        with lg.open_session() as session:
            first = session.grep(BROAD)
            assert rendered["rows"] == first.count
            again = session.grep(BROAD)
            assert rendered["rows"] == first.count
            assert again.stats.capsules_decompressed == 0
            assert (again.lines, again.line_ids) == (first.lines, first.line_ids)

    def test_answers_never_alias_the_box_state(self, lg, corpus):
        box = lg.executor.load_box(lg.store.names()[0])
        want = corpus[box.first_line_id : box.first_line_id + box.num_lines]
        # A box built outside a session starts with nothing rendered.
        assert not box_readers(box).rendered
        reconstructor = BlockReconstructor(box)
        some = {
            g: RowSet.from_rows(group.num_entries, range(0, group.num_entries, 2))
            for g, group in enumerate(box.groups)
            if group.num_entries
        }
        reconstructor.reconstruct(some).clear()
        entries = reconstructor.reconstruct(_full_rows(box))
        assert [text for _, text in entries] == want
        entries.clear()
        assert reconstructor.all_lines() == want


def _full_rows(box):
    return {
        g: RowSet.full(group.num_entries)
        for g, group in enumerate(box.groups)
        if group.num_entries
    }


class TestRefiningSteps:
    def test_a_narrowing_step_renders_nothing(self, lg, corpus, rendered):
        with lg.open_session() as session:
            broad = session.grep(BROAD)
            shown = rendered["rows"]
            narrow = session.grep(f"{BROAD} and 16")
            assert 0 < narrow.count < broad.count
            assert rendered["rows"] == shown
            assert narrow.lines == grep_lines(f"{BROAD} and 16", corpus)

    def test_a_step_renders_only_rows_not_shown_before(
        self, lg, corpus, rendered
    ):
        steps = ["state", "state and ERR", "ERROR", "state or ERROR", "read"]
        shown = set()
        with lg.open_session() as session:
            for command in steps:
                before = rendered["rows"]
                result = session.grep(command)
                assert result.lines == grep_lines(command, corpus)
                new = set(result.line_ids) - shown
                assert rendered["rows"] - before == len(new), command
                shown |= new

    def test_the_prefetch_skips_groups_already_rendered(self, lg, monkeypatch):
        calls = []
        prefetch = CapsuleBox.prefetch

        def counting(box, group_indices=None, *args, **kwargs):
            calls.append(group_indices)
            return prefetch(box, group_indices, *args, **kwargs)

        monkeypatch.setattr(CapsuleBox, "prefetch", counting)
        with lg.open_session() as session:
            session.grep(BROAD)
            assert calls
            calls.clear()
            session.grep(BROAD)
            session.grep(f"{BROAD} and 16")
        assert calls == []


class TestGrepMany:
    def test_overlapping_plans_render_each_row_once(self, corpus, rendered):
        lg = _compress(corpus)
        commands = [BROAD, f"{BROAD} and 16", "state", "state or ERROR"]
        results = lg.grep_many(commands)
        for command, result in zip(commands, results):
            assert result.lines == grep_lines(command, corpus)
        shown = set().union(*(result.line_ids for result in results))
        assert rendered["rows"] == len(shown)


class TestConcurrentSession:
    @pytest.mark.parametrize("trial", range(3))
    def test_racing_greps_over_one_pinned_session(self, corpus, rendered, trial):
        lg = _compress(corpus, query_parallelism=4)
        commands = [
            BROAD,
            f"{BROAD} and 16",
            "state",
            "state or ERROR",
            "ERROR and code=3",
            "read",
            "T1",
            "bk not ERR",
        ]
        want = {command: grep_lines(command, corpus) for command in commands}
        threads = 8
        start = threading.Barrier(threads)
        errors = []
        wrong = []

        def run(i):
            try:
                start.wait(timeout=60)
                for step in range(len(commands)):
                    command = commands[(i + step) % len(commands)]
                    if session.grep(command).lines != want[command]:
                        wrong.append(command)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with lg.open_session() as session:
                workers = [
                    threading.Thread(target=run, args=(i,))
                    for i in range(threads)
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=120)
                assert not any(worker.is_alive() for worker in workers)
                assert errors == [] and wrong == []
                # No rendered row was lost in the race: every row is
                # published, so the same greps render nothing again.
                rendered["rows"] = 0
                for command in commands:
                    assert session.grep(command).lines == want[command]
                assert rendered["rows"] == 0
        finally:
            sys.setswitchinterval(interval)


KEYWORDS = [
    "ERR", "SUC", "state", "bk", "ERROR", "read", "T10", "16", "code=3",
    "admin/1", "corrupt", "#1605", "failed", "zzz_absent",
]

step = st.tuples(st.sampled_from(["and", "not", "or"]), st.sampled_from(KEYWORDS))


class TestRefiningProperty:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        first=st.sampled_from(KEYWORDS),
        steps=st.lists(step, min_size=1, max_size=5),
    )
    def test_every_step_equals_grep_over_raw_lines(
        self, refining_lg, corpus, first, steps
    ):
        command = first
        with refining_lg.open_session() as session:
            for op, keyword in [("", first)] + steps:
                if op:
                    command = f"{command} {op} {keyword}"
                result = session.grep(command)
                assert result.lines == grep_lines(command, corpus), command
                # Revisit the first step: rows of every later step may
                # have joined the box's rendered rows since.
                assert session.grep(first).lines == grep_lines(first, corpus)


@pytest.fixture(scope="module")
def refining_lg(corpus):
    return _compress(corpus)
