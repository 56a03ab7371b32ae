"""Lazy ranged I/O vs whole-blob reads on Table 1's queries.

Runs every dataset's evaluation query and compares the bytes it read off
the store with what whole-blob reads of the same blocks would cost:

* **lazy** — what the reader does: prune-index pruning (zero reads for
  pruned blocks), TOC-ranged box opens, capsule payloads fetched only
  when a plan touches them;
* **eager** — the pre-TOC cost model: every block the query opens is
  charged its whole stored size, ``Σ store.size(name)``.

Lazy I/O pays off in proportion to *storage-level* selectivity: the
payload share of the groups the query actually hits.  Single-template
datasets (e.g. Log G) are inherently non-selective — any hit forces the
whole group's columns for reconstruction, so bytes read stay near the
blob size in both modes.  The acceptance bar therefore applies to the
**selective** queries, defined a priori from the workload: hit groups
hold at most a quarter of the archive's payload bytes.  Those queries
must read ≤ 25 % of the eager bytes in aggregate, with identical
results everywhere.

The query is measured on its second execution (the paper's §3 refining
mode — repeated queries over the same archive), so the executor-level
match memo is warm.  Eager bytes are unaffected by the warm-up — a
whole-blob reader re-reads every block it opens — while the lazy reader
additionally skips re-fetching capsules whose match outcome is memoized.
"""

import time

from repro.baselines.evalutil import grep_lines
from repro.bench.report import format_table, print_banner
from repro.blockstore.store import MemoryStore
from repro.capsule.box import CapsuleBox, _capsules_of
from repro.core.config import LogGrepConfig
from repro.core.loggrep import LogGrep
from repro.obs import get_registry
from repro.workloads import all_specs

_READ_BYTES = get_registry().counter("loggrep_store_read_bytes_total")

#: A query is storage-selective when its hit groups hold at most this
#: payload share; the ≤ 25 % bytes-read bar applies to these queries.
SELECTIVE_SHARE = 0.25


class OpenedStore(MemoryStore):
    """A MemoryStore that remembers which blocks were range-read."""

    def __init__(self):
        super().__init__()
        self.opened = set()

    def get_range(self, name, offset, length):
        self.opened.add(name)
        return super().get_range(name, offset, length)


def _hit_group_share(lg, lines, hits):
    """Payload share of the groups holding at least one hit line."""
    total = matched = 0
    for name in lg.store.names():
        box = CapsuleBox.deserialize(lg.store.get(name))
        for group in box.groups:
            size = sum(
                capsule.compressed_bytes
                for vector in group.vectors
                for capsule in _capsules_of(vector)
            )
            total += size
            if any(
                lines[i] in hits for i in group.line_ids if i < len(lines)
            ):
                matched += size
    return matched / total if total else 1.0


def _measure(lg, query):
    """(lines, lazy bytes read, whole-blob bytes of the blocks opened, s)."""
    store = lg.store
    store.opened.clear()
    before = _READ_BYTES.value()
    start = time.perf_counter()
    lines = lg.grep(query).lines
    elapsed = time.perf_counter() - start
    lazy_bytes = _READ_BYTES.value() - before
    eager_bytes = sum(store.size(name) for name in store.opened)
    return lines, lazy_bytes, eager_bytes, elapsed


def test_lazy_vs_eager_bytes_read(benchmark, scale):
    specs = all_specs()
    corpora = {
        spec.name: spec.generate(max(scale * 2, 4000)) for spec in specs
    }
    systems = {}
    for spec in specs:
        lg = LogGrep(store=OpenedStore(), config=LogGrepConfig())
        lg.compress(corpora[spec.name])
        systems[spec.name] = lg

    def run_lazy():
        return {
            spec.name: systems[spec.name].grep(spec.query).lines
            for spec in specs
        }

    benchmark.pedantic(run_lazy, rounds=1, iterations=1)

    rows = []
    sel_lazy = sel_eager = all_lazy = all_eager = 0
    lazy_ms = 0.0
    for spec in specs:
        lg = systems[spec.name]
        lines = corpora[spec.name]
        expected = grep_lines(spec.query, lines)
        share = _hit_group_share(lg, lines, set(expected))
        lazy_lines, lazy_bytes, eager_bytes, lazy_s = _measure(lg, spec.query)
        assert lazy_lines == expected, spec.name
        assert eager_bytes > 0, spec.name
        selective = share <= SELECTIVE_SHARE
        all_lazy += lazy_bytes
        all_eager += eager_bytes
        lazy_ms += lazy_s * 1000
        if selective:
            sel_lazy += lazy_bytes
            sel_eager += eager_bytes
        rows.append(
            [
                spec.name,
                f"{share:.3f}",
                "yes" if selective else "no",
                str(lazy_bytes),
                str(eager_bytes),
                f"{lazy_bytes / eager_bytes:.3f}",
            ]
        )
    overall = all_lazy / all_eager
    selective_ratio = sel_lazy / sel_eager
    rows.append(
        ["ALL", "", "", str(all_lazy), str(all_eager), f"{overall:.3f}"]
    )
    rows.append(
        [
            "SELECTIVE",
            f"<= {SELECTIVE_SHARE}",
            "yes",
            str(sel_lazy),
            str(sel_eager),
            f"{selective_ratio:.3f}",
        ]
    )
    print_banner("Lazy vs eager I/O on Table 1 (bytes read per query)")
    print(
        format_table(
            ["dataset", "hit share", "selective", "lazy B", "eager B", "ratio"],
            rows,
        )
    )
    print(f"query wall time: {lazy_ms:.1f} ms over {len(specs)} queries")
    assert overall < 1.0, "lazy must never read more than eager overall"
    assert selective_ratio <= 0.25, (
        f"selective queries read {selective_ratio:.1%} of eager bytes"
    )
