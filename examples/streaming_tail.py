"""The hot tail under commits: tail counts and greps while blocks seal
and commit, and while a foreign demote rewrites the sealed blocks.

A ``StreamingCompressor`` makes every appended line queryable at once
through ``open_reader(tail=True)``, and all of a stream's readers share
one Query Cache.  Counts and greps scan the unsealed lines as text
(needles, a wildcard, an ``or`` and an ignore-case query); a
``count_by`` over the tail builds its boxes on demand and must equal the
same aggregate after the flush.  At 8 KiB blocks a block seals every ~90
Log A lines, so commits interleave with the tail queries.  A commit only
adds a block, so the cached entries of every other block survive it, and
the first count after it takes the new block from the box the stream
just built instead of opening it from the store.  Between two query
rounds a separate ``LifecycleManager`` demotes the sealed blocks to the
warm tier: that rewrite writes every sealed block under a new name and
deletes the old ones, and the readers serve the new names.  The run also flushes
mid-stream and then appends a second stream onto the same archive, whose
block ids continue after the first stream's.  Every count and grep is
checked against grep over the raw lines appended so far.

Run with::

    python examples/streaming_tail.py

The stream seals each block on the appending thread, so the tail is the
append buffer alone.

It exits non-zero if any answer differs from the raw-line grep.
"""

import sys
import tempfile

from repro import LogGrepConfig, StreamingCompressor
from repro.baselines.evalutil import grep_lines
from repro.blockstore.store import ArchiveStore
from repro.core.lifecycle import LifecycleManager, Tier
from repro.obs.metrics import get_registry
from repro.workloads import spec_by_name

#: (command, ignore_case) pairs.
QUERIES = [
    ("ERROR", False),
    ("state:REQ_ST_CLOSED and code:20012", False),
    ("accept conn NOT reqId:CFF6", False),
    ("st?te:REQ_ST_C* and code:200*", False),
    ("ERROR or state:REQ_ST_ABORT", False),
    ("error", True),
]
#: The field the tail aggregate counts by.
FIELD = "state"
#: Lines between two rounds of tail queries: under a block's ~90, so
#: most rounds see the buffer grown in place and some see it sealed.
EVERY = 40

#: Boxes the executor opened from the store.
OPENED = get_registry().counter("loggrep_batch_shared_block_loads_total")


def check_stream(stream, appended, lines, wrong, after_commit, demote_at=None):
    """Append *lines* to *stream*, querying the tail every EVERY lines;
    returns how many answers were checked.  The first count of a round
    that follows a commit is tallied in *after_commit* by whether it
    opened any block from the store.  Midway, a ``count_by`` over the
    tail is checked against the same aggregate after a flush.  After the
    round at *demote_at* lines, a separate lifecycle manager demotes the
    sealed blocks."""
    checked = 0
    committed = stream.blocks
    for i, line in enumerate(lines, 1):
        stream.append(line)
        appended.append(line)
        if i == len(lines) // 2:
            tail_counts = stream.open_reader(tail=True).count_by(FIELD)
            stream.flush()  # seals the partial block early
            sealed_counts = stream.open_reader().count_by(FIELD)
            checked += 1
            if not tail_counts or tail_counts != sealed_counts:
                wrong.append(
                    f"count_by({FIELD!r}) after {len(appended)} lines: tail "
                    f"{dict(tail_counts)}, after flush {dict(sealed_counts)}"
                )
        if i % EVERY and i != len(lines):
            continue
        for command, ignore_case in QUERIES:
            expected = grep_lines(command, appended, ignore_case)
            # A new reader per query, as a dashboard polling the tail
            # would open: they all share the stream's Query Cache.
            reader = stream.open_reader(tail=True)
            opened = OPENED.value()
            count = reader.count(command, ignore_case)
            if stream.blocks != committed:
                committed = stream.blocks
                after_commit["opened" if OPENED.value() > opened else "held"] += 1
            result = reader.grep(command, ignore_case)
            checked += 2
            if count != len(expected) or result.lines != expected:
                wrong.append(
                    f"{command!r} after {len(appended)} lines: count {count}, "
                    f"grep {result.count}, raw grep {len(expected)}"
                )
        if i == demote_at:
            report = LifecycleManager(stream.store, stream.config).demote(Tier.WARM)
            names = stream.store.names()
            print(
                f"foreign warm demote after {len(appended)} lines: "
                f"{report.blocks_after} blocks rewritten as {names[0]} .. "
                f"{names[-1]}"
            )
    return checked


def main() -> int:
    lines = spec_by_name("Log A").generate(2000)
    config = LogGrepConfig(block_bytes=8 * 1024)
    wrong = []
    appended = []
    after_commit = {"held": 0, "opened": 0}
    with tempfile.TemporaryDirectory() as path:
        store = ArchiveStore(path)
        first, second = lines[:1200], lines[1200:]
        with StreamingCompressor(store=store, config=config) as stream:
            checked = check_stream(
                stream, appended, first, wrong, after_commit, demote_at=800
            )
            cache = stream.open_reader().fragments
            print(
                f"stream 1: {len(first)} lines, {stream.blocks} blocks, "
                f"{checked} tail answers checked, shared Query Cache "
                f"{cache.hits} hits / {cache.misses} misses"
            )
        with StreamingCompressor(store=store, config=config) as stream:
            checked = check_stream(stream, appended, second, wrong, after_commit)
            print(
                f"stream 2 (appended): {len(second)} lines, {stream.blocks} "
                f"blocks, {checked} tail answers checked"
            )
            sealed = stream.open_reader()
        print(
            f"first count after a commit: {after_commit['held']} served the "
            f"new block from the stream's held box, {after_commit['opened']} "
            "opened blocks from the store"
        )
        for command, ignore_case in QUERIES:
            result = sealed.grep(command, ignore_case)
            if result.lines != grep_lines(command, lines, ignore_case):
                wrong.append(f"{command!r} over the sealed archive")
        if sealed.total_lines() != len(lines):
            wrong.append(f"total_lines {sealed.total_lines()} != {len(lines)}")

    if wrong:
        print(f"\n{len(wrong)} answer(s) differ from grep over the raw lines:")
        for problem in wrong:
            print(f"  {problem}")
        return 1
    print("every answer equals grep over the raw lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
