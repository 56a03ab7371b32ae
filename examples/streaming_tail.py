"""The hot tail under commits: tail counts and greps while blocks seal,
commit and bump the archive generation.

A ``StreamingCompressor`` makes every appended line queryable at once
through ``open_reader(tail=True)``, and all of a stream's readers share
one Query Cache.  At 8 KiB blocks a block seals every ~90 Log A lines,
so commits — each one bumps the generation and drops every cached entry
— interleave with the tail queries.  The run also flushes mid-stream
and then appends a second stream onto the same archive, whose block ids
continue after the first stream's.  Every count and grep is checked
against grep over the raw lines appended so far.

Run with::

    python examples/streaming_tail.py
    LOGGREP_COMPRESS_PARALLELISM=4 python examples/streaming_tail.py

By default the stream seals each block on the appending thread; with a
parallelism of 2 or more it encodes on a worker pool, so the counts also
span pending blocks' in-memory boxes.

It exits non-zero if any answer differs from the raw-line grep.
"""

import sys
import tempfile

from repro import LogGrepConfig, StreamingCompressor
from repro.baselines.evalutil import grep_lines
from repro.blockstore.store import ArchiveStore
from repro.query.cache import load_generation
from repro.workloads import spec_by_name

QUERIES = [
    "ERROR",
    "state:REQ_ST_CLOSED and code:20012",
    "accept conn NOT reqId:CFF6",
]
#: Lines between two rounds of tail queries: under a block's ~90, so
#: most rounds see the buffer grown in place and some see it sealed.
EVERY = 40


def check_stream(stream, appended, lines, wrong):
    """Append *lines* to *stream*, querying the tail every EVERY lines;
    returns how many answers were checked."""
    checked = 0
    for i, line in enumerate(lines, 1):
        stream.append(line)
        appended.append(line)
        if i == len(lines) // 2:
            stream.flush()  # seals the partial block early
        if i % EVERY and i != len(lines):
            continue
        for command in QUERIES:
            expected = grep_lines(command, appended)
            # A new reader per query, as a dashboard polling the tail
            # would open: they all share the stream's Query Cache.
            reader = stream.open_reader(tail=True)
            count = reader.count(command)
            result = reader.grep(command)
            checked += 2
            if count != len(expected) or result.lines != expected:
                wrong.append(
                    f"{command!r} after {len(appended)} lines: count {count}, "
                    f"grep {result.count}, raw grep {len(expected)}"
                )
    return checked


def main() -> int:
    lines = spec_by_name("Log A").generate(2000)
    config = LogGrepConfig(block_bytes=8 * 1024)
    wrong = []
    appended = []
    with tempfile.TemporaryDirectory() as path:
        store = ArchiveStore(path)
        first, second = lines[:1200], lines[1200:]
        with StreamingCompressor(store=store, config=config) as stream:
            checked = check_stream(stream, appended, first, wrong)
            cache = stream.open_reader().fragments
            print(
                f"stream 1: {len(first)} lines, {stream.blocks} blocks, "
                f"{checked} tail answers checked, shared Query Cache "
                f"{cache.hits} hits / {cache.misses} misses"
            )
        with StreamingCompressor(store=store, config=config) as stream:
            checked = check_stream(stream, appended, second, wrong)
            print(
                f"stream 2 (appended): {len(second)} lines, {stream.blocks} "
                f"blocks, {checked} tail answers checked"
            )
            sealed = stream.open_reader()
        print(f"archive generation after both streams: {load_generation(store)}")
        for command in QUERIES:
            result = sealed.grep(command)
            if result.lines != grep_lines(command, lines):
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
