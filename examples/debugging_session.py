"""Refining mode: an engineer narrowing down an incident, step by step.

The paper's Query Cache (§3, Fig 9 'w/o cache') exists exactly for this
workflow — each refinement reuses the located rows of the search strings
it shares with earlier commands.  A later AND term is matched only on
the rows the earlier ones left, so the cache holds some terms for part
of a block; the session is walked forward and then revisited in reverse
order, and every step is checked against grep over the raw lines.

A pinned box keeps the rows it has rendered, so the example ends with a
forward revisit of the whole session inside the session that walked it:
every revisited step must inflate no Capsule and decode no value.

Run with::

    python examples/debugging_session.py

It exits non-zero if any step's answer differs from the raw-line grep,
or if a step of the final revisit inflates a Capsule or decodes a value.
"""

import sys

from repro import LogGrep, LogGrepConfig, ablated
from repro.baselines.evalutil import grep_lines
from repro.workloads import spec_by_name


SESSION = [
    # Step 1: something is wrong — look at errors.
    "ERROR",
    # Step 2: it's about closed requests.
    "ERROR and state:REQ_ST_CLOSED",
    # Step 3: a specific error code turns up repeatedly.
    "ERROR and state:REQ_ST_CLOSED and 20012",
    # Step 4: pin down the offending request id.
    "ERROR and state:REQ_ST_CLOSED and 20012 and reqId:5E9D21AD5E473938",
]


def run_session(lg: LogGrep, lines, label: str, steps=SESSION):
    """Run *steps* in one session; returns (seconds, mismatching steps)."""
    total = 0.0
    wrong = []
    print(f"--- {label} ---")
    with lg.open_session() as session:
        for command in steps:
            result = session.grep(command)
            total += result.elapsed
            ok = result.lines == grep_lines(command, lines)
            if not ok:
                wrong.append(command)
            print(
                f"  {command[:60]:60s} {result.count:5d} hits  "
                f"{result.elapsed * 1000:7.1f} ms  "
                f"(cache hits: {result.stats.cache_hits})"
                f"{'' if ok else '  MISMATCH'}"
            )
    print(f"  session total: {total * 1000:.1f} ms\n")
    return total, wrong


def revisit_session(lg: LogGrep, lines, steps=SESSION):
    """Walk *steps* forward, then again in the same session under
    EXPLAIN ANALYZE; returns the revisited steps that read anything
    back: a wrong answer, an inflated Capsule or a decoded value."""
    costly = []
    print("--- the session walked, then revisited forward in one session ---")
    with lg.open_session() as session:
        for command in steps:
            session.grep(command)
        for command in steps:
            result = lg.explain_analyze(command)
            inflated = result.ledger.totals().capsules_decompressed
            decoded = result.ledger.decoded_values
            ok = result.lines == grep_lines(command, lines)
            if not ok or inflated or decoded:
                costly.append(command)
            print(
                f"  {command[:60]:60s} {result.count:5d} hits  "
                f"inflated {inflated}  decoded {decoded}"
                f"{'' if ok else '  MISMATCH'}"
            )
    return costly


def main() -> int:
    spec = spec_by_name("Log A")
    lines = spec.generate(20000)

    cached = LogGrep(config=LogGrepConfig(block_bytes=1 << 20))
    cached.compress(lines)
    uncached = LogGrep(config=ablated("w/o cache", LogGrepConfig(block_bytes=1 << 20)))
    uncached.compress(lines)

    with_cache, wrong = run_session(cached, lines, "refining session WITH Query Cache")
    without, more = run_session(
        uncached, lines, "refining session WITHOUT Query Cache (w/o cache ablation)"
    )
    wrong += more
    # The same terms again, now at other accumulators: the cache holds
    # some of them for part of a block only.
    _, more = run_session(
        cached, lines, "the session revisited in reverse, cache warm", SESSION[::-1]
    )
    wrong += more
    print(
        f"Query Cache speedup over the session: {without / with_cache:.2f}x "
        "(paper §6.3: 2.08x)"
    )

    # The final answer an engineer would act on:
    final = cached.grep(SESSION[-1])
    print("\nIncident lines:")
    for line in final.lines[:3]:
        print(f"  {line}")

    print()
    costly = revisit_session(cached, lines)
    if wrong:
        print(f"\n{len(wrong)} step(s) differ from grep over the raw lines:")
        for command in wrong:
            print(f"  {command}")
    if costly:
        print(
            f"\n{len(costly)} revisited step(s) read something back "
            "(a wrong answer, an inflated Capsule or a decoded value):"
        )
        for command in costly:
            print(f"  {command}")
    return 1 if wrong or costly else 0


if __name__ == "__main__":
    sys.exit(main())
