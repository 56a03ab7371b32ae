"""The six workloads: fixed sizes, seeded inputs, and the raw-line oracle.

Every workload runs the same two timed phases — an *ingest phase* that
builds one archive per dataset, then a *query phase* over those archives
reopened from disk — so that each reports every end-to-end metric.  What
differs is the data (which layer dominates ingest), the query classes
(which layer dominates a query), the cache discipline, and how
``--seconds`` is split between the phases.

All sizes here are constants: nothing is scaled at run time except by the
test-only ``--scale`` flag.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.baselines.evalutil import line_matches
from repro.query.language import QueryCommand, parse_query
from repro.workloads import derived_queries, spec_by_name
from repro.workloads.queries import MISS_KEYWORD

#: Small blocks so that every ~1 MB archive spans several blocks and the
#: block-level paths (prune index, per-block open) carry weight.
BLOCK_BYTES = 128 * 1024
#: ingest-stream issues one tail count per this many appended lines.
TAIL_QUERY_EVERY = 1000
#: Chain visits per pass of query-refine, and the Zipf exponent of the
#: visit order.
REFINE_VISITS = 24
REFINE_ZIPF_S = 1.1
#: Independently seeded archives per dataset.  The template miner works
#: from a 5% sample of an archive's first block and later blocks inherit
#: its templates, so the cost of one archive swings by tens of percent
#: with the draw; a run sums over several draws to keep its totals steady
#: from seed to seed.
ARCHIVES_PER_SPEC = 3

#: Lines generated per dataset (split evenly over its archives): about
#: 1.2 MB of raw text each for the encode-heavy specs, 0.5 MB for the two
#: parse-heavy ones (their ingest runs ~10x slower per byte).
ENCODE_SPECS = {"Log A": 13000, "Log T": 19000, "Hdfs": 10000, "Log G": 10000}
PARSE_SPECS = {"Log K": 8000, "Healthapp": 6500}
STREAM_SPECS = {"Log A": 13000, "Hdfs": 10000}

NEEDLE_CLASSES = ("table1", "rare-id", "numeric", "miss")
BROAD_CLASSES = ("template-hit", "nominal", "wildcard", "negation")
#: The ingest workloads read their archives back with the needle classes:
#: a guard that an ingest-side gain is not paid for on the read path.  Their
#: latencies are closely spaced around the median; with every class in the
#: mix the median falls where neighbouring ops differ by 5-15% and jumps
#: by that much from seed to seed.
READBACK_CLASSES = NEEDLE_CLASSES


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    lines: Dict[str, int]
    #: Share of ``--seconds`` given to the ingest phase.
    ingest_share: float
    #: Query classes of the query phase; ``("refine",)`` builds chains.
    classes: Tuple[str, ...]
    #: ``bulk`` = LogGrep.compress; ``stream`` = StreamingCompressor.append
    #: with interleaved tail counts (which are then the query samples).
    ingest: str = "bulk"
    #: Warm = one refining session per pass, caches kept between ops.
    warm: bool = False


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "ingest-encode",
        "bulk compress of Log A/T/Hdfs/G: runtime extraction, capsule packing and lzma dominate, parsing is minor",
        ENCODE_SPECS, 0.55, READBACK_CLASSES,
    ),
    Workload(
        "ingest-parse",
        "bulk compress of Log K/Healthapp: template assignment dominates, runtime extraction is minor",
        PARSE_SPECS, 0.55, READBACK_CLASSES,
    ),
    Workload(
        "ingest-stream",
        "line-by-line append of Log A/Hdfs with a tail count every 1000 lines: reads contend with writes",
        STREAM_SPECS, 1.0, (), ingest="stream",
    ),
    Workload(
        "query-needle",
        "cold few-hit queries (Table-1, rare-id, numeric, miss): plan, prune, box open and locate dominate",
        ENCODE_SPECS, 0.5, NEEDLE_CLASSES,
    ),
    Workload(
        "query-broad",
        "cold many-hit queries (template-hit, nominal, wildcard, negation): match, rowsets and reconstruct dominate",
        ENCODE_SPECS, 0.5, BROAD_CLASSES,
    ),
    Workload(
        "query-refine",
        "refining sessions: each step adds a term to the last, chains revisited in Zipf order with caches warm",
        ENCODE_SPECS, 0.5, ("refine",), warm=True,
    ),
)


def workload_by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(f"unknown workload {name!r}")


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
@dataclass
class Corpus:
    """One dataset's generated lines and the queries derived from them."""

    name: str
    query: str  # the dataset's Table-1 command
    lines: List[str]
    raw_bytes: int
    derived: Dict[str, str]  # query class -> command


@dataclass(frozen=True)
class Op:
    """One query operation: a command against one corpus' archive."""

    corpus: int
    label: str
    command: str


def make_corpora(workload: Workload, seed: int, scale: float = 1.0) -> List[Corpus]:
    corpora = []
    for name, count in workload.lines.items():
        for part in range(ARCHIVES_PER_SPEC):
            spec = dataclasses.replace(
                spec_by_name(name),
                size_factor=1.0,
                seed=seed * ARCHIVES_PER_SPEC + part,
            )
            lines = spec.generate(max(200, int(count * scale / ARCHIVES_PER_SPEC)))
            corpora.append(
                Corpus(
                    f"{name}#{part}",
                    spec.query,
                    lines,
                    sum(len(line) + 1 for line in lines),
                    {q.label: q.command for q in derived_queries(lines)},
                )
            )
    return corpora


def refine_chain(corpus: Corpus) -> List[str]:
    """Refinement steps ending at (or past) the Table-1 query: each step
    is the previous one plus a term; short chains are extended with
    exclusions so that every chain has at least four steps."""
    terms = corpus.query.split(" and ")
    steps = [" and ".join(terms[: i + 1]) for i in range(len(terms))]
    extras = [corpus.derived.get("nominal"), MISS_KEYWORD]
    for extra in extras:
        if len(steps) >= 4:
            break
        if extra:
            steps.append(f"{steps[-1]} not {extra}")
    return steps


def zipf_visits(chains: int, rng: random.Random) -> List[int]:
    """REFINE_VISITS chain indices: the number of visits per popularity
    rank is fixed (Zipf weights, largest remainders), so every pass has
    the same count of first visits and revisits; *rng* only decides which
    chain holds which rank and the order of the visits."""
    weights = [1.0 / (rank + 1) ** REFINE_ZIPF_S for rank in range(chains)]
    shares = [REFINE_VISITS * w / sum(weights) for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(chains), key=lambda r: shares[r] - counts[r], reverse=True)
    for rank in by_remainder[: REFINE_VISITS - sum(counts)]:
        counts[rank] += 1
    holders = list(range(chains))
    rng.shuffle(holders)
    visits = [holders[rank] for rank, count in enumerate(counts) for _ in range(count)]
    rng.shuffle(visits)
    return visits


def make_ops(
    workload: Workload, corpora: Sequence[Corpus], seed: int, pass_number: int = 0
) -> List[Op]:
    """One pass of the query phase, in execution order.

    Cold workloads repeat one shuffled list.  query-refine draws a new
    popularity order for every pass (each pass is a new debugging
    session), so a run averages over which dataset is the popular one.
    """
    if workload.classes == ("refine",):
        rng = random.Random(seed * 1_000_003 + pass_number)
        chains = [refine_chain(corpus) for corpus in corpora]
        return [
            Op(index, f"refine-{step}", command)
            for index in zipf_visits(len(chains), rng)
            for step, command in enumerate(chains[index])
        ]
    ops = []
    for index, corpus in enumerate(corpora):
        for label in workload.classes:
            command = corpus.query if label == "table1" else corpus.derived.get(label)
            if command:
                ops.append(Op(index, label, command))
    random.Random(seed).shuffle(ops)
    return ops


# ----------------------------------------------------------------------
# oracle: grep over the raw generated lines
# ----------------------------------------------------------------------
def _required_texts(command: QueryCommand) -> List[List[str]]:
    """Per disjunct, literal keywords every matching line must contain.

    A keyword matches inside one token, so its text is a substring of the
    line; lines lacking a required text of every disjunct are skipped
    before the (much slower) reference evaluator runs.
    """
    return [
        [
            keyword.text
            for term in disjunct
            if not term.negated
            for keyword in term.search.keywords
            if not keyword.needs_regex
        ]
        for disjunct in command.disjuncts
    ]


def oracle_ids(command_text: str, lines: Sequence[str]) -> List[int]:
    """Indices of the lines ``line_matches`` accepts for *command_text*."""
    command = parse_query(command_text)
    required = _required_texts(command)
    return [
        i
        for i, line in enumerate(lines)
        if any(all(text in line for text in texts) for texts in required)
        and line_matches(command, line)
    ]
