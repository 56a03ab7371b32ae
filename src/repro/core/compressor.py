"""The compression pipeline (paper §3, Fig 2).

Parser → Extractor → Assembler → Packer: a raw log block is parsed into
groups of variable vectors using static patterns mined on a 5% sample;
each vector is classified and encapsulated (runtime-pattern extraction
happens inside the Assembler per vector kind); the resulting Capsules and
all metadata are packed into a CapsuleBox.

The pipeline is split at the parse/encode boundary so the compression
scheduler (:mod:`repro.core.schedule`) can keep :func:`parse_block`
ordered — it mutates the cross-block template warm-start cache — while
fanning the pure, CPU-bound :func:`encode_parsed` stage out to worker
threads or processes.  :func:`compress_block` composes the two stages
serially and is the single-block entry point everything else (profiler,
cluster nodes, tests) keeps using.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..blockstore.block import LogBlock
from ..capsule.assembler import encode_vector
from ..capsule.box import CapsuleBox, GroupBox
from ..common.bloom import BloomFilter, trigrams
from ..obs.trace import Span, get_tracer
from ..runtime.classify import VectorKind, classify
from ..staticparse.cache import TemplateCache
from ..staticparse.parser import BlockParser, ParsedBlock, ParseOutcome
from .config import LogGrepConfig


def parse_block(
    block: LogBlock,
    config: LogGrepConfig,
    cache: Optional[TemplateCache] = None,
) -> Tuple[ParsedBlock, Optional[ParseOutcome]]:
    """Parse one block into groups (the ordered stage of compression).

    With a :class:`TemplateCache`, lines are assigned against templates
    mined from earlier blocks first (``parse_cached`` — warm start, drift
    guard, cache merge); without one, every block is sample-mined afresh.
    Mutates the cache, so the scheduler calls this in block order.
    """
    tracer = get_tracer()
    with tracer.span("parse") as pspan:
        parser = BlockParser(
            sample_rate=config.sample_rate,
            similarity=config.similarity,
            seed=config.seed ^ block.block_id,
        )
        outcome: Optional[ParseOutcome] = None
        if cache is not None:
            parsed, outcome = parser.parse_cached(block.lines, cache)
        else:
            parsed = parser.parse(block.lines)
        pspan.set("groups", len(parsed.groups))
    return parsed, outcome


def encode_parsed(
    block: LogBlock,
    parsed: ParsedBlock,
    config: LogGrepConfig,
    parent: Optional[Span] = None,
) -> CapsuleBox:
    """Classify, encapsulate and pack a parsed block (the pure stage).

    A pure function of ``(block, parsed, config)`` — no shared state —
    so the scheduler may run it on any worker thread or process and the
    output bytes stay independent of scheduling.  ``parent`` attaches
    the stage spans to the right node when running off the main thread.
    """
    tracer = get_tracer()
    with tracer.span("classify", parent=parent):
        kinds = [
            [
                classify(vector, config.duplication_threshold)
                for vector in group.variable_vectors
            ]
            for group in parsed.groups
        ]

    groups = []
    for group_idx, group in enumerate(parsed.groups):
        vectors = []
        for var_idx, vector in enumerate(group.variable_vectors):
            # A distinct deterministic seed per vector keeps delimiter
            # probing independent across vectors but reproducible.
            seed = _vector_seed(config.seed, block.block_id, group_idx, var_idx)
            options = config.encoding_options(seed)
            kind = kinds[group_idx][var_idx]
            uses_patterns = (
                kind is VectorKind.REAL and options.use_real_patterns
            ) or (kind is VectorKind.NOMINAL and options.use_nominal_patterns)
            bucket = kind.value if uses_patterns else "plain"
            with tracer.span(
                "encode",
                parent=parent,
                kind=kind.value,
                bucket=bucket,
                values=len(vector),
            ):
                vectors.append(encode_vector(vector, options, kind=kind))
        groups.append(GroupBox(group.template, group.line_ids, vectors))

    bloom = None
    if config.use_block_bloom:
        with tracer.span("bloom", parent=parent):
            grams = set()
            for line in block.lines:
                grams.update(trigrams(line))
            bloom = BloomFilter.build(grams, config.bloom_bits_per_trigram)

    return CapsuleBox(
        block_id=block.block_id,
        first_line_id=block.first_line_id,
        num_lines=block.num_lines,
        padded=config.use_padding,
        groups=groups,
        bloom=bloom,
    )


def compress_block(block: LogBlock, config: Optional[LogGrepConfig] = None) -> CapsuleBox:
    """Compress one log block into a CapsuleBox (serial parse + encode).

    When tracing is enabled, the Fig 2 stages appear as spans: ``parse``,
    ``classify``, then one ``encode`` span per variable vector carrying its
    kind and whether runtime patterns were used (the ``bucket`` attribute:
    real / nominal / plain).
    """
    config = config or LogGrepConfig()
    parsed, _ = parse_block(block, config)
    return encode_parsed(block, parsed, config)


def _vector_seed(seed: int, block_id: int, group_idx: int, var_idx: int) -> int:
    return (seed * 1_000_003 + block_id * 7919 + group_idx * 101 + var_idx) & 0x7FFFFFFF
