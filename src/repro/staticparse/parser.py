"""Block parser: raw lines → groups of variable vectors.

After templates are mined on a sample (:mod:`repro.staticparse.miner`), the
parser assigns *every* line of the block to a template and collects, per
template, the values of each variable slot into a **variable vector** — the
fine-grained partition the whole LogGrep design is built on (paper §2.2).
All variable vectors of the same static pattern form a **group**; a group
also remembers each entry's global line id so reconstruction can restore
the total order across groups (the paper merges on timestamps; line ids
give the identical order).

Lines that match no mined template are mined in a second pass, so parsing
always covers 100% of the block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, cast

from ..common.sampling import DEFAULT_SAMPLE_RATE, sample
from ..common.tokenizer import tokenize
from ..obs.trace import get_tracer
from .cache import TemplateCache, template_key
from .matcher import TemplateMatcher
from .miner import DEFAULT_SIMILARITY, TemplateMiner
from .template import Template

#: Default fraction of unmatched lines above which a warm-started parse
#: distrusts the cache and re-mines the whole block (drift guard).
DEFAULT_DRIFT_THRESHOLD = 0.3


@dataclass
class Group:
    """All entries of one static pattern within a block.

    ``variable_vectors[k][r]`` is the value of variable slot ``k`` in the
    group's ``r``-th entry; ``line_ids[r]`` is that entry's index within the
    block (0-based), which doubles as the logical timestamp.
    """

    template: Template
    line_ids: List[int]
    variable_vectors: List[List[str]]

    @property
    def num_entries(self) -> int:
        return len(self.line_ids)

    @classmethod
    def from_rows(
        cls, template: Template, line_ids: List[int], rows: Sequence[Sequence[str]]
    ) -> "Group":
        """Build a group column-wise: transpose the entries' token *rows*
        (at least one) once and keep the columns of the variable slots."""
        columns = list(zip(*rows))
        return cls(
            template, line_ids, [list(columns[p]) for p in template.var_positions]
        )

    def render_entry(self, row: int) -> str:
        """Rebuild the original text of the group's *row*-th entry."""
        values = [vector[row] for vector in self.variable_vectors]
        return self.template.render(values)


@dataclass
class ParsedBlock:
    """The result of parsing one log block."""

    templates: List[Template]
    groups: List[Group]
    num_lines: int

    def group_for(self, template_id: int) -> Group:
        for group in self.groups:
            if group.template.template_id == template_id:
                return group
        raise KeyError(f"no group for template {template_id}")


@dataclass
class ParseOutcome:
    """What the template warm-start contributed to one block's parse."""

    total_lines: int
    cache_hits: int  # lines assigned to a cached template
    cache_misses: int  # lines that fell through to fallback mining
    remined: bool  # drift guard tripped: the whole block was re-mined
    new_templates: int  # templates this block added to the cache

    @property
    def hit_rate(self) -> float:
        if not self.total_lines:
            return 0.0
        return self.cache_hits / self.total_lines


class BlockParser:
    """Two-pass parser: sample-mined templates, then full assignment."""

    def __init__(
        self,
        sample_rate: float = DEFAULT_SAMPLE_RATE,
        similarity: float = DEFAULT_SIMILARITY,
        seed: int = 0,
    ):
        self.sample_rate = sample_rate
        self.similarity = similarity
        self.seed = seed

    def _make_miner(self) -> TemplateMiner:
        return TemplateMiner(self.similarity)

    def parse(self, lines: Sequence[str]) -> ParsedBlock:
        """Parse every line of a block into groups."""
        return self._parse_tokens([tokenize(line) for line in lines])

    def _parse_tokens(self, token_lines: List[List[str]]) -> ParsedBlock:
        """Cold parse of an already tokenised block: mine a sample, assign
        every line, mine what the sample missed."""
        miner = self._make_miner()
        for tokens in sample(token_lines, self.sample_rate, self.seed):
            miner.observe(tokens)
        templates = miner.templates()
        matcher = TemplateMatcher(templates)
        assigned = list(map(matcher.match, token_lines))
        self._assign_rest(templates, matcher, token_lines, assigned)

        groups = _build_groups(assigned, token_lines)
        groups.sort(key=lambda group: group.template.template_id)
        return ParsedBlock(
            [group.template for group in groups], groups, len(token_lines)
        )

    def _assign_rest(
        self,
        templates: List[Template],
        matcher: TemplateMatcher,
        token_lines: List[List[str]],
        assigned: List[Optional[Template]],
    ) -> None:
        """Second pass: mine the lines *matcher* left unassigned (shapes
        the sample, or the cache, missed entirely) and assign them, so a
        parse always covers 100% of the block.  Extends *templates* and
        *matcher* and fills every gap in *assigned*."""
        unmatched = [i for i, template in enumerate(assigned) if template is None]
        if not unmatched:
            return
        extra_miner = self._make_miner()
        for line_id in unmatched:
            extra_miner.observe(token_lines[line_id])
        for template in extra_miner.templates(first_id=len(templates)):
            templates.append(template)
            matcher.add(template)
        for line_id in unmatched:
            tokens = token_lines[line_id]
            template = matcher.match(tokens)
            if template is None:
                # Last resort: an all-variable template of the right width
                # (never cached — see TemplateCache.merge).
                template = Template(len(templates), [None] * len(tokens))
                templates.append(template)
            assigned[line_id] = template

    def parse_cached(
        self,
        lines: Sequence[str],
        cache: TemplateCache,
        drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
    ) -> Tuple[ParsedBlock, ParseOutcome]:
        """Warm-started parse: assign against *cache*, mine only the rest.

        Lines are first matched against the cached templates (mined from
        earlier blocks of the stream); only lines no cached template
        matches are mined, exactly like :meth:`parse`'s second pass.  A
        drift guard distrusts the cache when the unmatched fraction
        exceeds *drift_threshold* and re-mines the whole block from
        scratch (log format changed, or the cache is cold).  Newly mined
        templates are merged back into the cache either way.  The block
        is tokenised once; the re-mine reuses the tokens.

        Determinism: the result depends only on *lines* and the cache
        contents — callers that mutate the cache in block order (the
        compression scheduler's ordered parse stage) get byte-identical
        archives for any worker count.
        """
        tracer = get_tracer()
        token_lines = [tokenize(line) for line in lines]
        total = len(token_lines)
        templates = cache.templates()
        cached = len(templates)
        matcher = TemplateMatcher(templates)
        with tracer.span("parse_cached", cached_templates=cached) as wspan:
            # A cold cache (the first block of every archive) matches
            # nothing: skip the probe pass.
            assigned: List[Optional[Template]] = (
                list(map(matcher.match, token_lines)) if cached else [None] * total
            )
            misses = assigned.count(None)
            hits = total - misses
            wspan.set("hits", hits).set("misses", misses)

        if total and misses / total > drift_threshold:
            # Drift guard: the cache no longer describes this stream (or
            # is cold) — fall back to a full sample-mined parse.
            with tracer.span("mine_fallback", lines=total, remine=True):
                parsed = self._parse_tokens(token_lines)
            added = cache.merge(template_key(t) for t in parsed.templates)
            cache.record(0, total, True)
            return parsed, ParseOutcome(total, 0, total, True, added)

        if misses:
            with tracer.span("mine_fallback", lines=misses, remine=False):
                self._assign_rest(templates, matcher, token_lines, assigned)

        # Renumber the used templates into block-local ids by order of
        # first appearance (cache ids are stream-global and unstable).
        groups = _build_groups(assigned, token_lines)
        for local_id, group in enumerate(groups):
            group.template = Template(local_id, list(group.template.tokens))
        added = cache.merge(template_key(t) for t in templates[cached:])
        cache.record(hits, misses, False)
        parsed = ParsedBlock([group.template for group in groups], groups, total)
        return parsed, ParseOutcome(total, hits, misses, False, added)


def _build_groups(
    assigned: Sequence[Optional[Template]], token_lines: Sequence[List[str]]
) -> List[Group]:
    """One group per template of the fully *assigned* block, in order of
    first appearance."""
    members: Dict[int, Tuple[Template, List[int]]] = {}
    for line_id, template in enumerate(cast(Sequence[Template], assigned)):
        entry = members.get(template.template_id)
        if entry is None:
            entry = members[template.template_id] = (template, [])
        entry[1].append(line_id)
    return [
        Group.from_rows(template, line_ids, [token_lines[i] for i in line_ids])
        for template, line_ids in members.values()
    ]
