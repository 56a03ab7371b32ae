"""Cross-block template warm-start cache.

Consecutive blocks of one log stream come from the same set of logging
statements, so their static patterns are overwhelmingly shared (§3.1).
Mining them afresh for every block — the behaviour of the plain
:class:`~repro.staticparse.parser.BlockParser` — therefore repeats the
most expensive part of parsing.  CLP and LogZip both amortize template
discovery across the stream; :class:`TemplateCache` brings the same
amortization here: the parser first assigns lines against the cached
templates and only falls back to sample-mining for lines no cached
template matches (see ``BlockParser.parse_cached``).

Determinism contract: the cache is insertion-ordered and is only mutated
from the compression scheduler's ordered parse stage, so the snapshot a
block parses against is a pure function of the blocks submitted before
it — never of worker count or scheduling.  All methods are thread-safe
regardless, because readers (metrics scrapes, diagnostics) may run on
other threads.

Cache behaviour is exported through the process metrics registry:
``loggrep_template_cache_hits_total`` / ``misses_total`` count lines
assigned to a cached template vs. lines that fell through to fallback
mining; ``loggrep_template_cache_remines_total`` counts blocks fully
re-mined by the drift guard; ``loggrep_template_cache_templates`` gauges
the current cache size.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Tuple

from ..obs.metrics import get_registry
from .template import Template

#: Canonical form of a template: its token tuple, ``None`` marking a
#: variable slot.  Hashable, so the cache dedupes on it.
TemplateKey = Tuple[Optional[str], ...]

_HITS = get_registry().counter(
    "loggrep_template_cache_hits_total",
    "Lines assigned to a warm cached template during parsing",
)
_MISSES = get_registry().counter(
    "loggrep_template_cache_misses_total",
    "Lines no cached template matched (fallback-mined)",
)
_REMINES = get_registry().counter(
    "loggrep_template_cache_remines_total",
    "Blocks fully re-mined because the drift guard tripped",
)
_SIZE = get_registry().gauge(
    "loggrep_template_cache_templates", "Templates currently cached"
)


def template_key(template: Template) -> TemplateKey:
    """The canonical cache key of *template*."""
    return tuple(template.tokens)


class TemplateCache:
    """Insertion-ordered, deduplicated set of known static patterns."""

    def __init__(self) -> None:
        # dict preserves insertion order; values are unused.
        self._keys: Dict[TemplateKey, None] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def snapshot(self) -> List[TemplateKey]:
        """The cached templates, oldest first (deterministic order)."""
        with self._lock:
            return list(self._keys)

    def templates(self) -> List[Template]:
        """The cached patterns as templates, ids in snapshot order."""
        return [Template(i, list(key)) for i, key in enumerate(self.snapshot())]

    def merge(self, keys: Iterable[TemplateKey]) -> int:
        """Add new templates; returns how many were actually new.

        All-variable (catch-all) templates are rejected: cached, they
        would absorb every same-width line of later blocks and starve
        the miner of real patterns.
        """
        added = 0
        with self._lock:
            for key in keys:
                if key in self._keys:
                    continue
                if all(token is None for token in key):
                    continue
                self._keys[key] = None
                added += 1
            _SIZE.set(len(self._keys))
        return added

    def clear(self) -> None:
        with self._lock:
            self._keys.clear()
            _SIZE.set(0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._keys)

    def __contains__(self, key: TemplateKey) -> bool:
        with self._lock:
            return key in self._keys

    # ------------------------------------------------------------------
    @staticmethod
    def record(hits: int, misses: int, remined: bool) -> None:
        """Publish one block's warm-start outcome to the registry."""
        if hits:
            _HITS.inc(hits)
        if misses:
            _MISSES.inc(misses)
        if remined:
            _REMINES.inc()
