"""Template assignment: which static pattern does a line belong to?

The rule (paper §3, "assign every line to a mined pattern"): among the
templates as wide as the line whose constants all agree with it, the one
with the most constants wins; ties go to the template added first.

:class:`TemplateMatcher` compiles that rule.  Templates are bucketed by
token count and kept sorted by constant count, descending and stable, so
the *first* template that matches is the arg-max — every later candidate
has no more constants, and among equals the earlier-added one comes
first.  Each candidate is probed with one ``operator.itemgetter`` call
over its constant positions and one compare against its constants, both
at C level; a line costs as many probes as there are more specific
templates of its width that do not match it.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .template import Template

#: ``(constant count, probe, expected, template)``: the template matches a
#: same-width token list exactly when ``probe(tokens) == expected``.
_Entry = Tuple[int, Callable[[Sequence[str]], Any], Any, Template]


def _compile(template: Template) -> _Entry:
    positions = [i for i, tok in enumerate(template.tokens) if tok is not None]
    constants = tuple(template.constant_tokens)
    if not positions:
        # All-variable: matches every line of its width.
        return 0, len, template.num_tokens, template
    if len(positions) == 1:
        # itemgetter(i) yields the bare token, not a 1-tuple.
        return 1, itemgetter(positions[0]), constants[0], template
    return len(positions), itemgetter(*positions), constants, template


class TemplateMatcher:
    """Most-constants-first, first-added-wins template lookup."""

    def __init__(self, templates: Iterable[Template] = ()):
        self._by_width: Dict[int, List[_Entry]] = {}
        for template in templates:
            self.add(template)

    def add(self, template: Template) -> None:
        """Register *template* behind every one at least as specific."""
        entry = _compile(template)
        bucket = self._by_width.setdefault(template.num_tokens, [])
        at = len(bucket)
        while at and bucket[at - 1][0] < entry[0]:
            at -= 1
        bucket.insert(at, entry)

    def match(self, tokens: Sequence[str]) -> Optional[Template]:
        """The most specific template that fits *tokens*, if any."""
        for _, probe, expected, template in self._by_width.get(len(tokens), ()):
            if probe(tokens) == expected:
                return template
        return None
