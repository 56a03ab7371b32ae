"""Static-pattern templates.

A template is the compile-time skeleton of a log statement: the constant
tokens the developer wrote plus slots for the variables (``printf("write to
file:%s", path)`` → ``["write", "to", "file:<*>"]``).  The paper calls these
*static patterns* (§1, §2.1).

Tokens are space-delimited (see :mod:`repro.common.tokenizer`); a token is
either a constant string or a variable slot.  Rendering a template with the
slot values reproduces the original line byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..common.tokenizer import join_tokens

#: Marker used in serialized/display forms for a variable slot.
VAR_MARK = "<*>"


@dataclass
class Template:
    """A static pattern: constant tokens plus variable slots.

    ``tokens[i] is None`` marks a variable slot; otherwise it is the constant
    token text.  ``var_positions`` caches the slot token indices in order, so
    ``values[k]`` fills ``tokens[var_positions[k]]``.
    """

    template_id: int
    tokens: List[Optional[str]]
    var_positions: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.var_positions:
            self.var_positions = [
                i for i, tok in enumerate(self.tokens) if tok is None
            ]

    @property
    def num_tokens(self) -> int:
        return len(self.tokens)

    @property
    def num_variables(self) -> int:
        return len(self.var_positions)

    @property
    def constant_tokens(self) -> List[str]:
        return [tok for tok in self.tokens if tok is not None]

    def display(self) -> str:
        """Human-readable form with ``<*>`` at variable slots."""
        return join_tokens(
            [tok if tok is not None else VAR_MARK for tok in self.tokens]
        )

    def matches(self, tokens: Sequence[str]) -> bool:
        """True when *tokens* fits this template (constants agree)."""
        if len(tokens) != len(self.tokens):
            return False
        for mine, theirs in zip(self.tokens, tokens):
            if mine is not None and mine != theirs:
                return False
        return True

    def extract(self, tokens: Sequence[str]) -> List[str]:
        """Return the variable values of a matching token list."""
        return [tokens[i] for i in self.var_positions]

    def render(self, values: Sequence[str]) -> str:
        """Rebuild the original line from variable *values*."""
        if len(values) != len(self.var_positions):
            raise ValueError(
                f"template {self.template_id} expects {len(self.var_positions)} "
                f"values, got {len(values)}"
            )
        out = list(self.tokens)
        for value, pos in zip(values, self.var_positions):
            out[pos] = value
        return join_tokens(out)  # type: ignore[arg-type]
