"""Shared fixtures and generation helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.common.timeparse import time_range
from repro.core.config import LogGrepConfig
from repro.staticparse import BlockParser


def parsed_time_range(lines, seed: int = 0):
    """The time range of a block of *lines* as a commit takes it: from
    the groups of their parse."""
    parsed = BlockParser(seed=seed).parse(lines)
    return time_range(
        (g.template.tokens, g.num_entries, g.variable_vectors.__getitem__)
        for g in parsed.groups
    )


def make_mixed_lines(n: int = 600, seed: int = 42) -> list:
    """A small log mixing the structures LogGrep cares about:

    * a real-vector template (hex ids with a shared infix),
    * a nominal-vector template (enum states with codes),
    * a path template with a common root,
    * occasional irregular lines (outlier material).
    """
    rng = random.Random(seed)
    lines = []
    for i in range(n):
        r = rng.random()
        if r < 0.4:
            lines.append(
                f"T{1000 + i} bk.{rng.randrange(256):02X}.{i % 20} read"
            )
        elif r < 0.8:
            state = rng.choice(["SUC", "SUC", "SUC", "ERR"])
            lines.append(f"T{1000 + i} state: {state}#16{rng.randrange(100):02d}")
        elif r < 0.95:
            lines.append(
                f"ERROR write to file: /root/usr/admin/{rng.randrange(50)}.log "
                f"failed code={rng.randrange(8)}"
            )
        else:
            lines.append(f"!!corrupt {rng.randrange(10**9)} @@{i}")
    return lines


@pytest.fixture
def mixed_lines():
    return make_mixed_lines()


@pytest.fixture
def small_config():
    """A config with small blocks so multi-block paths get exercised."""
    return LogGrepConfig(block_bytes=8 * 1024)
