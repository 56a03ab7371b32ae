"""The documented config surface equals the coded one.

A knob deleted from code but not from docs/API.md (or added without a doc
row) fails here, so the two cannot drift.
"""

import dataclasses
import pathlib
import re

from repro.core.config import LogGrepConfig

REPO = pathlib.Path(__file__).resolve().parent.parent
API = (REPO / "docs" / "API.md").read_text(encoding="utf-8")


def _section(title):
    """The text of one ``### title`` section of docs/API.md."""
    body = API.split(f"### {title}\n", 1)[1]
    return re.split(r"^#{2,3} ", body, maxsplit=1, flags=re.M)[0]


def _first_column(section):
    return set(re.findall(r"^\| `([^`]+)` \|", section, flags=re.M))


def test_config_fields_match_docs():
    coded = {field.name for field in dataclasses.fields(LogGrepConfig)}
    assert _first_column(_section("`LogGrepConfig` fields")) == coded


def test_env_vars_match_docs():
    read = set()
    for path in (REPO / "src").rglob("*.py"):
        read.update(re.findall(r"LOGGREP_[A-Z_]+", path.read_text(encoding="utf-8")))
    assert _first_column(_section("Environment variables")) == read
