"""The documented config surface equals the coded one.

A knob or CLI flag deleted from code but not from docs/API.md (or added
without a doc entry) fails here, so the two cannot drift.
"""

import argparse
import dataclasses
import pathlib
import re

import pytest

from repro.cli import _build_parser
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


def _subcommands(parser, prefix="loggrep"):
    """``(command path, parser)`` for every leaf subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _subcommands(sub, f"{prefix} {name}")
            return
    yield prefix, parser


def _synopsis(command):
    """The ``## Command line`` lines of *command*, continuations joined."""
    block = API.split("## Command line\n", 1)[1].split("```")[1]
    entries = re.split(r"\n(?=loggrep )", block.strip())
    return " ".join(
        entry for entry in entries if re.match(re.escape(command) + r"\b", entry)
    )


@pytest.mark.parametrize(
    "command, parser",
    [pytest.param(*entry, id=entry[0]) for entry in _subcommands(_build_parser())],
)
def test_cli_options_match_docs(command, parser):
    synopsis = _synopsis(command)
    assert synopsis, f"{command} has no line under ## Command line"
    missing = [
        "/".join(action.option_strings)
        for action in parser._actions
        if action.option_strings
        and not isinstance(action, argparse._HelpAction)
        and not any(
            re.search(rf"(?<![\w-]){re.escape(spelling)}(?![\w-])", synopsis)
            for spelling in action.option_strings
        )
    ]
    assert not missing, f"{command}: {missing} missing from docs/API.md"
