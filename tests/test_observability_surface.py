"""The documented observability surface equals the coded one.

Every metric registered and every span opened under ``src/repro/`` is
spelled out in docs/OBSERVABILITY.md, and every metric or span that doc
names exists in code — so a counter or span renamed or deleted in code
but not in the doc (or added without a doc row) fails here.
"""

import dataclasses
import pathlib
import re
from collections import Counter

from repro.query import stats as stats_module
from repro.query.stats import QueryStats

REPO = pathlib.Path(__file__).resolve().parent.parent
DOC = (REPO / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
SOURCES = [
    path.read_text(encoding="utf-8")
    for path in (REPO / "src" / "repro").rglob("*.py")
]

#: A ``{placeholder}`` in an f-string name and a ``<placeholder>`` in the
#: doc both normalize to this, so a name family compares as one entry.
_ANY = "<*>"


def _coded(pattern):
    names = set()
    for text in SOURCES:
        names.update(re.findall(pattern, text))
    return {re.sub(r"\{[^}]*\}", _ANY, name) for name in names}


def _family_regex(name):
    """A normalized name as a regex matching each of its expansions."""
    return re.compile(
        "".join(
            "[a-z_]+" if part == _ANY else re.escape(part)
            for part in re.split(r"(<\*>)", name)
        )
    )


METRIC_SITE = r'\.(?:counter|gauge|histogram)\(\s*f?"(loggrep_[^"]+)"'
CODED_METRICS = _coded(METRIC_SITE)
CODED_SPANS = _coded(r'\.span\(\s*f?"([^"]+)"')


def _documented_metrics():
    tokens = re.findall(r"loggrep_[a-z0-9_]+(?:<[a-z_]+>[a-z0-9_]*)?", DOC)
    return {re.sub(r"<[^>]*>", _ANY, token) for token in tokens}


def _documented_spans():
    """First-column names of the code blocks in the Span taxonomy
    section (``a → b`` chains count each name)."""
    section = DOC.split("### Span taxonomy\n", 1)[1].split("\n## ", 1)[0]
    names = set()
    for block in re.findall(r"```\n(.*?)```", section, flags=re.S):
        for line in block.splitlines():
            entry = re.match(r" {0,10}([\w.]+(?:\s*→\s*[\w.]+)*)(?:\s{2,}|$)", line)
            if entry:
                names.update(re.split(r"\s*→\s*", entry.group(1)))
    return names


def _uncovered(names, against):
    """Members of *names* neither in *against* nor an expansion of one of
    its families."""
    families = [_family_regex(n) for n in against if _ANY in n]
    return {
        name
        for name in names
        if name not in against
        and not any(f.fullmatch(name) for f in families)
    }


def test_metric_names_found():
    assert len(CODED_METRICS) > 50
    assert f"loggrep_query_{_ANY}_total" in CODED_METRICS


def test_every_metric_has_one_registration_site():
    """Get-or-create keeps whichever registration imports first, so a
    second site with other help text would silently lose — and a second
    site that increments it too counts every event twice.  The
    ``loggrep_query_{field}_total`` family is expanded over the
    QueryStats fields it registers."""
    sites = Counter(
        name for text in SOURCES for name in re.findall(METRIC_SITE, text)
    )
    family = "loggrep_query_{name}_total"
    assert sites.pop(family) == 1
    sites.update(
        family.format(name=name) for name, _ in stats_module._FIELD_COUNTERS
    )
    assert {name for name, n in sites.items() if n > 1} == set()


def test_every_registered_metric_is_documented():
    documented = _documented_metrics()
    assert {n for n in CODED_METRICS if _ANY not in n} - documented == set()
    for family in (n for n in CODED_METRICS if _ANY in n):
        assert family in documented


def test_every_documented_metric_is_registered():
    expanded = CODED_METRICS | {
        f"loggrep_query_{spec.name}_total"
        for spec in dataclasses.fields(QueryStats)
    }
    assert _uncovered(_documented_metrics(), expanded) == set()


def test_every_span_is_documented():
    documented = _documented_spans()
    assert {n for n in CODED_SPANS if _ANY not in n} - documented == set()
    for family in (n for n in CODED_SPANS if _ANY in n):
        assert any(_family_regex(family).fullmatch(n) for n in documented), family


def test_every_documented_span_is_opened():
    assert _uncovered(_documented_spans(), CODED_SPANS) == set()
