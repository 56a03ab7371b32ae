"""LogGrep reproduction (EuroSys '23).

Fast and cheap cloud log storage by exploiting both static and runtime
patterns: logs are parsed into variable vectors via static patterns,
decomposed into fine-grained Capsules via automatically extracted runtime
patterns, stamped with character-class/length summaries, and queried with
grep-like commands that avoid decompressing irrelevant Capsules.

Public entry points::

    from repro import LogGrep, LogGrepConfig

    lg = LogGrep()
    lg.compress(lines)
    result = lg.grep("ERROR AND dst:11.8.* NOT state:503")
"""

from .core.catalog import CatalogEntry, LogCatalog, UnknownLogError
from .core.config import ABLATIONS, LogGrepConfig, ablated, sp_config
from .core.lifecycle import transition_analysis
from .core.loggrep import CompressionReport, GrepResult, LogGrep, LogGrepSession
from .core.streaming import StreamingCompressor

__version__ = "1.0.0"

__all__ = [
    "LogGrep",
    "LogGrepSession",
    "LogGrepConfig",
    "GrepResult",
    "CompressionReport",
    "StreamingCompressor",
    "LogCatalog",
    "CatalogEntry",
    "UnknownLogError",
    "transition_analysis",
    "ablated",
    "sp_config",
    "ABLATIONS",
    "__version__",
]
