"""The paper's primary contribution: the LogGrep system (§3-§5)."""

from .compressor import compress_block, encode_parsed, parse_block
from .config import ABLATIONS, LogGrepConfig, ablated, sp_config
from .loggrep import CompressionReport, GrepResult, LogGrep, LogGrepSession
from .catalog import CatalogEntry, LogCatalog, UnknownLogError
from .lifecycle import transition_analysis
from .reconstructor import BlockReconstructor
from .schedule import CompressionScheduler
from .streaming import StreamingCompressor

__all__ = [
    "LogGrep",
    "LogGrepSession",
    "LogGrepConfig",
    "GrepResult",
    "CompressionReport",
    "compress_block",
    "parse_block",
    "encode_parsed",
    "CompressionScheduler",
    "BlockReconstructor",
    "StreamingCompressor",
    "LogCatalog",
    "CatalogEntry",
    "UnknownLogError",
    "transition_analysis",
    "ablated",
    "sp_config",
    "ABLATIONS",
]
