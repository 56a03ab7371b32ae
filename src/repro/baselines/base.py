"""The common interface every compared system implements (§6).

The benchmark harness drives five systems — gzip+grep, CLP, ElasticSearch
(mini), LogGrep-SP and LogGrep — through this interface and measures the
same three quantities the paper reports: query latency, compression ratio
and compression speed, which Equation 1 then folds into overall cost.
"""

from __future__ import annotations

import abc
import time
from typing import List, Sequence


class LogStoreSystem(abc.ABC):
    """A compress-then-query log store."""

    #: Short display name used in benchmark tables ("ggrep", "CLP", ...).
    name: str = "?"

    def __init__(self) -> None:
        self.compress_seconds = 0.0
        self.raw_bytes = 0

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def ingest(self, lines: Sequence[str]) -> None:
        """Compress/ingest a batch of raw log lines."""

    @abc.abstractmethod
    def query(self, command: str) -> List[str]:
        """Run a query command; return matching original lines in order."""

    @abc.abstractmethod
    def storage_bytes(self) -> int:
        """Total bytes persisted (compressed data + any indexes)."""

    # ------------------------------------------------------------------
    def compression_ratio(self) -> float:
        stored = self.storage_bytes()
        return self.raw_bytes / stored if stored else 0.0

    def compression_speed_mb_s(self) -> float:
        if not self.compress_seconds:
            return 0.0
        return (self.raw_bytes / 1e6) / self.compress_seconds

    def timed_query(self, command: str) -> tuple:
        """(matching lines, seconds) for one query."""
        start = time.perf_counter()
        lines = self.query(command)
        return lines, time.perf_counter() - start
