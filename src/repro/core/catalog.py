"""Multi-log catalogs.

Alibaba Cloud stores many log types per application (§6 evaluates 21 of
them); operationally they live side by side.  A :class:`LogCatalog`
manages one LogGrep archive per named log under a common root directory
and supports cross-log search — the "grep everything we have about this
incident" workflow.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..blockstore.store import ArchiveStore, MemoryStore
from ..common.errors import ReproError
from .config import LogGrepConfig
from .loggrep import GrepResult, LogGrep


class UnknownLogError(ReproError):
    """The catalog has no log with the requested name."""


@dataclass
class CatalogEntry:
    """Accounting for one named log."""

    name: str
    raw_bytes: int
    storage_bytes: int
    blocks: int

    @property
    def ratio(self) -> float:
        return self.raw_bytes / self.storage_bytes if self.storage_bytes else 0.0


class LogCatalog:
    """Named LogGrep archives under one root (or fully in memory)."""

    def __init__(
        self, root: Optional[str] = None, config: Optional[LogGrepConfig] = None
    ):
        self.root = root
        self.config = config or LogGrepConfig()
        self._logs: Dict[str, LogGrep] = {}
        if root is not None:
            os.makedirs(root, exist_ok=True)
            for name in sorted(os.listdir(root)):
                if os.path.isdir(os.path.join(root, name)):
                    self._attach(name)

    def _attach(self, name: str) -> LogGrep:
        if self.root is None:
            store: ArchiveStore = MemoryStore()
        else:
            store = ArchiveStore(os.path.join(self.root, name))
        loggrep = LogGrep(store=store, config=self.config)
        self._logs[name] = loggrep
        return loggrep

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        return sorted(self._logs)

    def log(self, name: str) -> LogGrep:
        try:
            return self._logs[name]
        except KeyError:
            raise UnknownLogError(f"no log named {name!r} in catalog") from None

    def ingest(self, name: str, lines: Iterable[str]) -> None:
        """Append lines to the named log (created on first use)."""
        loggrep = self._logs.get(name)
        if loggrep is None:
            loggrep = self._attach(name)
        loggrep.compress(list(lines))

    # ------------------------------------------------------------------
    def grep(
        self, name: str, command: str, ignore_case: bool = False
    ) -> GrepResult:
        return self.log(name).grep(command, ignore_case)

    def grep_all(
        self, command: str, ignore_case: bool = False
    ) -> List[Tuple[str, GrepResult]]:
        """Run one command over every log; (name, result) pairs with hits.

        The cross-log incident workflow: the same trace id or error code
        greps across all services at once.
        """
        out: List[Tuple[str, GrepResult]] = []
        for name in self.names():
            result = self._logs[name].grep(command, ignore_case)
            if result.count:
                out.append((name, result))
        return out

    def count_all(self, command: str, ignore_case: bool = False) -> Dict[str, int]:
        return {
            name: self._logs[name].count(command, ignore_case)
            for name in self.names()
        }

    # ------------------------------------------------------------------
    def entries(self) -> List[CatalogEntry]:
        return [
            CatalogEntry(
                name=name,
                raw_bytes=loggrep.raw_bytes,
                storage_bytes=loggrep.storage_bytes(),
                blocks=len(loggrep.store.names()),
            )
            for name, loggrep in sorted(self._logs.items())
        ]

    def storage_bytes(self) -> int:
        return sum(loggrep.storage_bytes() for loggrep in self._logs.values())
