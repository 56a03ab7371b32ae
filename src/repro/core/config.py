"""LogGrep configuration, including the §6.3 ablation switches."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional

from ..capsule.assembler import EncodingOptions
from ..query.vectors import QuerySettings


def _default_slow_query_ms() -> Optional[float]:
    raw = os.environ.get("LOGGREP_SLOW_QUERY_MS")
    return float(raw) if raw else None


def _default_slow_query_log() -> Optional[str]:
    return os.environ.get("LOGGREP_SLOW_QUERY_LOG") or None


def _default_max_read_bytes() -> Optional[int]:
    raw = os.environ.get("LOGGREP_MAX_READ_BYTES")
    return int(raw) if raw else None


def _default_max_decoded_values() -> Optional[int]:
    raw = os.environ.get("LOGGREP_MAX_DECODED_VALUES")
    return int(raw) if raw else None


#: Names of the five ablated versions evaluated in Fig 9.
ABLATIONS = ("w/o real", "w/o nomi", "w/o stamp", "w/o fixed", "w/o cache")


@dataclass
class LogGrepConfig:
    """Every knob of the compression and query pipelines.

    The five ``use_*`` feature switches correspond one-to-one to the
    ablated versions of §6.3; :func:`ablated` builds them by name.
    """

    # -- compression-side ------------------------------------------------
    sample_rate: float = 0.05  # parser + extractor sampling (§3, §4.1)
    similarity: float = 0.6  # template miner merge threshold
    duplication_threshold: float = 0.5  # real/nominal split (§4.1)
    preset: int = 1  # LZMA preset for Capsule payloads
    block_bytes: int = 64 * 1024 * 1024  # log block size (§2)
    seed: int = 0  # determinism for sampling/probing

    # -- feature switches (Fig 9 ablations) -------------------------------
    use_real_patterns: bool = True  # tree expanding (§4.1)
    use_nominal_patterns: bool = True  # pattern merging (§4.1)
    use_stamps: bool = True  # Capsule stamp filtering (§4.3, §5.1)
    use_padding: bool = True  # fixed-length matching (§5.2)
    use_query_cache: bool = True  # refining-mode cache (§3)

    # -- compression scheduler (§8 "compression speed") --------------------
    # Ingest encodes on the calling thread: an encode pool measured
    # slower than serial (EXPERIMENTS.md §The encode pool on trial).  The
    # field only accepts 1; it stays for the benchmark harness, which
    # passes it (ROADMAP item 7(a) deletes it).
    compress_parallelism: int = 1

    # -- codec tiering ----------------------------------------------------
    # Opt-in: where the size-keyed codec rule compares zlib with LZMA,
    # keep zlib unless LZMA's ratio edge exceeds ZLIB_MARGIN (default:
    # keep the smaller) — faster decompression on the query path at a
    # small ratio cost.
    codec_speed_tier: bool = False

    # -- query-side --------------------------------------------------------
    # Blocks are independent, so queries parallelize trivially (§6's
    # "both compression and query execution can easily be parallelized";
    # the paper normalizes to one CPU, hence default 1).
    query_parallelism: int = 1

    # -- per-query accounting (ledger, slow-query log, budgets) ------------
    # Any of these being set activates the QueryLedger for every query;
    # with all four at None (the default) queries run with the null ledger
    # and the accounting layer costs nothing.
    # Queries slower than this threshold (milliseconds) emit one JSON-lines
    # record to slow_query_log_path (or the "repro.slowlog" logger).
    slow_query_ms: Optional[float] = field(default_factory=_default_slow_query_ms)
    slow_query_log_path: Optional[str] = field(default_factory=_default_slow_query_log)
    # Soft per-query budgets: the query aborts with BudgetExceeded (carrying
    # the partial ledger) the moment its store bytes read or decoded-value
    # count crosses the limit — degrade one query, not the host.
    max_read_bytes: Optional[int] = field(default_factory=_default_max_read_bytes)
    max_decoded_values: Optional[int] = field(default_factory=_default_max_decoded_values)

    def __post_init__(self) -> None:
        if self.compress_parallelism != 1:
            raise ValueError(
                "compress_parallelism must be 1: ingest encodes on the "
                "calling thread"
            )

    def encoding_options(self, seed: Optional[int] = None) -> EncodingOptions:
        return EncodingOptions(
            use_real_patterns=self.use_real_patterns,
            use_nominal_patterns=self.use_nominal_patterns,
            use_padding=self.use_padding,
            duplication_threshold=self.duplication_threshold,
            sample_rate=self.sample_rate,
            preset=self.preset,
            seed=self.seed if seed is None else seed,
            codec_speed_tier=self.codec_speed_tier,
        )

    def query_settings(self) -> QuerySettings:
        return QuerySettings(use_stamps=self.use_stamps)


def ablated(name: str, base: LogGrepConfig = None) -> LogGrepConfig:
    """Build one of Fig 9's ablated configurations by its paper name."""
    base = base or LogGrepConfig()
    if name == "w/o real":
        return replace(base, use_real_patterns=False)
    if name == "w/o nomi":
        return replace(base, use_nominal_patterns=False)
    if name == "w/o stamp":
        return replace(base, use_stamps=False)
    if name == "w/o fixed":
        return replace(base, use_padding=False)
    if name == "w/o cache":
        return replace(base, use_query_cache=False)
    raise ValueError(f"unknown ablation {name!r}; choose from {ABLATIONS}")


def sp_config(base: LogGrepConfig = None) -> LogGrepConfig:
    """LogGrep-SP (§2.2): static patterns only, no runtime structurization.

    The first attempt stored whole variable vectors with vector-level
    summaries and no padding.
    """
    base = base or LogGrepConfig()
    return replace(
        base,
        use_real_patterns=False,
        use_nominal_patterns=False,
        use_padding=False,
    )
