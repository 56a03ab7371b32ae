"""Log lifecycle management: the hot → warm → cold tier engine (§1).

The paper's taxonomy: *online* logs are queried constantly (ES territory),
*near-line* logs are LogGrep's target, and after 6-12 months logs become
*offline* — almost never queried, kept for compliance, so only the ratio
matters.  This module implements the transitions:

* :class:`LifecycleManager` runs the tier state machine *in place* over
  one archive: **hot** (speed-tier zlib codec, fresh ingest) → **warm**
  (default LZMA) → **cold** (the offline tier: blocks merged 4× and
  recompressed at maximum preset, amortizing template/metadata
  overhead).  Cold archives remain valid LogGrep archives: queries still
  work, just against bigger, colder blocks.  Demotions pick the longest
  timestamp-eligible *prefix* of the live blocks (blocks are written
  in arrival order; blocks with no parseable timestamps are treated as
  eligible) and rewrite it at the target tier's config.  A block name
  is written once: a rewrite writes new names
  (:func:`~repro.blockstore.block.block_name`), publishes them by saving
  the ``.index.lgix`` sidecar with fresh v4 summaries, saves
  ``tiers.json`` and only then deletes the blocks it replaced, so a
  crash leaves the archive as before or after it.  A pruned query
  against the demoted archive still costs zero store reads.  To keep
  the near-line archive, demote a copy of its store.
* :func:`transition_analysis` uses Equation 1 to answer the operational
  question: given the residual query rate, does recompressing pay for
  itself, and how much does a TB-month cost in each tier?
  :class:`TierPolicy` decides transitions from block age, residual query
  rate and that break-even test.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, List, Optional, Tuple

from ..blockstore.block import LogBlock, block_name, parse_block_name, split_lines
from ..blockstore.index import (
    BlockSummary,
    live_names,
    load_index,
    open_index,
    save_index,
    stored_live_names,
)
from ..blockstore.store import ArchiveStore
from ..capsule.box import CapsuleBox
from ..cost.model import CostParameters
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .compressor import encode_parsed, parse_block
from .config import LogGrepConfig
from .loggrep import LogGrep
from .reconstructor import BlockReconstructor

#: Auxiliary-blob name recording each block's current tier.
TIER_AUX_NAME = "tiers.json"

_TIER_BYTES = get_registry().gauge(
    "loggrep_tier_bytes", "Stored bytes currently in each lifecycle tier"
)
_TIER_BLOCKS = get_registry().gauge(
    "loggrep_tier_blocks", "Blocks currently in each lifecycle tier"
)


@dataclass
class TransitionAnalysis:
    """Equation-1 economics of moving a TB to the offline tier."""

    nearline_monthly_per_tb: float  # storage $ per TB-month, near-line
    offline_monthly_per_tb: float  # storage $ per TB-month, offline
    recompression_cost_per_tb: float  # one-time CPU $ per TB
    breakeven_months: float  # months of offline residency to pay it off

    @property
    def worthwhile_within(self) -> bool:
        """True when the rewrite pays off inside a year."""
        return self.breakeven_months <= 12.0


def transition_analysis(
    nearline_ratio: float,
    offline_ratio: float,
    recompress_speed_mb_s: float,
    params: CostParameters = CostParameters(),
) -> TransitionAnalysis:
    """When does offline recompression pay for itself?

    The monthly saving is the storage-price delta between the two ratios;
    the one-time cost is the CPU to decompress + recompress a TB.
    """
    if nearline_ratio <= 0 or offline_ratio <= 0 or recompress_speed_mb_s <= 0:
        raise ValueError("ratios and speed must be positive")
    tb_gb = 1000.0
    nearline_monthly = params.storage_dollars_per_gb_month * tb_gb / nearline_ratio
    offline_monthly = params.storage_dollars_per_gb_month * tb_gb / offline_ratio
    hours = (1e12 / (recompress_speed_mb_s * 1e6)) / 3600.0
    recompress_cost = params.cpu_dollars_per_hour * hours
    saving = nearline_monthly - offline_monthly
    breakeven = float("inf") if saving <= 0 else recompress_cost / saving
    return TransitionAnalysis(
        nearline_monthly_per_tb=nearline_monthly,
        offline_monthly_per_tb=offline_monthly,
        recompression_cost_per_tb=recompress_cost,
        breakeven_months=breakeven,
    )


# ======================================================================
# the in-place tier engine
# ======================================================================
class Tier(str, Enum):
    """Lifecycle tiers, hottest first.  Fresh ingest is HOT; demotions
    only move downward (hot → warm → cold)."""

    HOT = "hot"
    WARM = "warm"
    COLD = "cold"

    @property
    def rank(self) -> int:
        return (Tier.HOT, Tier.WARM, Tier.COLD).index(self)


def tier_config(tier: Tier, base: Optional[LogGrepConfig] = None) -> LogGrepConfig:
    """The compression config of one tier.

    * HOT — the speed-tier codec (zlib when LZMA's edge is thin), at
      the configured preset: fast inflation for the tail of the stream
      that still gets queried.
    * WARM — the archive default: plain LZMA at the configured preset.
    * COLD — the offline tier trades everything for ratio: maximum
      preset and 4× merged blocks (almost no queries to speed up).
    """
    base = base or LogGrepConfig()
    if tier is Tier.HOT:
        return replace(base, codec_speed_tier=True)
    if tier is Tier.WARM:
        return replace(base, codec_speed_tier=False)
    return replace(base, preset=9, block_bytes=base.block_bytes * 4)


@dataclass
class TierPolicy:
    """Age/query-rate transition policy, grounded in Equation 1.

    Age moves a block down (``warm_after_seconds``, ``cold_after_seconds``
    since its newest timestamp); a residual query rate above
    ``max_cold_queries_per_day`` holds it at WARM (cold blocks are big
    and slow to query); and the COLD rewrite must additionally pay for
    itself within a year under :func:`transition_analysis` when the
    ratios to run it are known.
    """

    warm_after_seconds: float = 7 * 86400.0
    cold_after_seconds: float = 30 * 86400.0
    max_cold_queries_per_day: float = 1.0

    def tier_for(self, age_seconds: float, queries_per_day: float = 0.0) -> Tier:
        """The tier a block of this age and query rate belongs in."""
        if age_seconds >= self.cold_after_seconds:
            if queries_per_day > self.max_cold_queries_per_day:
                return Tier.WARM
            return Tier.COLD
        if age_seconds >= self.warm_after_seconds:
            return Tier.WARM
        return Tier.HOT

    def recommend(
        self,
        age_seconds: float,
        queries_per_day: float = 0.0,
        nearline_ratio: Optional[float] = None,
        offline_ratio: Optional[float] = None,
        recompress_speed_mb_s: Optional[float] = None,
        params: CostParameters = CostParameters(),
    ) -> Tier:
        """Like :meth:`tier_for`, but a COLD candidate must also pass the
        Equation-1 break-even test when measured ratios are provided."""
        tier = self.tier_for(age_seconds, queries_per_day)
        if (
            tier is Tier.COLD
            and nearline_ratio is not None
            and offline_ratio is not None
            and recompress_speed_mb_s is not None
        ):
            analysis = transition_analysis(
                nearline_ratio, offline_ratio, recompress_speed_mb_s, params
            )
            if not analysis.worthwhile_within:
                return Tier.WARM
        return tier


def load_tiers(store: object) -> Dict[str, Tier]:
    """The stored block → tier map (empty when absent/corrupt)."""
    try:
        if not store.aux_exists(TIER_AUX_NAME):  # type: ignore[attr-defined]
            return {}
        data = store.get_aux(TIER_AUX_NAME)  # type: ignore[attr-defined]
        raw = json.loads(data.decode("utf-8"))
        return {name: Tier(value) for name, value in raw.get("tiers", {}).items()}
    except Exception:
        # Derived data: a corrupt tier map only means "everything is hot
        # again", never a wrong query result.
        return {}


def save_tiers(store: object, tiers: Dict[str, Tier]) -> None:
    payload = json.dumps(
        {"version": 1, "tiers": {name: tier.value for name, tier in sorted(tiers.items())}}
    ).encode("utf-8")
    store.put_aux(TIER_AUX_NAME, payload)  # type: ignore[attr-defined]


@dataclass
class TierStatus:
    """Per-tier accounting of one archive."""

    blocks: Dict[Tier, int]
    bytes: Dict[Tier, int]

    def total_blocks(self) -> int:
        return sum(self.blocks.values())

    def total_bytes(self) -> int:
        return sum(self.bytes.values())


@dataclass
class DemotionReport:
    """What one in-place demotion achieved."""

    tier: Tier
    blocks_before: int
    blocks_after: int
    bytes_before: int
    bytes_after: int
    rewrite_seconds: float

    @property
    def ratio_gain(self) -> float:
        if self.bytes_after == 0 or self.bytes_before == 0:
            return 0.0
        return self.bytes_before / self.bytes_after


class LifecycleManager:
    """Runs the hot/warm/cold state machine in place over one archive."""

    def __init__(self, store: ArchiveStore, config: Optional[LogGrepConfig] = None):
        self.store = store
        self.config = config or LogGrepConfig()
        self.tiers = load_tiers(store)

    # ------------------------------------------------------------------
    def status(self) -> TierStatus:
        """Per-tier block/byte accounting of the live blocks; publishes
        the tier gauges.

        Blocks with no recorded tier are HOT — that is what fresh ingest
        produces and what a lost tier map safely degrades to.
        """
        blocks = {tier: 0 for tier in Tier}
        size = {tier: 0 for tier in Tier}
        for name in stored_live_names(self.store):
            tier = self.tiers.get(name, Tier.HOT)
            blocks[tier] += 1
            size[tier] += self.store.size(name)
        for tier in Tier:
            _TIER_BYTES.set(size[tier], tier=tier.value)
            _TIER_BLOCKS.set(blocks[tier], tier=tier.value)
        return TierStatus(blocks=blocks, bytes=size)

    # ------------------------------------------------------------------
    def eligible_prefix(
        self, older_than_seconds: float, now: Optional[float] = None
    ) -> List[str]:
        """The longest prefix of live blocks whose newest line is older
        than the cutoff.

        Blocks are written in arrival order, so age decreases along the
        name sequence; the scan stops at the first too-young block.
        Blocks whose sidecar has no timestamp range are treated as
        eligible (age unknown — they would otherwise pin every block
        behind them forever; documented CLI behaviour).
        """
        index = load_index(self.store)
        live = live_names(self.store.names(), index)
        return self._prefix(live, index, older_than_seconds, now)

    @staticmethod
    def _prefix(live, index, older_than_seconds, now) -> List[str]:
        now = time.time() if now is None else now
        cutoff = now - older_than_seconds
        names: List[str] = []
        for name in live:
            summary = index.get(name) if index is not None else None
            if summary is not None and summary.max_ts is not None:
                if summary.max_ts > cutoff:
                    break
            names.append(name)
        return names

    def demote(
        self,
        tier: Tier,
        older_than_seconds: float = 0.0,
        now: Optional[float] = None,
    ) -> DemotionReport:
        """Rewrite the eligible prefix of the archive at *tier* in place.

        WARM rewrites block-for-block (same ids, a new epoch); COLD
        merges the prefix into 4×-sized blocks within the merged id
        range.  Both write new names, publish them through the sidecar —
        fresh v4 summaries, min/max timestamps included — then save the
        tier map and delete the replaced blocks, together with any block
        an earlier crashed rewrite left behind.
        """
        if tier is Tier.HOT:
            raise ValueError("demote targets warm or cold, not hot")
        # The sidecar is the commit point: before the first write it
        # lists every live block, or a new name above its top would be
        # live next to the block it replaces until it is saved.
        index = open_index(self.store)
        listing = self.store.names()
        live = live_names(listing, index)
        if index.summarize(self.store, live):
            save_index(self.store, index)
        # Blocks an earlier crashed rewrite left behind.
        replaced = [
            name for name in listing if name not in live and parse_block_name(name)
        ]
        names = [
            name
            for name in self._prefix(live, index, older_than_seconds, now)
            if self.tiers.get(name, Tier.HOT).rank < tier.rank
        ]
        bytes_before = sum(self.store.size(n) for n in live)
        blocks_before = len(live)
        start = time.perf_counter()
        if names:
            epoch = 1 + max(
                (parsed[1] for parsed in map(parse_block_name, listing) if parsed),
                default=0,
            )
            with get_tracer().span(
                f"lifecycle.demote.{tier.value}", blocks=len(names)
            ):
                if tier is Tier.WARM:
                    written = self._rewrite_warm(names, epoch)
                else:
                    written = self._rewrite_cold(names, epoch)
            for name in names:
                index.discard(name)
            for name, summary in written:
                index.add(name, summary)
            save_index(self.store, index)
            replaced += names
            for name, _ in written:
                self.tiers[name] = tier
        rewrite_seconds = time.perf_counter() - start
        for name in replaced:
            self.tiers.pop(name, None)
        save_tiers(self.store, self.tiers)
        for name in replaced:
            self.store.delete(name)
        status = self.status()
        return DemotionReport(
            tier=tier,
            blocks_before=blocks_before,
            blocks_after=status.total_blocks(),
            bytes_before=bytes_before,
            bytes_after=status.total_bytes(),
            rewrite_seconds=rewrite_seconds,
        )

    # ------------------------------------------------------------------
    def _load_box(self, name: str) -> CapsuleBox:
        return CapsuleBox.deserialize(self.store.get(name))

    def _write(
        self, block: LogBlock, config: LogGrepConfig, epoch: int
    ) -> Tuple[str, BlockSummary]:
        """Compress *block* and write it under its new name."""
        parsed, _ = parse_block(block, config)
        box = encode_parsed(block, parsed, config)
        name = block_name(block.block_id, epoch)
        self.store.put(name, box.serialize())
        return name, BlockSummary.from_box(box, parsed)

    def _rewrite_warm(
        self, names: List[str], epoch: int
    ) -> List[Tuple[str, BlockSummary]]:
        """Block-for-block recompression at the warm config: each block
        keeps its id and takes the new epoch."""
        config = tier_config(Tier.WARM, self.config)
        written = []
        for name in names:
            box = self._load_box(name)
            lines = BlockReconstructor(box).all_lines()
            block = LogBlock(box.block_id, box.first_line_id, lines)
            written.append(self._write(block, config, epoch))
        return written

    def _rewrite_cold(
        self, names: List[str], epoch: int
    ) -> List[Tuple[str, BlockSummary]]:
        """Merge-and-recompress the prefix at the cold config.

        Each maximal run of line-contiguous names is merged on its own: a
        block the prefix skips (already COLD in a hand-edited tier map)
        keeps its lines between the runs around it.
        """
        config = tier_config(Tier.COLD, self.config)
        written: List[Tuple[str, BlockSummary]] = []
        run: List[LogBlock] = []
        for name in names:
            box = self._load_box(name)
            block = LogBlock(
                box.block_id, box.first_line_id, BlockReconstructor(box).all_lines()
            )
            if run and block.first_line_id != run[-1].first_line_id + run[-1].num_lines:
                written += self._merge(run, config, epoch)
                run = []
            run.append(block)
        if run:
            written += self._merge(run, config, epoch)
        return written

    def _merge(
        self, run: List[LogBlock], config: LogGrepConfig, epoch: int
    ) -> List[Tuple[str, BlockSummary]]:
        """Merge one run of line-contiguous blocks into blocks of
        ``config.block_bytes``.

        Line ids are preserved exactly (the merge keeps line order).  No
        output id leaves the merged range (above it reads as an append,
        below it is another block's): with a budget at least the largest
        merged block's, greedy splitting needs at most as many blocks as
        the run covers, and the last takes the run's last id.
        """
        budget = max(config.block_bytes, *(block.raw_bytes for block in run))
        lines = [line for block in run for line in block.lines]
        blocks = list(split_lines(lines, budget))
        line_id = run[0].first_line_id
        for block_id, block in enumerate(blocks, run[-1].block_id - len(blocks) + 1):
            block.block_id = block_id
            block.first_line_id = line_id
            line_id += block.num_lines
        return [self._write(block, config, epoch) for block in blocks]

    def open_reader(self) -> LogGrep:
        """A LogGrep facade over the archive."""
        return LogGrep(store=self.store, config=self.config)
