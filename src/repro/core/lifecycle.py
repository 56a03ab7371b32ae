"""Log lifecycle management: the hot → warm → cold tier engine (§1).

The paper's taxonomy: *online* logs are queried constantly (ES territory),
*near-line* logs are LogGrep's target, and after 6-12 months logs become
*offline* — almost never queried, kept for compliance, so only the ratio
matters.  This module implements the transitions:

* :func:`archive_offline` rewrites near-line CapsuleBoxes into offline
  archives — several blocks merged (amortizing template/metadata overhead)
  and recompressed at a high LZMA preset.  Offline archives remain valid
  LogGrep archives: queries still work, just against bigger, colder blocks.
* :func:`transition_analysis` uses Equation 1 to answer the operational
  question: given the residual query rate, does recompressing pay for
  itself, and how much does a TB-month cost in each tier?
* :class:`LifecycleManager` runs the tier state machine *in place* over
  one archive: **hot** (speed-tier zlib codec, fresh ingest) → **warm**
  (default LZMA) → **cold** (merged blocks at maximum preset, with an
  optional cross-archive
  :class:`~repro.blockstore.shared.SharedTemplateStore` deduplicating
  templates and nominal dictionaries globally).  Demotions pick the
  longest timestamp-eligible *prefix* of the block sequence (blocks are
  written in arrival order; blocks with no parseable timestamps are
  treated as eligible), rewrite it at the target tier's config, and
  rewrite the ``.index.lgix`` sidecar — including the v2 min/max
  timestamp range and discarding entries for merged-away names — so a
  pruned query against the demoted archive still costs zero store reads.
  :class:`TierPolicy` decides transitions from block age, residual query
  rate and the Equation-1 break-even test.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, List, Optional, Tuple

from ..blockstore.block import LogBlock, block_name, split_lines
from ..blockstore.index import ArchiveIndex, BlockSummary, load_index, save_index
from ..blockstore.shared import (
    SharedTemplateStore,
    as_resolver,
    payload_signature,
    write_bank,
)
from ..blockstore.store import ArchiveStore, MemoryStore
from ..capsule.assembler import NominalEncodedVector
from ..capsule.box import CapsuleBox
from ..cost.model import CostParameters
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..query.cache import bump_generation
from ..staticparse.cache import template_signature
from .compressor import compress_block
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


def offline_config(base: Optional[LogGrepConfig] = None) -> LogGrepConfig:
    """The offline tier trades everything for ratio: maximum LZMA preset,
    big merged blocks, no Bloom filters (almost no queries to speed up)."""
    base = base or LogGrepConfig()
    return replace(
        base,
        preset=9,
        block_bytes=max(base.block_bytes * 4, base.block_bytes),
        use_block_bloom=False,
    )


@dataclass
class OfflineReport:
    """What the near-line → offline rewrite achieved."""

    nearline_bytes: int
    offline_bytes: int
    nearline_blocks: int
    offline_blocks: int
    recompress_seconds: float
    raw_bytes: int

    @property
    def ratio_gain(self) -> float:
        """offline ratio / near-line ratio (> 1 means offline is smaller)."""
        if self.offline_bytes == 0 or self.nearline_bytes == 0:
            return 0.0
        return self.nearline_bytes / self.offline_bytes


def archive_offline(
    nearline: LogGrep,
    store: Optional[ArchiveStore] = None,
    config: Optional[LogGrepConfig] = None,
) -> "tuple[LogGrep, OfflineReport]":
    """Rewrite a near-line archive into the offline tier.

    Returns the offline LogGrep handle (still fully queryable) and the
    accounting report.
    """
    config = config or offline_config(nearline.config)
    store = store if store is not None else MemoryStore()
    start = time.perf_counter()

    lines = nearline.decompress_all()
    offline = LogGrep(store=store, config=config)
    offline.compress(lines)

    recompress_seconds = time.perf_counter() - start
    report = OfflineReport(
        nearline_bytes=nearline.storage_bytes(),
        offline_bytes=offline.storage_bytes(),
        nearline_blocks=len(nearline.store.names()),
        offline_blocks=len(offline.store.names()),
        recompress_seconds=recompress_seconds,
        raw_bytes=nearline.raw_bytes,
    )
    return offline, report


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

    * HOT — the speed-tier codec (zlib when LZMA's edge is thin): fast
      inflation for the tail of the stream that still gets queried.
    * WARM — the archive default: plain LZMA at the configured preset.
    * COLD — :func:`offline_config`: maximum preset, 4× merged blocks,
      no Bloom filters.
    """
    base = base or LogGrepConfig()
    if tier is Tier.HOT:
        return replace(base, codec_speed_tier=True)
    if tier is Tier.WARM:
        return replace(base, codec_speed_tier=False)
    return offline_config(base)


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
    #: Cross-archive shared-store bytes at the end of the rewrite (0 when
    #: no shared store was attached).
    shared_bytes: int = 0

    @property
    def ratio_gain(self) -> float:
        if self.bytes_after == 0 or self.bytes_before == 0:
            return 0.0
        return self.bytes_before / self.bytes_after


class LifecycleManager:
    """Runs the hot/warm/cold state machine in place over one archive.

    With *shared* (a :class:`SharedTemplateStore`), cold rewrites emit
    flag-0x01 boxes: templates and nominal dictionaries move into the
    cross-archive store, deduplicated by content hash, and the archive
    keeps content-id references (plus an optional fallback bank for
    portability, see :meth:`export_bank`).
    """

    def __init__(
        self,
        store: ArchiveStore,
        config: Optional[LogGrepConfig] = None,
        shared: Optional[SharedTemplateStore] = None,
    ):
        self.store = store
        self.config = config or LogGrepConfig()
        self.shared = shared
        self._resolver = as_resolver(shared, store)
        self.tiers = load_tiers(store)

    # ------------------------------------------------------------------
    def status(self) -> TierStatus:
        """Per-tier block/byte accounting; publishes the tier gauges.

        Blocks with no recorded tier are HOT — that is what fresh ingest
        produces and what a lost tier map safely degrades to.
        """
        blocks = {tier: 0 for tier in Tier}
        size = {tier: 0 for tier in Tier}
        for name in self.store.names():
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
        """The longest prefix of blocks whose newest line is older than
        the cutoff.

        Blocks are written in arrival order, so age decreases along the
        name sequence; the scan stops at the first too-young block.
        Blocks whose sidecar has no timestamp range are treated as
        eligible (age unknown — they would otherwise pin every block
        behind them forever; documented CLI behaviour).
        """
        now = time.time() if now is None else now
        cutoff = now - older_than_seconds
        index = load_index(self.store)
        names: List[str] = []
        for name in self.store.names():
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

        WARM rewrites block-for-block (same names, same ids); COLD merges
        the prefix into 4×-sized blocks (ids renumbered sequentially from
        the first original block) and externalizes templates/dictionaries
        into the shared store when one is attached.  Both paths rewrite
        the sidecar index with fresh v2 summaries — min/max timestamps
        included — and discard entries for merged-away names, so pruned
        queries against the result cost zero store reads.
        """
        if tier is Tier.HOT:
            raise ValueError("demote targets warm or cold, not hot")
        names = [
            name
            for name in self.eligible_prefix(older_than_seconds, now)
            if self.tiers.get(name, Tier.HOT).rank < tier.rank
        ]
        bytes_before = sum(self.store.size(n) for n in self.store.names())
        blocks_before = len(self.store.names())
        start = time.perf_counter()
        if names:
            with get_tracer().span(
                f"lifecycle.demote.{tier.value}", blocks=len(names)
            ):
                if tier is Tier.WARM:
                    self._rewrite_warm(names)
                else:
                    self._rewrite_cold(names)
            # Demotion rewrites bytes behind existing block names (WARM)
            # or replaces the name sequence outright (COLD merge), so any
            # row sets, boxes or summaries a reader derived from the old
            # bytes are stale: advance the persisted archive generation.
            bump_generation(self.store)
        rewrite_seconds = time.perf_counter() - start
        save_tiers(self.store, self.tiers)
        status = self.status()
        return DemotionReport(
            tier=tier,
            blocks_before=blocks_before,
            blocks_after=status.total_blocks(),
            bytes_before=bytes_before,
            bytes_after=status.total_bytes(),
            rewrite_seconds=rewrite_seconds,
            shared_bytes=self.shared.total_bytes() if self.shared else 0,
        )

    # ------------------------------------------------------------------
    def _load_box(self, name: str) -> CapsuleBox:
        return CapsuleBox.deserialize(
            self.store.get(name), templates=self._resolver
        )

    def _index(self) -> ArchiveIndex:
        index = load_index(self.store)
        return index if index is not None else ArchiveIndex()

    def _rewrite_warm(self, names: List[str]) -> None:
        """Block-for-block recompression at the warm config."""
        config = tier_config(Tier.WARM, self.config)
        index = self._index()
        for name in names:
            box = self._load_box(name)
            lines = BlockReconstructor(box).all_lines()
            block = LogBlock(box.block_id, box.first_line_id, lines)
            new_box = compress_block(block, config)
            self.store.put(name, new_box.serialize())
            index.add(name, BlockSummary.from_box(new_box, lines=lines))
            self.tiers[name] = Tier.WARM
        save_index(self.store, index)

    def _rewrite_cold(self, names: List[str]) -> None:
        """Merge-and-recompress the prefix at the cold config.

        Line ids are preserved exactly (ids are positional and the merge
        keeps line order); block ids are renumbered sequentially from the
        first original block, so the new names are a prefix of the old
        name sequence and name order stays consistent with line order.
        """
        config = tier_config(Tier.COLD, self.config)
        index = self._index()
        lines: List[str] = []
        first_box = self._load_box(names[0])
        first_block_id = first_box.block_id
        first_line_id = first_box.first_line_id
        for name in names:
            box = first_box if name == names[0] else self._load_box(name)
            lines.extend(BlockReconstructor(box).all_lines())
        new_names: List[str] = []
        block_id = first_block_id
        line_id = first_line_id
        for block in split_lines(lines, config.block_bytes):
            block.block_id = block_id
            block.first_line_id = line_id
            block_id += 1
            line_id += block.num_lines
            new_box = compress_block(block, config)
            data = (
                new_box.serialize(shared=self.shared)
                if self.shared is not None
                else new_box.serialize()
            )
            name = block_name(block.block_id)
            self.store.put(name, data)
            index.add(name, BlockSummary.from_box(new_box, lines=block.lines))
            self.tiers[name] = Tier.COLD
            new_names.append(name)
        # Merged-away names: delete the blobs AND their sidecar entries —
        # a stale summary would claim lines the store no longer holds.
        for name in set(names) - set(new_names):
            self.store.delete(name)
            index.discard(name)
            self.tiers.pop(name, None)
        save_index(self.store, index)

    # ------------------------------------------------------------------
    def export_bank(self) -> int:
        """Write the archive's fallback bank; returns its byte size.

        Collects every content id the archive's shared-format boxes
        reference (templates and externalized dictionary payloads) and
        stores the bytes as a ``templates.lgtb`` aux blob, making the
        archive self-contained — copyable anywhere without the shared
        store.
        """
        templates: Dict[str, Tuple[Optional[str], ...]] = {}
        payloads: Dict[str, bytes] = {}
        for name in self.store.names():
            box = self._load_box(name)
            for group in box.groups:
                key = tuple(group.template.tokens)
                templates[template_signature(key)] = key
                for vector in group.vectors:
                    if isinstance(vector, NominalEncodedVector):
                        payload = vector.dict_capsule.payload
                        payloads[payload_signature(payload)] = payload
        return write_bank(self.store, templates, payloads)

    def open_reader(self) -> LogGrep:
        """A LogGrep facade over the archive, shared store attached."""
        return LogGrep(
            store=self.store, config=self.config, templates=self._resolver
        )
