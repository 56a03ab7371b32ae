"""Variable-vector encapsulation (paper §4.2).

The Assembler turns one variable vector into Capsules according to its
kind:

* **real** vectors are decomposed by their extracted runtime pattern into
  one Capsule per sub-variable vector, plus an outlier Capsule for values
  that do not match the pattern;
* **nominal** vectors become a dictionary Capsule (unique values grouped by
  merged pattern, each region padded to its own width) and an index Capsule
  of fixed-width decimal indices;
* **plain** vectors (LogGrep-SP and the `w/o real`/`w/o nomi` ablations)
  are stored whole with a vector-level stamp — §2.2's "first attempt".

Extraction quality is a performance matter only: if a pattern covers too
few values the Assembler falls back to the trivial pattern, and individual
non-matching values always land in the outlier Capsule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from ..common import chartypes
from ..runtime.classify import DEFAULT_DUPLICATION_THRESHOLD, VectorKind, classify
from ..runtime.merge import DictPattern, NominalEncoding, extract_nominal
from ..runtime.pattern import RuntimePattern, SubVar
from ..runtime.treeexpand import TreeExpandConfig, extract_real_pattern
from .capsule import Capsule
from .stamp import CapsuleStamp

#: Encoding tags (serialized into CapsuleBoxes).
ENC_REAL = 0
ENC_NOMINAL = 1
ENC_PLAIN = 2

#: A real pattern must cover at least this fraction of the full vector,
#: otherwise the trivial pattern is used instead (outliers stay rare).
MIN_PATTERN_COVERAGE = 0.5


@dataclass
class EncodingOptions:
    """Assembler knobs, including the §6.3 ablation switches."""

    use_real_patterns: bool = True
    use_nominal_patterns: bool = True
    use_padding: bool = True
    duplication_threshold: float = DEFAULT_DUPLICATION_THRESHOLD
    sample_rate: float = 0.05
    preset: int = 1
    seed: int = 0
    #: Speed-tier codec margin (keep zlib unless LZMA's ratio edge
    #: exceeds ``ZLIB_MARGIN``); see ``capsule._choose_codec``.
    codec_speed_tier: bool = False
    #: Emit permissive stamps instead of scanning every value's character
    #: classes.  Permissive stamps admit everything, so they can never
    #: cause a wrong skip — they only forgo stamp pruning.  Used by the
    #: hot tail, whose tiny always-scanned block gains nothing from
    #: stamps but pays their cost on the append→queryable latency path.
    cheap_stamps: bool = False


@dataclass
class RealEncodedVector:
    """A real variable vector stored as sub-variable + outlier Capsules."""

    pattern: RuntimePattern
    subvar_capsules: List[Capsule]
    outlier_capsule: Optional[Capsule]
    outlier_rows: List[int]  # group rows stored in the outlier Capsule (sorted)
    num_rows: int

    tag: int = field(default=ENC_REAL, init=False)

    @property
    def has_outliers(self) -> bool:
        return bool(self.outlier_rows)


@dataclass
class NominalEncodedVector:
    """A nominal variable vector stored as dictionary + index Capsules."""

    dict_patterns: List[DictPattern]
    dict_capsule: Capsule
    index_capsule: Capsule
    index_width: int
    num_rows: int
    dict_size: int

    tag: int = field(default=ENC_NOMINAL, init=False)

    def region_start_slot(self, pattern_idx: int) -> int:
        return sum(p.count for p in self.dict_patterns[:pattern_idx])

    def region_start_byte(self, pattern_idx: int) -> int:
        return sum(
            p.count * p.width for p in self.dict_patterns[:pattern_idx]
        )


@dataclass
class PlainEncodedVector:
    """A whole variable vector in a single Capsule (§2.2's first attempt)."""

    capsule: Capsule
    num_rows: int

    tag: int = field(default=ENC_PLAIN, init=False)


EncodedVector = Union[RealEncodedVector, NominalEncodedVector, PlainEncodedVector]


def encode_vector(
    values: Sequence[str],
    options: Optional[EncodingOptions] = None,
    kind: Optional[VectorKind] = None,
) -> EncodedVector:
    """Encapsulate one variable vector (§4.2).

    ``kind`` lets a caller that already classified the vector (the
    compressor does, under its ``classify`` span) skip re-classification.
    """
    options = options or EncodingOptions()
    if kind is None:
        kind = classify(values, options.duplication_threshold)
    if kind is VectorKind.REAL and options.use_real_patterns:
        return _encode_real(values, options)
    if kind is VectorKind.NOMINAL and options.use_nominal_patterns:
        return _encode_nominal(values, options)
    return encode_plain(values, options)


def encode_plain(
    values: Sequence[str], options: Optional[EncodingOptions] = None
) -> PlainEncodedVector:
    """Whole-vector encoding with a vector-level stamp."""
    options = options or EncodingOptions()
    capsule = _pack(values, options)
    return PlainEncodedVector(capsule, len(values))


def _encode_real(values: Sequence[str], options: EncodingOptions) -> RealEncodedVector:
    config = TreeExpandConfig(sample_rate=options.sample_rate, seed=options.seed)
    pattern = extract_real_pattern(values, config)

    columns, outlier_rows, outlier_values = pattern.split(values)
    if values and len(outlier_values) > MIN_PATTERN_COVERAGE * len(values):
        # The sample misled the extractor; degrade to the trivial pattern
        # rather than storing half the vector as outliers.
        pattern = RuntimePattern([SubVar(0)])
        columns, outlier_rows, outlier_values = pattern.split(values)

    subvar_capsules = [_pack(column, options) for column in columns]
    outlier_capsule = _pack(outlier_values, options) if outlier_values else None
    return RealEncodedVector(
        pattern, subvar_capsules, outlier_capsule, outlier_rows, len(values)
    )


def _encode_nominal(
    values: Sequence[str], options: EncodingOptions
) -> NominalEncodedVector:
    encoding: NominalEncoding = extract_nominal(values)
    regions: List[List[str]] = []
    widths: List[int] = []
    slot = 0
    for dict_pattern in encoding.patterns:
        regions.append(encoding.dict_values[slot : slot + dict_pattern.count])
        widths.append(dict_pattern.width)
        slot += dict_pattern.count

    speed_tier = options.codec_speed_tier
    dict_stamp = _cheap_stamp(options)
    if options.use_padding:
        dict_capsule = Capsule.pack_regions(
            regions, widths, options.preset, dict_stamp, speed_tier=speed_tier
        )
    else:
        dict_capsule = Capsule.pack_variable(
            encoding.dict_values, options.preset, dict_stamp, speed_tier=speed_tier
        )

    # Every index is rendered from one table entry per dictionary slot, and
    # the stamp is known by construction: zero-padded decimals, all of
    # index_width characters (no value at all when the vector is empty).
    slots = [
        str(slot).zfill(encoding.index_width)
        for slot in range(len(encoding.dict_values))
    ]
    index_values = [slots[i] for i in encoding.index]
    index_stamp = _cheap_stamp(options) or (
        CapsuleStamp(chartypes.DIGIT, encoding.index_width)
        if index_values
        else CapsuleStamp(0, 0)
    )
    if options.use_padding:
        index_capsule = Capsule.pack_fixed(
            index_values,
            options.preset,
            index_stamp,
            width=encoding.index_width,
            speed_tier=speed_tier,
        )
    else:
        index_capsule = Capsule.pack_variable(
            index_values, options.preset, index_stamp, speed_tier=speed_tier
        )

    return NominalEncodedVector(
        encoding.patterns,
        dict_capsule,
        index_capsule,
        encoding.index_width,
        len(values),
        len(encoding.dict_values),
    )


def _cheap_stamp(options: EncodingOptions) -> Optional[CapsuleStamp]:
    """The permissive stamp under ``cheap_stamps``, else None (= scan)."""
    return CapsuleStamp.permissive() if options.cheap_stamps else None


def _pack(values: Sequence[str], options: EncodingOptions) -> Capsule:
    stamp = _cheap_stamp(options)
    if options.use_padding:
        return Capsule.pack_fixed(
            values, options.preset, stamp=stamp,
            speed_tier=options.codec_speed_tier,
        )
    return Capsule.pack_variable(
        values, options.preset, stamp=stamp,
        speed_tier=options.codec_speed_tier,
    )
