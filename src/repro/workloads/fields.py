"""Deterministic field generators for synthetic log workloads.

The paper's evaluation data is proprietary; these generators synthesize
variables with exactly the characteristics §2.3 observes in production:

* ids with fixed prefixes (``blk_<*>``, ``T<*>``);
* numeric values confined to a per-block range (timestamps, counters);
* paths under a common root and IPs within a common subnet;
* low-duplication "real" variables and high-duplication "nominal"
  variables (states, error codes, user names).

Every field is a callable ``field(rng, i) -> str`` where *rng* is the
spec's seeded RNG and *i* the line index, so a (spec, seed, size) triple
always generates byte-identical logs.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence


class Field:
    """Base class: one variable position of a template."""

    def __call__(self, rng: random.Random, i: int) -> str:  # pragma: no cover
        raise NotImplementedError


class Timestamp(Field):
    """Monotonically increasing wall-clock strings.

    Values share the date prefix within a run — the runtime-pattern
    opportunity the paper calls out for January-2021 timestamps.
    """

    def __init__(
        self,
        fmt: str = "{date} {hh:02d}:{mm:02d}:{ss:02d}.{ms:03d}",
        date: str = "2020-04-08",
        start_seconds: int = 5 * 3600,
        step_ms: int = 40,
    ):
        self.fmt = fmt
        self.date = date
        self.start_seconds = start_seconds
        self.step_ms = step_ms

    def __call__(self, rng: random.Random, i: int) -> str:
        total_ms = self.start_seconds * 1000 + i * self.step_ms + rng.randrange(
            self.step_ms
        )
        seconds, ms = divmod(total_ms, 1000)
        hh, rem = divmod(seconds, 3600)
        mm, ss = divmod(rem, 60)
        return self.fmt.format(date=self.date, hh=hh % 24, mm=mm, ss=ss, ms=ms)


class HexId(Field):
    """Fixed-width uppercase hex identifiers, optionally prefixed.

    ``shared_prefix_len`` hex digits are frozen per instance so the values
    exhibit the common-literal-infix structure the LCS probe discovers.
    """

    def __init__(self, width: int = 16, prefix: str = "", shared_prefix_len: int = 4):
        self.width = width
        self.prefix = prefix
        self.shared_prefix_len = min(shared_prefix_len, width)
        self._shared: Optional[str] = None

    def __call__(self, rng: random.Random, i: int) -> str:
        if self._shared is None:
            self._shared = "".join(
                rng.choice("0123456789ABCDEF") for _ in range(self.shared_prefix_len)
            )
        tail_len = self.width - self.shared_prefix_len
        tail = "".join(rng.choice("0123456789ABCDEF") for _ in range(tail_len))
        return f"{self.prefix}{self._shared}{tail}"


class Counter(Field):
    """Increasing decimal counters (request ids, packet ids)."""

    def __init__(self, start: int = 100000, step: int = 1, jitter: int = 3):
        self.start = start
        self.step = step
        self.jitter = jitter

    def __call__(self, rng: random.Random, i: int) -> str:
        return str(self.start + i * self.step + rng.randrange(self.jitter + 1))


class IPv4(Field):
    """Addresses within a common subnet (Log G's ``11.187.<*>.<*>``)."""

    def __init__(self, subnet: str = "11.187", port: bool = False):
        self.subnet = subnet
        self.port = port

    def __call__(self, rng: random.Random, i: int) -> str:
        addr = f"{self.subnet}.{rng.randrange(256)}.{rng.randrange(256)}"
        if self.port:
            return f"{addr}:{rng.randrange(1024, 65536)}"
        return addr


class Path(Field):
    """File paths under a common root (Log A's ``/root/usr/admin/<*>``).

    ``ids`` controls the unique-value count: small values make the field a
    high-duplication *nominal* vector (the paper's file-path example),
    large values make it *real*.
    """

    def __init__(
        self,
        root: str = "/root/usr/admin",
        stems: Sequence[str] = ("data", "meta", "journal", "chunk"),
        ext: str = ".log",
        ids: int = 10000,
    ):
        self.root = root
        self.stems = list(stems)
        self.ext = ext
        self.ids = ids

    def __call__(self, rng: random.Random, i: int) -> str:
        stem = rng.choice(self.stems)
        return f"{self.root}/{stem}_{rng.randrange(self.ids)}{self.ext}"


class Enum(Field):
    """A small closed vocabulary — the canonical *nominal* variable."""

    def __init__(self, choices: Sequence[str], weights: Optional[Sequence[int]] = None):
        self.choices = list(choices)
        self.weights = list(weights) if weights else None

    def __call__(self, rng: random.Random, i: int) -> str:
        if self.weights:
            return rng.choices(self.choices, weights=self.weights, k=1)[0]
        return rng.choice(self.choices)


class Number(Field):
    """Uniform number in a closed per-block range.

    ``fmt`` is a :func:`format` spec applied to the integer (``"02d"``,
    ``"06d"``, ``"08x"``, ...), so templates keep plain ``{}`` slots.
    """

    def __init__(self, lo: int = 0, hi: int = 100, fmt: str = "d"):
        self.lo = lo
        self.hi = hi
        self.fmt = fmt

    def __call__(self, rng: random.Random, i: int) -> str:
        return format(rng.randrange(self.lo, self.hi), self.fmt)


class TimeHMS(Field):
    """A random ``HH:MM:SS`` clock reading (syslog-style logs)."""

    def __init__(self, h_lo: int = 0, h_hi: int = 24, sep: str = ":"):
        self.h_lo = h_lo
        self.h_hi = h_hi
        self.sep = sep

    def __call__(self, rng: random.Random, i: int) -> str:
        hh = rng.randrange(self.h_lo, self.h_hi)
        return (
            f"{hh:02d}{self.sep}{rng.randrange(60):02d}{self.sep}{rng.randrange(60):02d}"
        )


class PrefixedId(Field):
    """``blk_<digits>``-style ids: fixed prefix + decimal body."""

    def __init__(self, prefix: str = "blk_", digits: int = 10):
        self.prefix = prefix
        self.digits = digits

    def __call__(self, rng: random.Random, i: int) -> str:
        body = rng.randrange(10 ** (self.digits - 1), 10**self.digits)
        return f"{self.prefix}{body}"


class Literal(Field):
    """A constant value — used to plant query targets in rare templates."""

    def __init__(self, value: str):
        self.value = value

    def __call__(self, rng: random.Random, i: int) -> str:
        return self.value


class Choice(Field):
    """Pick a whole pre-built string (hostnames, thread names, users)."""

    def __init__(self, values: Sequence[str]):
        self.values = list(values)

    def __call__(self, rng: random.Random, i: int) -> str:
        return rng.choice(self.values)


class Sometimes(Field):
    """Emit ``special`` with probability *p*, else delegate to ``base``.

    This is how each workload guarantees its Table 1 query has hits: the
    queried id appears at a controlled, low frequency.
    """

    def __init__(self, special: str, base: Field, p: float = 0.002):
        self.special = special
        self.base = base
        self.p = p

    def __call__(self, rng: random.Random, i: int) -> str:
        if rng.random() < self.p:
            return self.special
        return self.base(rng, i)


class Compose(Field):
    """Concatenate several fields/literals into one token."""

    def __init__(self, *parts):
        self.parts = [Literal(p) if isinstance(p, str) else p for p in parts]

    def __call__(self, rng: random.Random, i: int) -> str:
        return "".join(part(rng, i) for part in self.parts)


#: Vocabulary used by free-text-ish nominal fields.  Deliberately mixes
#: character classes (case, digits, punctuation) the way real log
#: vocabularies do — §2.2's point is precisely that whole-vector summaries
#: over such mixtures are too general to filter well.
WORDS: List[str] = (
    "connect disconnect open close flush seal append commit rollback elect "
    "replicate migrate balance throttle evict prefetch schedule retry abort "
    "submit finish launch restart register deregister heartbeat snapshot "
    "Rebalance FastPath SlowPath V2-migrate gc-phase1 gc-phase2 IoDrain "
    "WriteBack ReadAhead L0-compact L1-compact checkpoint-7 Recover2PC"
).split()


class Word(Field):
    """A nominal word drawn from a fixed vocabulary."""

    def __init__(self, vocab: Optional[Sequence[str]] = None):
        self.vocab = list(vocab) if vocab else WORDS

    def __call__(self, rng: random.Random, i: int) -> str:
        return rng.choice(self.vocab)
