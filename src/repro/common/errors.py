"""Exception hierarchy shared by the whole package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class FormatError(ReproError):
    """A serialized archive / CapsuleBox is malformed or truncated."""


class BlockMissingError(ReproError):
    """A block the caller named is not in the store: deleted under a
    reader (a lifecycle rewrite replaced it), or never written."""

    def __init__(self, name: str):
        super().__init__(f"block {name!r} is not in the store")
        self.name = name


class QuerySyntaxError(ReproError):
    """A query command could not be parsed."""


class CompressionError(ReproError):
    """The compression pipeline hit an unrecoverable condition."""


#: NUL is the Capsule pad/separator byte and the row separator of the
#: runtime-pattern splitter, so no value may hold one; both say so alike.
NUL_IN_VALUE = "log values must not contain NUL bytes"


class BudgetExceeded(ReproError):
    """A query overran one of its soft resource budgets.

    Raised from the charge path the moment the shared
    :class:`~repro.query.stats.BudgetMeter` crosses ``max_read_bytes`` or
    ``max_decoded_values``, so an expensive query aborts instead of
    thrashing the host.  ``ledger`` carries the partial
    :class:`~repro.query.stats.QueryLedger` (attached by the executor on
    the way out), so the caller can see exactly where the budget went.
    """

    def __init__(
        self,
        resource: str,
        limit: int,
        spent: int,
        ledger: object = None,
    ):
        super().__init__(
            f"query budget exceeded: {resource} spent {spent} > limit {limit}"
        )
        self.resource = resource
        self.limit = limit
        self.spent = spent
        self.ledger = ledger

