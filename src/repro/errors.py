"""Exception hierarchy for the :mod:`repro` library.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch a single base class at API boundaries.  Subsystems define narrower
classes below; modules never raise bare ``ValueError``/``RuntimeError`` for
domain failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class LedgerError(ReproError):
    """Base class for ledger-state and data-model errors."""


class InvalidAddressError(LedgerError):
    """A Ripple address failed base58/checksum validation."""


class InvalidCurrencyError(LedgerError):
    """A currency code is malformed (not three ASCII characters)."""


class InvalidAmountError(LedgerError):
    """An amount is malformed, out of range, or mixes currencies."""


class UnknownAccountError(LedgerError):
    """An operation referenced an account that does not exist in state."""


class InsufficientBalanceError(LedgerError):
    """An account attempted to spend more than its available balance."""


class TrustLineError(LedgerError):
    """A trust-line operation was invalid (self-trust, bad limit, ...)."""


class TransactionError(ReproError):
    """Base class for transaction construction/application failures."""


class InvalidTransactionError(TransactionError):
    """A transaction failed static validation (malformed fields)."""


class SignatureError(TransactionError):
    """A cryptographic signature failed to verify."""


class PaymentError(ReproError):
    """Base class for payment-engine failures."""


class NoPathError(PaymentError):
    """No usable payment path exists between sender and receiver."""


class PathDryError(PaymentError):
    """A candidate path exists but carries insufficient liquidity."""


class OfferError(PaymentError):
    """An order-book operation was invalid."""


class ConsensusError(ReproError):
    """Base class for consensus-protocol failures."""


class QuorumError(ConsensusError):
    """A quorum/threshold configuration is unsatisfiable."""


class StreamError(ReproError):
    """Base class for validation-stream collection failures."""


class SyntheticError(ReproError):
    """Base class for synthetic-history generation failures."""


class AnalysisError(ReproError):
    """Base class for analysis/dataset failures."""


class BucketOverflowError(AnalysisError):
    """A Table I amount bucket does not fit in a signed 64-bit integer."""


class IngestError(AnalysisError):
    """An archive line failed parsing or schema validation on ingest.

    Carries the 1-based line number of the offending record so a 500 GB
    download can be repaired without bisecting it by hand.
    """

    def __init__(self, message: str, line_number: int = 0):
        super().__init__(message)
        self.line_number = line_number


class SchemaError(IngestError):
    """Strict ingest met an archive line that fails parsing or schema
    validation (the header counts as line 1)."""


class QuarantineOverflowError(IngestError):
    """Lenient ingest aborted: too large a fraction of lines was bad."""


class MissingInputError(AnalysisError):
    """A named input file (an archive) does not exist."""


class IntegrityError(AnalysisError):
    """On-disk data failed checksum/manifest verification.

    Raised when a sidecar manifest disagrees with the bytes actually on
    disk — a truncated download, a bit flip, or a crash that outran the
    write path.  (Subclasses :class:`AnalysisError` so existing boundary
    handlers keep working; it is a :class:`ReproError` like everything
    else.)
    """


#: Input errors no retry can heal: the input is corrupt, absent, malformed
#: under strict ingest, or beyond the quarantine tolerance, so every retry
#: would fail the same way.  Retry loops raise these on the first attempt.
PERMANENT_ERRORS = (
    IntegrityError,
    MissingInputError,
    SchemaError,
    QuarantineOverflowError,
)
