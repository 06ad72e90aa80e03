"""Feature resolutions for the de-anonymization study (Table I, Fig. 3).

A transaction fingerprint is the tuple ⟨A, T, C, D⟩ — amount, timestamp,
currency, destination — each taken at some *resolution*:

* the **amount** is rounded to the closest power of ten whose exponent
  depends on the currency's market strength (Table I): a BTC amount at
  maximum resolution rounds to the closest 10⁻³, a USD amount to the
  closest 10¹, an XRP amount to the closest 10⁵;
* the **timestamp** is truncated from seconds down to minutes, hours, or
  whole days;
* **currency** and **destination** are nominal: included or dropped.

Fig. 3 also uses an amount level ``Ah`` ("high") between max and average;
Table I does not give it a separate granularity, so we treat it as the
Table I maximum — the ⟨Ah, Tmn, C, D⟩ row then isolates the effect of
coarsening the timestamp to minutes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.ledger.currency import Currency, Strength, strength_of

#: Granularity exponents per strength group: 10^x at (max, average, low).
#: These are exactly the Table I rows.
GRANULARITY_EXPONENTS: Dict[Strength, Tuple[int, int, int]] = {
    Strength.POWERFUL: (-3, -2, -1),
    Strength.MEDIUM: (1, 2, 3),
    Strength.WEAK: (5, 6, 7),
}


class AmountResolution(enum.Enum):
    """Resolution of the amount feature (subscripts of Fig. 3)."""

    MAX = "m"
    HIGH = "h"  # Table I gives no separate granularity; treated as MAX.
    AVERAGE = "a"
    LOW = "l"
    NONE = "-"

    def exponent_offset(self) -> Optional[int]:
        """Offset into the Table I triplet, or None when dropped."""
        if self is AmountResolution.NONE:
            return None
        if self in (AmountResolution.MAX, AmountResolution.HIGH):
            return 0
        if self is AmountResolution.AVERAGE:
            return 1
        return 2


class TimeResolution(enum.Enum):
    """Resolution of the timestamp feature."""

    SECONDS = "sc"
    MINUTES = "mn"
    HOURS = "hr"
    DAYS = "dy"
    NONE = "-"

    def bucket_seconds(self) -> Optional[int]:
        if self is TimeResolution.NONE:
            return None
        return {
            TimeResolution.SECONDS: 1,
            TimeResolution.MINUTES: 60,
            TimeResolution.HOURS: 3600,
            TimeResolution.DAYS: 86400,
        }[self]


def granularity_exponent(currency: Currency, resolution: AmountResolution) -> Optional[int]:
    """The Table I rounding exponent for ``currency`` at ``resolution``."""
    offset = resolution.exponent_offset()
    if offset is None:
        return None
    return GRANULARITY_EXPONENTS[strength_of(currency)][offset]


def half_up(values):
    """Round half-up: ``floor(x + 0.5)`` (scalar or ndarray).

    Table I coarsening must put boundary amounts in a *deterministic*
    bucket: ``np.round`` rounds half-to-even (banker's rounding), so 0.5
    and 1.5 land in the same bucket (0 and 2) while 2.5 joins 2 — amounts
    exactly on a bucket edge would split inconsistently.  Half-up matches
    :meth:`repro.ledger.amounts.Amount.round_to` (half-away-from-zero for
    the positive amounts a payment can carry); every path buckets through
    :func:`repro.core.fingerprint.table1_buckets`, which applies it.
    """
    return np.floor(np.asarray(values, dtype=np.float64) + 0.5)


def coarsen_timestamps(timestamps: np.ndarray, resolution: TimeResolution) -> np.ndarray:
    """Truncate timestamps to the resolution's bucket (vectorized).

    Timestamps are epoch seconds and must be non-negative: floor division
    would silently place pre-epoch timestamps in the *earlier* bucket
    (``-1 // 60 == -1``), which is neither the truncation an observer of
    wall-clock times applies nor an error — so negative inputs are
    rejected outright instead of producing shifted buckets.
    """
    bucket = resolution.bucket_seconds()
    if bucket is None:
        raise ValueError("cannot coarsen at resolution NONE")
    timestamps = np.asarray(timestamps)
    if timestamps.size and int(timestamps.min()) < 0:
        raise ValueError(
            "negative (pre-epoch) timestamps are not supported; "
            "shift the history to non-negative epoch seconds first"
        )
    return (timestamps // bucket) * bucket


@dataclass(frozen=True)
class FeatureList:
    """A ⟨A, T, C, D⟩ feature selection — one row of Fig. 3."""

    amount: AmountResolution = AmountResolution.MAX
    time: TimeResolution = TimeResolution.SECONDS
    use_currency: bool = True
    use_destination: bool = True

    def label(self) -> str:
        """Render like the paper: ``⟨Am; Tsc; C; D⟩``."""
        amount = "-" if self.amount is AmountResolution.NONE else f"A{self.amount.value}"
        time = "-" if self.time is TimeResolution.NONE else f"T{self.time.value}"
        currency = "C" if self.use_currency else "-"
        destination = "D" if self.use_destination else "-"
        return f"<{amount}; {time}; {currency}; {destination}>"


#: The ten feature lists of Fig. 3, in the paper's order.
FIGURE3_FEATURE_LISTS: Tuple[FeatureList, ...] = (
    FeatureList(AmountResolution.MAX, TimeResolution.SECONDS, True, True),
    FeatureList(AmountResolution.MAX, TimeResolution.SECONDS, False, True),
    FeatureList(AmountResolution.MAX, TimeResolution.SECONDS, True, False),
    FeatureList(AmountResolution.NONE, TimeResolution.SECONDS, True, True),
    FeatureList(AmountResolution.HIGH, TimeResolution.MINUTES, True, True),
    FeatureList(AmountResolution.AVERAGE, TimeResolution.HOURS, True, True),
    FeatureList(AmountResolution.LOW, TimeResolution.DAYS, True, True),
    FeatureList(AmountResolution.MAX, TimeResolution.NONE, True, True),
    FeatureList(AmountResolution.MAX, TimeResolution.NONE, False, False),
    FeatureList(AmountResolution.LOW, TimeResolution.DAYS, False, False),
)
