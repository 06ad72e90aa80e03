"""The Fig. 3 fingerprint kernel: the one definition of "same ⟨A, T, C, D⟩".

A *fingerprint* is the concatenation of the selected ⟨A, T, C, D⟩ features
at their chosen resolutions.  Two payments with equal fingerprints are
indistinguishable to an observer holding only that side-channel
information; the de-anonymizer asks how often a fingerprint pins down a
single payment (Fig. 3) or a single sender.

Every path that decides fingerprint equality goes through this module —
batch Fig. 3 and the per-sender IG (:class:`~repro.core.deanonymizer.
Deanonymizer`), the defenses, the attacker query
(:meth:`~repro.core.deanonymizer.Deanonymizer.candidate_rows`) and live
ingest (:class:`~repro.online.state.OnlineState`).  It has three parts:

* :func:`table1_buckets` — Table I amount bucketing, half-up, dividing by
  an exactly representable power of ten (:func:`bucket_fits` tells ingest
  ahead of time whether an amount's buckets fit in int64);
* :func:`chunk_keys` — one hashable key per payment of a
  :class:`PaymentChunk`, built from feature *values* (bucket, time
  bucket, currency code, destination), never from a dataset's
  factorization ranks, so keys from different chunks, processes and
  snapshots are equal exactly when the fingerprints are;
* :class:`FingerprintIndex` — the fold: fingerprint multiplicities over
  any sequence of chunks, and the unique count Fig. 3 reports.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np

from repro.analysis.dataset import TransactionDataset
from repro.core.resolution import (
    AmountResolution,
    FeatureList,
    TimeResolution,
    coarsen_timestamps,
    granularity_exponent,
    half_up,
)
from repro.errors import AnalysisError, BucketOverflowError
from repro.ledger.currency import Currency


#: Bucket indices are int64: a cast past this would wrap, and distinct
#: amounts would share one bucket.
_BUCKET_LIMIT = 2.0 ** 63


def _bucket_values(amounts, exponents):
    """``amounts / 10**exponents``, half-up, as float64 (scalar or ndarray)."""
    divisor = np.power(10.0, np.maximum(exponents, 0))
    multiplier = np.power(10.0, np.maximum(np.negative(exponents), 0))
    return half_up(amounts / divisor * multiplier)


def table1_buckets(amounts, exponents) -> np.ndarray:
    """Table I bucket index per amount: ``amount / 10**exponent``, half-up.

    ``10**e`` is an exact float for ``e >= 0`` and ``10**-e`` for
    ``e <= 0`` (``1e-5`` is not), so the quotient divides by ``10**e``
    when ``e > 0`` and multiplies by ``10**-e`` otherwise — one rounding
    either way.  An amount exactly on a bucket edge (XRP 150000 at 10^5)
    therefore reaches its exact ``x.5`` and half-up sends it to the upper
    bucket, the same one :meth:`repro.ledger.amounts.Amount.round_to`
    picks.

    Raises :class:`BucketOverflowError` when a bucket index does not fit
    in int64 (see :func:`bucket_fits`).
    """
    buckets = _bucket_values(
        np.asarray(amounts, dtype=np.float64), np.asarray(exponents, dtype=np.int64)
    )
    if np.any(np.abs(buckets) >= _BUCKET_LIMIT):
        raise BucketOverflowError("Table I bucket index does not fit in int64")
    return buckets.astype(np.int64)


def bucket_fits(amount: float, currency: Currency) -> bool:
    """Does ``amount`` have an int64 Table I bucket at every resolution?

    The finest resolution has the largest bucket index, so this checks
    that one.  An amount that passes never makes :func:`table1_buckets`
    raise, whatever feature list folds it.
    """
    exponent = granularity_exponent(currency, AmountResolution.MAX)
    return abs(amount) < _first_overflowing_amount(exponent)


@lru_cache(maxsize=None)
def _first_overflowing_amount(exponent: int) -> float:
    """The smallest amount whose bucket at ``exponent`` is past int64.

    Buckets never shrink as the amount grows, so the amounts that fit are
    exactly those below this one.  It is found with the kernel itself,
    stepping one float at a time from ``2**63 * 10**exponent``, which
    lies within a few steps of it.
    """
    amount = _BUCKET_LIMIT * 10.0 ** exponent
    while abs(_bucket_values(amount, exponent)) >= _BUCKET_LIMIT:
        amount = math.nextafter(amount, 0.0)
    while abs(_bucket_values(amount, exponent)) < _BUCKET_LIMIT:
        amount = math.nextafter(amount, math.inf)
    return amount


def round_amount(
    value: float, currency: Currency, resolution: AmountResolution
) -> float:
    """Round a single amount per Table I (scalar convenience API)."""
    exponent = granularity_exponent(currency, resolution)
    if exponent is None:
        return float("nan")
    return float(table1_buckets([value], [exponent])[0]) * 10.0 ** exponent


@dataclass(frozen=True)
class PaymentChunk:
    """The observable ⟨A, T, C, D⟩ columns of some payments, by value.

    ``destinations`` holds any hashable identity of each destination
    account, used verbatim in the key: an :class:`AccountID` for a
    dataset, its ``r…`` address on the live stream.  Keys are compared
    only within one kind of chunk, so either is exact.
    """

    amounts: np.ndarray  # float64, currency units
    timestamps: np.ndarray  # int64, non-negative epoch seconds
    currencies: Sequence[str]
    destinations: Sequence[Hashable]

    def __len__(self) -> int:
        return len(self.amounts)

    @classmethod
    def of_dataset(cls, dataset: TransactionDataset) -> "PaymentChunk":
        accounts = np.empty(len(dataset.accounts), dtype=object)
        accounts[:] = list(dataset.accounts)
        codes = np.array(dataset.currencies, dtype=object)
        return cls(
            amounts=dataset.amounts,
            timestamps=dataset.timestamps,
            currencies=codes[dataset.currency_ids].tolist(),
            destinations=accounts[dataset.destination_ids].tolist(),
        )


def _absolute_amounts(
    buckets: np.ndarray, exponents: np.ndarray
) -> Tuple[List[int], List[int]]:
    """``bucket * 10**exponent`` as a normalized (mantissa, exponent) pair.

    Trailing zeros move into the exponent (and zero is ``(0, 0)``), so two
    pairs are equal exactly when the absolute amounts are — whatever
    currency scaled each bucket.
    """
    mantissa = buckets.copy()
    exponent = exponents.copy()
    while True:
        shift = (mantissa % 10 == 0) & (mantissa != 0)
        if not shift.any():
            break
        mantissa[shift] //= 10
        exponent[shift] += 1
    exponent[mantissa == 0] = 0
    return mantissa.tolist(), exponent.tolist()


def chunk_keys(feature_list: FeatureList, chunk: PaymentChunk) -> List[tuple]:
    """One fingerprint key per payment of ``chunk`` under ``feature_list``.

    A key is the tuple of the selected feature values in a fixed order —
    amount bucket, time bucket, currency code, destination — with dropped
    features left out.  Without the currency feature the amount bucket is
    the currency-blind ``(mantissa, exponent)`` of :func:`_absolute_amounts`:
    20 EUR and 20 USD collide, 20 EUR and 200000 XRP do not.

    Raises :class:`AnalysisError` when every feature is dropped — an empty
    fingerprint identifies nothing.
    """
    columns: List[Sequence] = []
    if feature_list.amount is not AmountResolution.NONE:
        exponent_of: Dict[str, int] = {
            code: granularity_exponent(Currency(code), feature_list.amount)
            for code in set(chunk.currencies)
        }
        exponents = np.fromiter(
            (exponent_of[code] for code in chunk.currencies),
            dtype=np.int64,
            count=len(chunk),
        )
        buckets = table1_buckets(chunk.amounts, exponents)
        if feature_list.use_currency:
            columns.append(buckets.tolist())
        else:
            columns.extend(_absolute_amounts(buckets, exponents))
    if feature_list.time is not TimeResolution.NONE:
        columns.append(
            coarsen_timestamps(chunk.timestamps, feature_list.time).tolist()
        )
    if feature_list.use_currency:
        columns.append(chunk.currencies)
    if feature_list.use_destination:
        columns.append(chunk.destinations)
    if not columns:
        raise AnalysisError("feature list selects no features at all")
    return list(zip(*columns))


class FingerprintIndex:
    """The fingerprint multiset of one feature list, folded chunk by chunk.

    ``counts`` maps key -> multiplicity; :attr:`unique`, the number of
    keys seen exactly once, *is* Fig. 3's identified-payment count.  The
    fold is a multiset sum, so any split of the payments into chunks,
    absorbed in any order, gives the same counts.
    """

    def __init__(self, feature_list: FeatureList, counts=None):
        self.feature_list = feature_list
        self.counts: Counter = Counter(counts or {})

    def absorb(self, chunk: PaymentChunk) -> List[tuple]:
        """Count every payment of ``chunk``; returns their keys in order."""
        keys = chunk_keys(self.feature_list, chunk)
        self.counts.update(keys)
        return keys

    @property
    def unique(self) -> int:
        return list(self.counts.values()).count(1)

    def unique_mask(self, keys: Sequence[tuple]) -> np.ndarray:
        """Per key: does its fingerprint occur exactly once?"""
        counts = self.counts
        return np.fromiter(
            (counts[key] == 1 for key in keys), dtype=bool, count=len(keys)
        )

    def payload(self) -> dict:
        """JSON form: the keys column by column, then their counts.

        Keys are in first-seen order.  Chunks fold in arrival order, so
        that order is a function of the absorbed payment sequence alone —
        the same for a run restored from this payload and one that never
        stopped.
        """
        return {
            "label": self.feature_list.label(),
            "keys": list(zip(*self.counts)),
            "counts": list(self.counts.values()),
        }

    @classmethod
    def from_payload(
        cls, feature_list: FeatureList, payload: dict
    ) -> "FingerprintIndex":
        # One object per distinct value, as in a live fold: parsed JSON
        # holds a fresh copy of every repeated string and integer.
        shared: Dict[Hashable, Hashable] = {}
        columns = [
            [shared.setdefault(value, value) for value in column]
            for column in payload["keys"]
        ]
        return cls(feature_list, dict(zip(zip(*columns), payload["counts"])))


def single_sender_mask(
    keys: Sequence[tuple], sender_ids: np.ndarray
) -> np.ndarray:
    """Per payment: do all payments sharing its fingerprint have one sender?

    A fingerprint identifies the sender when *all* payments carrying it
    come from the same account — even if there are several (the paper's
    IG is about identifying S, not the payment).
    """
    sender_of: Dict[tuple, int] = {}
    for key, sender in zip(keys, sender_ids.tolist()):
        if sender_of.setdefault(key, sender) != sender:
            sender_of[key] = -1
    return np.fromiter(
        (sender_of[key] != -1 for key in keys), dtype=bool, count=len(keys)
    )
