"""The de-anonymization study itself: information gain over feature lists.

The paper defines the *information gain* ``IG(LT)`` of a feature list as
the percentage of payments whose sender can be uniquely identified from the
list's features at their resolutions.  This module computes IG for any
feature list, reproduces the ten rows of Fig. 3, and exposes the query
interface an attacker would use (given observed features, return the
candidate senders).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.dataset import TransactionDataset
from repro.core.fingerprint import (
    FeatureColumnCache,
    FingerprintMatrix,
    build_fingerprints,
    unique_fingerprint_mask,
    unique_sender_mask,
)
from repro.core.resolution import (
    FIGURE3_FEATURE_LISTS,
    AmountResolution,
    FeatureList,
    TimeResolution,
    half_up,
)
from repro.errors import AnalysisError
from repro.ledger.accounts import AccountID
from repro.obs.metrics import METRICS


@dataclass(frozen=True)
class InformationGain:
    """IG result for one feature list."""

    feature_list: FeatureList
    identified: int
    total: int

    @property
    def fraction(self) -> float:
        return self.identified / self.total if self.total else 0.0

    @property
    def percent(self) -> float:
        return 100.0 * self.fraction

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"{self.feature_list.label():28s} IG = {self.percent:6.2f}%"


class Deanonymizer:
    """Computes IG and answers attacker queries over one dataset."""

    def __init__(self, dataset: TransactionDataset):
        if len(dataset) == 0:
            raise AnalysisError("empty dataset")
        self.dataset = dataset
        self._cache: Dict[FeatureList, FingerprintMatrix] = {}
        self._columns = FeatureColumnCache(dataset)

    def _fingerprints(self, feature_list: FeatureList) -> FingerprintMatrix:
        found = self._cache.get(feature_list)
        if found is None:
            found = build_fingerprints(
                self.dataset, feature_list, cache=self._columns
            )
            self._cache[feature_list] = found
        return found

    def information_gain(
        self, feature_list: FeatureList, strict: bool = True
    ) -> InformationGain:
        """IG of one feature list (one bar of Fig. 3).

        ``strict=True`` is the paper's measure: the payment's fingerprint
        occurs exactly once in the whole history.  ``strict=False`` is the
        stronger attacker model: a fingerprint shared by several payments
        still identifies the sender when all of them come from one account
        (spam campaigns make this mode substantially more powerful).
        """
        with METRICS.timer("deanon.information_gain"):
            fingerprints = self._fingerprints(feature_list)
            if strict:
                mask = unique_fingerprint_mask(fingerprints)
            else:
                mask = unique_sender_mask(fingerprints, self.dataset.sender_ids)
            return InformationGain(
                feature_list=feature_list,
                identified=int(mask.sum()),
                total=len(self.dataset),
            )

    def figure3(
        self, feature_lists: Sequence[FeatureList] = FIGURE3_FEATURE_LISTS
    ) -> List[InformationGain]:
        """All rows of Fig. 3, in the paper's order."""
        return [self.information_gain(fl) for fl in feature_lists]

    # Attacker-facing queries ----------------------------------------------------

    def candidate_rows(
        self,
        feature_list: FeatureList,
        amount: Optional[float] = None,
        currency: Optional[str] = None,
        timestamp: Optional[int] = None,
        destination: Optional[AccountID] = None,
    ) -> np.ndarray:
        """Row indices of payments matching the observed features.

        The observation is coarsened exactly the way the dataset's
        fingerprints were, so matching is bucket-to-bucket.
        """
        dataset = self.dataset
        mask = np.ones(len(dataset), dtype=bool)
        # Both the currency feature and the amount bucketing need the
        # currency's row set; compute it once.
        currency_rows: Optional[np.ndarray] = None
        if currency is not None:
            currency_rows = dataset.rows_for_currency(currency)

        if feature_list.use_currency:
            if currency_rows is None:
                raise AnalysisError("feature list requires a currency observation")
            mask &= currency_rows

        if feature_list.use_destination:
            if destination is None:
                raise AnalysisError("feature list requires a destination observation")
            destination_id = dataset.account_id_of(destination)
            if destination_id is None:
                return np.empty(0, dtype=np.int64)
            mask &= dataset.destination_ids == destination_id

        if feature_list.time is not TimeResolution.NONE:
            if timestamp is None:
                raise AnalysisError("feature list requires a timestamp observation")
            if int(timestamp) < 0:
                raise AnalysisError(
                    "negative (pre-epoch) timestamp observation; timestamps "
                    "are non-negative epoch seconds"
                )
            bucket = feature_list.time.bucket_seconds()
            observed_bucket = (int(timestamp) // bucket) * bucket
            mask &= self._columns.time_column(feature_list.time) == observed_bucket

        if feature_list.amount is not AmountResolution.NONE:
            if amount is None or currency_rows is None:
                raise AnalysisError(
                    "feature list requires amount and currency observations"
                )
            per_row = self._columns.per_row_exponents()
            buckets = self._columns.amount_column(feature_list.amount, True)
            if not currency_rows.any():
                return np.empty(0, dtype=np.int64)
            row_exponent = int(per_row[np.argmax(currency_rows)])
            offset = feature_list.amount.exponent_offset()
            # Same half-up tie rule as the dataset-side bucketing, so an
            # observation exactly on a bucket edge matches its payments.
            observed_bucket = int(
                half_up(amount / 10.0 ** (row_exponent + offset))
            )
            mask &= buckets == observed_bucket

        return np.flatnonzero(mask)

    def candidate_senders(
        self,
        feature_list: FeatureList,
        amount: Optional[float] = None,
        currency: Optional[str] = None,
        timestamp: Optional[int] = None,
        destination: Optional[AccountID] = None,
    ) -> List[AccountID]:
        """Distinct senders compatible with the observation."""
        rows = self.candidate_rows(
            feature_list,
            amount=amount,
            currency=currency,
            timestamp=timestamp,
            destination=destination,
        )
        sender_ids = np.unique(self.dataset.sender_ids[rows])
        return [self.dataset.accounts[int(s)] for s in sender_ids]
