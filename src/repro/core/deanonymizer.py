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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.dataset import TransactionDataset
from repro.core.fingerprint import (
    FingerprintIndex,
    PaymentChunk,
    chunk_keys,
    single_sender_mask,
)
from repro.core.resolution import (
    FIGURE3_FEATURE_LISTS,
    AmountResolution,
    FeatureList,
    TimeResolution,
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
        self._chunk = PaymentChunk.of_dataset(dataset)
        #: feature list -> (the dataset folded into one index, row keys).
        self._cache: Dict[FeatureList, Tuple[FingerprintIndex, List[tuple]]] = {}

    def _fold(self, feature_list: FeatureList) -> Tuple[FingerprintIndex, List[tuple]]:
        found = self._cache.get(feature_list)
        if found is None:
            index = FingerprintIndex(feature_list)
            found = self._cache[feature_list] = (index, index.absorb(self._chunk))
        return found

    def identified_mask(
        self, feature_list: FeatureList, strict: bool = True
    ) -> np.ndarray:
        """Per payment: is it identified under ``feature_list``?

        ``strict`` selects the measure, as in :meth:`information_gain`.
        """
        index, keys = self._fold(feature_list)
        if strict:
            return index.unique_mask(keys)
        return single_sender_mask(keys, self.dataset.sender_ids)

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
            if strict:
                identified = self._fold(feature_list)[0].unique
            else:
                identified = int(self.identified_mask(feature_list, False).sum())
            return InformationGain(
                feature_list=feature_list,
                identified=identified,
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
        """Row indices of payments whose fingerprint equals the observation's.

        The observation goes through the same key function as the
        dataset, so a payment observed at its own recorded features
        always matches its own row.
        """
        if feature_list.use_currency and currency is None:
            raise AnalysisError("feature list requires a currency observation")
        if feature_list.use_destination and destination is None:
            raise AnalysisError("feature list requires a destination observation")
        if feature_list.time is not TimeResolution.NONE:
            if timestamp is None:
                raise AnalysisError("feature list requires a timestamp observation")
            if int(timestamp) < 0:
                raise AnalysisError(
                    "negative (pre-epoch) timestamp observation; timestamps "
                    "are non-negative epoch seconds"
                )
        if feature_list.amount is not AmountResolution.NONE and (
            amount is None or currency is None
        ):
            raise AnalysisError(
                "feature list requires amount and currency observations"
            )
        observed = PaymentChunk(
            amounts=np.array([0.0 if amount is None else amount]),
            timestamps=np.array([0 if timestamp is None else int(timestamp)]),
            currencies=[currency],
            destinations=[destination],
        )
        key = chunk_keys(feature_list, observed)[0]
        keys = self._fold(feature_list)[1]
        return np.flatnonzero([row_key == key for row_key in keys])

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
