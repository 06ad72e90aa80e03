"""Countermeasures against payment de-anonymization, and their price.

The paper closes Section V noting that the Bitcoin fix — one wallet per
transaction — "is difficult to achieve in Ripple due to its underlying
trust backbone".  This module implements and evaluates the candidate
defenses quantitatively:

* **amount padding** — senders round amounts up to coarse price points, so
  the amount feature carries less information;
* **settlement batching** — the ledger publishes payments in settlement
  windows (timestamps quantized to N minutes), blunting the timestamp,
  the paper's most informative feature;
* **per-payment wallets** — every payment originates from a fresh
  pseudonym; the de-anonymization still *matches* the payment, but the
  matched sender links to nothing else.  The cost is what the paper
  predicts: each fresh wallet must be activated with XRP and must open
  trust lines before it can pay.

Each defense maps a dataset to a transformed dataset; ``evaluate_defense``
reports the IG before/after plus the defense's cost metrics.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.dataset import TransactionDataset
from repro.core.deanonymizer import Deanonymizer
from repro.core.resolution import FIGURE3_FEATURE_LISTS, FeatureList
from repro.errors import AnalysisError
from repro.ledger.accounts import AccountID


def _clone_with(
    dataset: TransactionDataset,
    timestamps: Optional[np.ndarray] = None,
    amounts: Optional[np.ndarray] = None,
    sender_ids: Optional[np.ndarray] = None,
    accounts: Optional[list] = None,
) -> TransactionDataset:
    return TransactionDataset(
        accounts=accounts if accounts is not None else dataset.accounts,
        currencies=dataset.currencies,
        timestamps=timestamps if timestamps is not None else dataset.timestamps,
        sender_ids=sender_ids if sender_ids is not None else dataset.sender_ids,
        destination_ids=dataset.destination_ids,
        currency_ids=dataset.currency_ids,
        amounts=amounts if amounts is not None else dataset.amounts,
        intermediate_hops=dataset.intermediate_hops,
        parallel_paths=dataset.parallel_paths,
        is_xrp_direct=dataset.is_xrp_direct,
        cross_currency=dataset.cross_currency,
        kind_codes=dataset.kind_codes,
        kind_vocab=dataset.kind_vocab,
    )


@dataclass
class DefenseReport:
    """IG impact and cost of one defense."""

    name: str
    ig_before: Dict[str, float]
    ig_after: Dict[str, float]
    #: defense-specific cost metrics (overpayment, latency, wallets, ...).
    costs: Dict[str, float] = field(default_factory=dict)

    def reduction(self, label: str) -> float:
        """Absolute IG reduction (percentage points) for a feature list."""
        return self.ig_before[label] - self.ig_after[label]


def amount_padding(dataset: TransactionDataset, decades: float = 0.5) -> TransactionDataset:
    """Round every amount *up* to a coarse grid (half-decade by default).

    Rounding up (never down) keeps payments sufficient — the receiver gets
    at least the price — so the cost is overpayment.
    """
    if decades <= 0:
        raise AnalysisError("padding grid must be positive")
    logs = np.log10(np.maximum(dataset.amounts, 1e-9))
    padded = 10.0 ** (np.ceil(logs / decades) * decades)
    return _clone_with(dataset, amounts=np.round(padded, 6))


def settlement_batching(dataset: TransactionDataset, window_seconds: int = 900) -> TransactionDataset:
    """Publish payments only at settlement-window boundaries.

    All payments inside a window share the window's closing timestamp, so
    second-level timing — the paper's strongest feature — disappears.
    """
    if window_seconds <= 0:
        raise AnalysisError("settlement window must be positive")
    batched = (dataset.timestamps // window_seconds + 1) * window_seconds
    return _clone_with(dataset, timestamps=batched)


def per_payment_wallets(dataset: TransactionDataset) -> TransactionDataset:
    """Replace every payment's sender with a fresh pseudonym.

    The fingerprint still matches the payment, but each matched "sender"
    has exactly one payment — identification reveals a throwaway identity
    with no history.
    """
    accounts = list(dataset.accounts)
    fresh_ids = np.empty(len(dataset), dtype=np.int64)
    for row in range(len(dataset)):
        seed = f"fresh-wallet-{row}".encode()
        fresh = AccountID(hashlib.sha256(seed).digest()[:20])
        fresh_ids[row] = len(accounts)
        accounts.append(fresh)
    return _clone_with(dataset, sender_ids=fresh_ids, accounts=accounts)


def _history_exposure(dataset: TransactionDataset, feature_list: FeatureList) -> float:
    """Average number of *other* payments an identified sender leaks.

    This is the quantity the user actually cares about: IG says "the
    payment is matched"; exposure says "and here is how much more of your
    life comes with it".
    """
    mask = Deanonymizer(dataset).identified_mask(feature_list)
    if not mask.any():
        return 0.0
    counts = np.bincount(dataset.sender_ids, minlength=len(dataset.accounts))
    exposed = counts[dataset.sender_ids[mask]] - 1
    return float(exposed.mean())


def evaluate_defense(
    dataset: TransactionDataset,
    name: str,
    transform: Callable[[TransactionDataset], TransactionDataset],
    feature_lists: Sequence[FeatureList] = FIGURE3_FEATURE_LISTS[:1],
) -> DefenseReport:
    """Measure a defense: IG before vs. after, plus cost metrics."""
    before = Deanonymizer(dataset)
    transformed = transform(dataset)
    after = Deanonymizer(transformed)

    ig_before = {}
    ig_after = {}
    for feature_list in feature_lists:
        label = feature_list.label()
        ig_before[label] = before.information_gain(feature_list).percent
        ig_after[label] = after.information_gain(feature_list).percent

    costs: Dict[str, float] = {}
    if not np.array_equal(transformed.amounts, dataset.amounts):
        overpay = (transformed.amounts - dataset.amounts) / np.maximum(
            dataset.amounts, 1e-9
        )
        costs["mean_overpayment_fraction"] = float(np.mean(overpay))
    if not np.array_equal(transformed.timestamps, dataset.timestamps):
        delay = transformed.timestamps - dataset.timestamps
        costs["mean_settlement_delay_seconds"] = float(np.mean(delay))
    if not np.array_equal(transformed.sender_ids, dataset.sender_ids):
        costs["fresh_wallets_needed"] = float(len(dataset))
        # Each fresh wallet must open at least one trust line (and be
        # activated with XRP) before it can send an IOU payment — the
        # bootstrapping cost the paper predicts makes this impractical.
        iou_rows = ~dataset.is_xrp_direct
        costs["trust_lines_to_bootstrap"] = float(iou_rows.sum())
        costs["history_exposure_after"] = _history_exposure(
            transformed, feature_lists[0]
        )
        costs["history_exposure_before"] = _history_exposure(
            dataset, feature_lists[0]
        )
    return DefenseReport(name=name, ig_before=ig_before, ig_after=ig_after, costs=costs)


def standard_defense_suite(
    dataset: TransactionDataset,
    feature_lists: Sequence[FeatureList] = FIGURE3_FEATURE_LISTS[:1],
) -> List[DefenseReport]:
    """Evaluate the three canonical defenses on one dataset."""
    return [
        evaluate_defense(dataset, "amount-padding", amount_padding, feature_lists),
        evaluate_defense(
            dataset, "settlement-batching", settlement_batching, feature_lists
        ),
        evaluate_defense(
            dataset, "per-payment-wallets", per_payment_wallets, feature_lists
        ),
    ]
