"""Population analytics: users, activity, and system growth.

The appendix reports: "As of August 2015, Ripple counted more than 165K
users, +55K of which were actively participating".  This module computes
the equivalent statistics over a history — registered vs. active accounts,
the activity distribution (heavy-tailed, like every payment network), and
the growth of payment volume over time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.analysis.dataset import TransactionDataset
from repro.errors import AnalysisError

SECONDS_PER_MONTH = 30 * 86400


@dataclass(frozen=True)
class PopulationStats:
    """The headline population numbers of appendix D."""

    accounts_seen: int
    active_senders: int
    active_share: float
    payments_per_active_sender: float
    #: Gini-style concentration of sending activity in [0, 1].
    activity_concentration: float


def population_stats(dataset: TransactionDataset, min_payments: int = 1) -> PopulationStats:
    """Compute who participates and how unequally.

    ``active`` means the account *sent* at least ``min_payments`` payments
    (the paper's "actively participating" — submitting transactions).
    """
    if len(dataset) == 0:
        raise AnalysisError("empty dataset")
    seen = np.union1d(
        np.unique(dataset.sender_ids), np.unique(dataset.destination_ids)
    )
    counts = np.bincount(dataset.sender_ids, minlength=len(dataset.accounts))
    sender_counts = counts[counts >= min_payments]
    active = int(len(sender_counts))
    return PopulationStats(
        accounts_seen=int(len(seen)),
        active_senders=active,
        active_share=active / len(seen) if len(seen) else 0.0,
        payments_per_active_sender=float(sender_counts.mean()) if active else 0.0,
        activity_concentration=_gini(sender_counts),
    )


def _gini(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative sample (0 = equal, 1 = one hog)."""
    if values.size == 0:
        return 0.0
    sorted_values = np.sort(values.astype(float))
    n = sorted_values.size
    cumulative = np.cumsum(sorted_values)
    total = cumulative[-1]
    if total == 0:
        return 0.0
    # Standard formula: 1 + 1/n - 2 * sum((n + 1 - i) x_i) / (n * total)
    index = np.arange(1, n + 1)
    return float((2 * np.sum(index * sorted_values) - (n + 1) * total) / (n * total))


def monthly_volume(dataset: TransactionDataset) -> List[Tuple[int, int]]:
    """(month bucket, payment count) pairs in chronological order.

    The growth curve: Ripple's volume rises over its first three years,
    which is why the generator's arrival process is non-homogeneous.
    """
    months = dataset.timestamps // SECONDS_PER_MONTH
    values, counts = np.unique(months, return_counts=True)
    return [(int(month), int(count)) for month, count in zip(values, counts)]


def growth_is_increasing(dataset: TransactionDataset, halves_ratio: float = 1.05) -> bool:
    """True when the second half of history carries ≥ ``halves_ratio`` times
    the first half's payments — the macroscopic growth signal.

    The default ratio is modest because the spam flows (CCK, MTL) are
    deliberately front/mid-loaded, which partially offsets the organic
    growth of the legitimate flows.
    """
    midpoint = (int(dataset.timestamps.min()) + int(dataset.timestamps.max())) // 2
    first = int((dataset.timestamps <= midpoint).sum())
    second = len(dataset) - first
    if first == 0:
        return True
    return second / first >= halves_ratio


def top_senders(
    dataset: TransactionDataset, top_k: int = 10
) -> List[Tuple[int, int]]:
    """(sender id, payments) for the most active senders."""
    counts = np.bincount(dataset.sender_ids, minlength=len(dataset.accounts))
    order = np.argsort(-counts)[:top_k]
    return [(int(index), int(counts[index])) for index in order if counts[index] > 0]


def new_accounts_per_month(dataset: TransactionDataset) -> Dict[int, int]:
    """First-appearance month of every account (registration proxy)."""
    first_seen: Dict[int, int] = {}
    months = dataset.timestamps // SECONDS_PER_MONTH
    for row in np.argsort(dataset.timestamps, kind="stable"):
        for account_id in (int(dataset.sender_ids[row]), int(dataset.destination_ids[row])):
            if account_id not in first_seen:
                first_seen[account_id] = int(months[row])
    out: Dict[int, int] = {}
    for month in first_seen.values():
        out[month] = out.get(month, 0) + 1
    return dict(sorted(out.items()))
