"""Wallet-linking heuristics (the Moreno-Sanchez et al. related work).

The paper's related-work section ([10]) describes heuristics that cluster
apparently unrelated Ripple accounts owned by the same entity.  This module
implements the two that apply to ledger-only data, plus the observation the
paper itself makes in the appendix (both hyper-central hubs were *activated*
by the same account, ``~akhavr``):

* **Activation clustering** — a Ripple account comes alive with its first
  incoming XRP payment; accounts activated by the same funder are
  candidates for common ownership.
* **Behavioural linking** — accounts that pay the same counterparties with
  the same recurring price points are linked by a similarity score.

These heuristics *compose* with the Section V de-anonymization: once one
payment identifies one wallet, linking expands the dossier to the owner's
other wallets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analysis.dataset import TransactionDataset
from repro.ledger.accounts import AccountID
from repro.synthetic.records import TransactionRecord


@dataclass(frozen=True)
class ActivationEdge:
    """``funder`` sent ``account`` its first XRP (activation)."""

    funder: AccountID
    account: AccountID
    timestamp: int


def activation_edges(
    records: Sequence[TransactionRecord],
) -> List[ActivationEdge]:
    """Who activated whom: the first incoming XRP payment per account.

    Only direct XRP payments can activate an account (IOUs require a
    pre-existing trust line, hence a pre-existing account).
    """
    first_seen: Dict[AccountID, ActivationEdge] = {}
    for record in sorted(records, key=lambda r: (r.timestamp, r.index)):
        if not record.is_xrp_direct or not record.delivered:
            continue
        if record.destination not in first_seen:
            first_seen[record.destination] = ActivationEdge(
                funder=record.sender,
                account=record.destination,
                timestamp=record.timestamp,
            )
    return list(first_seen.values())


def activation_clusters(
    records: Sequence[TransactionRecord],
    min_size: int = 2,
) -> List[Tuple[AccountID, List[AccountID]]]:
    """Group activated accounts by their funder.

    Returns (funder, accounts) pairs for every funder that activated at
    least ``min_size`` accounts — the ``~akhavr`` pattern.
    """
    by_funder: Dict[AccountID, List[AccountID]] = {}
    for edge in activation_edges(records):
        by_funder.setdefault(edge.funder, []).append(edge.account)
    clusters = [
        (funder, accounts)
        for funder, accounts in by_funder.items()
        if len(accounts) >= min_size
    ]
    clusters.sort(key=lambda item: -len(item[1]))
    return clusters


@dataclass
class BehaviouralProfile:
    """The linkable behaviour of one sending account."""

    account: AccountID
    destinations: FrozenSet[int]
    #: quarter-decade amount classes the account pays in.
    price_points: FrozenSet[int]
    active_days: FrozenSet[int]

    def similarity(self, other: "BehaviouralProfile") -> float:
        """Jaccard-style similarity over destinations and price points.

        Destination overlap dominates (paying the same people is the
        strongest ownership signal); recurring amounts refine it.
        """
        score = 0.0
        weight = 0.0
        for mine, theirs, importance in (
            (self.destinations, other.destinations, 0.6),
            (self.price_points, other.price_points, 0.25),
            (self.active_days, other.active_days, 0.15),
        ):
            union = len(mine | theirs)
            if union:
                score += importance * len(mine & theirs) / union
                weight += importance
        return score / weight if weight else 0.0


def behavioural_profiles(
    dataset: TransactionDataset, min_payments: int = 3
) -> List[BehaviouralProfile]:
    """One profile per sender with at least ``min_payments`` payments."""
    profiles: List[BehaviouralProfile] = []
    day = 86400
    price_point = np.round(np.log10(np.maximum(dataset.amounts, 1e-9)) * 4).astype(int)
    for sender_id in np.unique(dataset.sender_ids):
        rows = dataset.sender_ids == sender_id
        if int(rows.sum()) < min_payments:
            continue
        profiles.append(
            BehaviouralProfile(
                account=dataset.accounts[int(sender_id)],
                destinations=frozenset(
                    int(x) for x in np.unique(dataset.destination_ids[rows])
                ),
                price_points=frozenset(int(x) for x in np.unique(price_point[rows])),
                active_days=frozenset(
                    int(x) for x in np.unique(dataset.timestamps[rows] // day)
                ),
            )
        )
    return profiles


@dataclass
class LinkedCluster:
    """A set of accounts the heuristics attribute to one owner."""

    accounts: List[AccountID]
    evidence: str

    def __len__(self) -> int:
        return len(self.accounts)


def behavioural_clusters(
    dataset: TransactionDataset,
    threshold: float = 0.5,
    min_payments: int = 3,
) -> List[LinkedCluster]:
    """Greedy single-linkage clustering over behavioural similarity.

    O(n^2) over senders with enough history — fine at study scale, where
    active senders number in the tens of thousands (paper: 55k).
    """
    profiles = behavioural_profiles(dataset, min_payments)
    parent = list(range(len(profiles)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        parent[find(i)] = find(j)

    for i in range(len(profiles)):
        for j in range(i + 1, len(profiles)):
            if profiles[i].similarity(profiles[j]) >= threshold:
                union(i, j)

    groups: Dict[int, List[AccountID]] = {}
    for index, profile in enumerate(profiles):
        groups.setdefault(find(index), []).append(profile.account)
    clusters = [
        LinkedCluster(accounts=members, evidence=f"behavioural>= {threshold}")
        for members in groups.values()
        if len(members) >= 2
    ]
    clusters.sort(key=len, reverse=True)
    return clusters


def expand_dossier(
    dataset: TransactionDataset,
    identified: AccountID,
    records: Sequence[TransactionRecord],
    threshold: float = 0.5,
) -> Set[AccountID]:
    """All accounts attributable to the owner of ``identified``.

    Combines both heuristics: the behavioural cluster containing the
    account, plus anything sharing its activation funder.  This is the
    composition step: Section V finds *one* wallet; the heuristics of [10]
    find the rest.
    """
    linked: Set[AccountID] = {identified}
    for cluster in behavioural_clusters(dataset, threshold):
        if identified in cluster.accounts:
            linked.update(cluster.accounts)
    funder_of: Dict[AccountID, AccountID] = {
        edge.account: edge.funder for edge in activation_edges(records)
    }
    my_funder = funder_of.get(identified)
    if my_funder is not None:
        for account, funder in funder_of.items():
            if funder == my_funder:
                linked.add(account)
    return linked
