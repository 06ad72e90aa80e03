"""Wallet linking by activation (the Moreno-Sanchez et al. related work).

The paper's related-work section ([10]) describes heuristics that cluster
apparently unrelated Ripple accounts owned by the same entity.  This module
implements the one the paper itself observes in the appendix (both
hyper-central hubs were *activated* by the same account, ``~akhavr``):
a Ripple account comes alive with its first incoming XRP payment, so
accounts activated by the same funder are candidates for common ownership.

The heuristic *composes* with the Section V de-anonymization: once one
payment identifies one wallet, linking expands the dossier to the owner's
other wallets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

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


def expand_dossier(
    identified: AccountID, records: Sequence[TransactionRecord]
) -> Set[AccountID]:
    """All accounts attributable to the owner of ``identified``.

    The account plus every account sharing its activation funder.  This is
    the composition step: Section V finds *one* wallet; the heuristic of
    [10] finds the rest.
    """
    linked: Set[AccountID] = {identified}
    funder_of: Dict[AccountID, AccountID] = {
        edge.account: edge.funder for edge in activation_edges(records)
    }
    my_funder = funder_of.get(identified)
    if my_funder is not None:
        for account, funder in funder_of.items():
            if funder == my_funder:
                linked.add(account)
    return linked
