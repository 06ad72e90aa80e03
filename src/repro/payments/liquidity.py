"""Network-liquidity metrics over the credit graph.

Table II shows *connectivity* collapsing without market makers; these
metrics quantify the same fabric continuously instead of binarily:

* **max flow** between two accounts — the largest payment that could
  possibly be delivered (no hop bound, no parallel-path cap), over a
  :class:`CreditNetwork` shared by every pair of one probe.  It is the
  one exact max flow; :mod:`repro.analysis.health` settles pairs with it;
* **pairwise deliverability** — the fraction of random account pairs with
  any usable path, and the median max flow among connected pairs;
* **cut analysis** — how deliverability degrades as a given set of
  relayers (e.g. the top market makers) is removed one by one, turning the
  paper's single counterfactual into a curve.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.ledger.accounts import AccountID
from repro.ledger.currency import Currency
from repro.ledger.state import LedgerState
from repro.payments.engine import FilteredTrustGraph
from repro.payments.graph import DUST, TrustGraph

#: Guard on augmenting paths per max flow (Edmonds–Karp needs at most V·E).
MAX_AUGMENTATIONS = 10_000


class CreditNetwork:
    """The credit graph of one ``(state, currency, banned)``, filled lazily.

    Arcs leave a search's source and the non-banned relaying accounts of
    ``state.accounts``; an arc into a banned account is usable only by the
    search whose target it is.  Each account's capacities are read once,
    the first time a search reaches it, so the state must not change
    while the network is in use.
    """

    def __init__(
        self,
        state: LedgerState,
        currency: Currency,
        banned: Optional[Set[AccountID]] = None,
    ):
        self.state = state
        self.currency = currency
        self.banned = banned or set()
        #: The shared successor cache; the greedy planner reads it too.
        self.base = TrustGraph(state, currency)
        self._arcs: Dict[AccountID, Dict[AccountID, float]] = {}

    def view(self, source: AccountID, target: AccountID) -> TrustGraph:
        """The path finder's graph for one pair, read through :attr:`base`."""
        if not self.banned:
            return self.base
        return FilteredTrustGraph(
            self.state, self.currency, self.banned, source, target, base=self.base
        )

    def arcs(self, account: AccountID, source: AccountID) -> Dict[AccountID, float]:
        """Capacities out of ``account`` in a search from ``source``."""
        root = self.state.accounts.get(account)
        if root is None or account != source and (
            not root.allows_rippling or account in self.banned
        ):
            return {}
        arcs = self._arcs.get(account)
        if arcs is None:
            arcs = self._arcs[account] = dict(self.base.successor_pairs(account))
        return arcs


def max_flow(
    network: CreditNetwork,
    source: AccountID,
    sink: AccountID,
    limit: float = math.inf,
) -> float:
    """Maximum value ``network`` can carry from ``source`` to ``sink``.

    Residual Edmonds–Karp: shortest augmenting paths over forward
    remainders and reverse (cancelling) arcs, with no hop bound.  This is
    capacity, not a routable Ripple plan.  The search stops once ``limit``
    is reached, so ``max_flow(..., limit=x) >= x`` decides whether ``x``
    can be delivered.  Banning more relayers only removes arcs, so the
    value never grows with the ban set.  The ledger is never mutated.
    A pair with ``source == sink`` carries nothing (0.0).
    """
    if source == sink:
        return 0.0
    banned = network.banned
    # flow[a][b] is the net flow a -> b; flow[b][a] == -flow[a][b].
    flow: Dict[AccountID, Dict[AccountID, float]] = {}
    total = 0.0
    for _ in range(MAX_AUGMENTATIONS):
        if total >= limit * (1.0 - 1e-9):
            break
        parents: Dict[AccountID, AccountID] = {source: source}
        queue = deque([source])
        while queue and sink not in parents:
            node = queue.popleft()
            arcs = network.arcs(node, source)
            pushed = flow.get(node, {})
            reverse = [
                (prev, 0.0)
                for prev, net in pushed.items()
                if net < 0.0 and prev not in arcs
            ]
            for nxt, capacity in chain(arcs.items(), reverse):
                if nxt in parents or (nxt in banned and nxt != sink):
                    continue
                if capacity - pushed.get(nxt, 0.0) <= DUST:
                    continue
                parents[nxt] = node
                if nxt == sink:
                    break
                queue.append(nxt)
        if sink not in parents:
            break
        path = [sink]
        while path[-1] != source:
            path.append(parents[path[-1]])
        path.reverse()
        bottleneck = min(
            network.arcs(a, source).get(b, 0.0) - flow.get(a, {}).get(b, 0.0)
            for a, b in zip(path, path[1:])
        )
        bottleneck = min(bottleneck, limit - total)
        if bottleneck <= DUST:
            break
        for a, b in zip(path, path[1:]):
            forward = flow.setdefault(a, {})
            backward = flow.setdefault(b, {})
            forward[b] = forward.get(b, 0.0) + bottleneck
            backward[a] = backward.get(a, 0.0) - bottleneck
        total += bottleneck
    return total


@dataclass(frozen=True)
class DeliverabilityReport:
    """Connectivity of random pairs in one currency."""

    currency: str
    pairs_sampled: int
    connected_pairs: int
    median_max_flow: float

    @property
    def deliverability(self) -> float:
        return self.connected_pairs / self.pairs_sampled if self.pairs_sampled else 0.0


def sample_deliverability(
    state: LedgerState,
    currency: Currency,
    accounts: Sequence[AccountID],
    pairs: int = 50,
    seed: int = 0,
    banned: Optional[Set[AccountID]] = None,
) -> DeliverabilityReport:
    """Deliverability over random (sender, receiver) pairs.

    ``banned`` removes accounts from the relay fabric (endpoints stay
    usable), the same knob as the Table II replay.  Flows are exact and
    hop-unbounded.  Of the ``pairs`` draws, those whose two endpoints
    coincide are skipped; ``pairs_sampled`` counts the pairs probed.
    """
    rng = np.random.default_rng(seed)
    network = CreditNetwork(state, currency, banned)
    probed = connected = 0
    flows: List[float] = []
    for _ in range(pairs):
        source, sink = (
            accounts[int(rng.integers(0, len(accounts)))],
            accounts[int(rng.integers(0, len(accounts)))],
        )
        if source == sink:
            continue
        probed += 1
        flow = max_flow(network, source, sink)
        if flow > DUST:
            connected += 1
            flows.append(flow)
    return DeliverabilityReport(
        currency=currency.code,
        pairs_sampled=probed,
        connected_pairs=connected,
        median_max_flow=float(np.median(flows)) if flows else 0.0,
    )


def relayer_removal_curve(
    state: LedgerState,
    currency: Currency,
    accounts: Sequence[AccountID],
    relayers: Sequence[AccountID],
    steps: Iterable[int] = (0, 10, 30, 60, 120),
    pairs: int = 40,
    seed: int = 0,
) -> List[Tuple[int, float]]:
    """Deliverability as the first-k ``relayers`` are removed.

    The continuous version of Table II: each point removes the top-k market
    makers (or any relayer ranking) and re-measures pairwise connectivity.
    Every point samples the same pairs, so the curve never rises.
    """
    curve: List[Tuple[int, float]] = []
    for k in steps:
        banned = set(relayers[:k])
        report = sample_deliverability(
            state, currency, accounts, pairs=pairs, seed=seed, banned=banned
        )
        curve.append((k, report.deliverability))
    return curve
