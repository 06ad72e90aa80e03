"""Trust-graph view over ledger state, as seen by the path finder.

For a fixed currency, the credit network induces a directed *payment graph*:
an edge ``X -> Y`` with positive capacity means X can push IOU value to Y in
one hop.  Capacity combines the unused limit of Y's trust towards X (new
debt X can take on towards Y... precisely: debt X takes on *towards Y* is
recorded on the line where Y is the truster) with any debt Y already owes X
(which a payment can settle).  This is the structure payments of Fig. 1
traverse, and what the market-maker-removal study of Table II perturbs.

Performance: successor lists are served from the ledger's incremental
per-currency adjacency index (:meth:`LedgerState.currency_lines`); each
node's incident-line topology is memoized until a new line appears, and
capacities are read live from the lines' float caches.  A BFS that expands
the same hub hundreds of times per payment — and a payment plan that runs
several BFS passes — resolves each node's lines once.  The reference
full-scan implementation (:meth:`TrustGraph._successors_scan`) stays as
the specification: the equivalence suite checks that both produce
identical edges in identical order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Set, Tuple

from repro.ledger.accounts import AccountID
from repro.ledger.currency import Currency
from repro.ledger.state import LedgerState

#: Capacities below this many currency units are treated as dry.
DUST = 1e-9

@dataclass(frozen=True)
class Edge:
    """A usable payment hop with its current liquidity."""

    payer: AccountID
    payee: AccountID
    capacity: float


class TrustGraph:
    """Read-only payment-graph adapter for one currency.

    The graph is *live*: capacities reflect the underlying
    :class:`~repro.ledger.state.LedgerState` at query time, so interleaved
    payments see each other's balance changes — essential for the Table II
    replay, where earlier payments drain liquidity for later ones.  The
    per-node successor cache is transparent: entries are revalidated against
    the node's incident-line counts on every query.
    """

    def __init__(self, state: LedgerState, currency: Currency):
        self.state = state
        self.currency = currency
        #: node -> (#ins lines, #outs lines, ins triples, outs pairs): the
        #: *topology* of the node's incident lines.  Lines are only ever
        #: appended (set_trust updates existing objects in place), so the
        #: two list lengths fully identify the line set and the cached
        #: reverse-line resolutions stay valid until a new line appears.
        self._line_cache: Dict[AccountID, tuple] = {}

    def successors(self, payer: AccountID) -> Iterator[Edge]:
        """All accounts ``payer`` can push value to, with capacities."""
        return (
            Edge(payer, payee, capacity)
            for payee, capacity in self.successor_pairs(payer)
        )

    def successor_pairs(self, payer: AccountID) -> List[Tuple[AccountID, float]]:
        """``(payee, capacity)`` pairs — the path finder's hot interface.

        Capacities are always read live from the trust lines' float caches
        (balances change every payment); only the *line topology* — which
        lines are incident and which reverse line pairs with each — is
        cached, so the per-query cost is one float add per edge instead of
        a keyed dictionary lookup and an :class:`Edge` allocation.  Edge
        order is identical to the reference scan's: ins lines first, then
        settle-only outs lines, each in line-creation order.
        """
        ins, outs = self._edge_lines(payer)
        pairs: List[Tuple[AccountID, float]] = []
        if outs:
            seen: Set[AccountID] = set()
            for payee, line, reverse in ins:
                capacity = line._available_float
                if reverse is not None:
                    capacity += reverse._balance_float
                if capacity > DUST:
                    seen.add(payee)
                    pairs.append((payee, capacity))
            for payee, line in outs:
                if payee in seen:
                    continue
                capacity = line._balance_float
                if capacity > DUST:
                    pairs.append((payee, capacity))
        else:  # no settle-only edges: skip the seen-set bookkeeping
            for payee, line, reverse in ins:
                capacity = line._available_float
                if reverse is not None:
                    capacity += reverse._balance_float
                if capacity > DUST:
                    pairs.append((payee, capacity))
        return pairs

    def _edge_lines(self, payer: AccountID) -> tuple:
        """Cached ``(ins triples, outs pairs)`` for ``payer``.

        ``ins`` is ``(truster, line, reverse-or-None)`` per line trusting
        ``payer``; ``outs`` is ``(trustee, line)`` per line ``payer``
        extends.  Revalidated against the index list lengths: a new line
        incident to ``payer`` (including a reverse line appearing later)
        grows one of them, forcing a rebuild.
        """
        code = self.currency.code
        index = self.state.currency_lines(code)
        in_lines = index.ins.get(payer, ())
        out_lines = index.outs.get(payer, ())
        cached = self._line_cache.get(payer)
        if (
            cached is not None
            and cached[0] == len(in_lines)
            and cached[1] == len(out_lines)
        ):
            return cached[2], cached[3]
        trustlines = self.state.trustlines
        ins = [
            (line.truster, line, trustlines.get((payer, line.truster, code)))
            for line in in_lines
        ]
        outs = [(line.trustee, line) for line in out_lines]
        self._line_cache[payer] = (len(in_lines), len(out_lines), ins, outs)
        return ins, outs

    def _successors_scan(self, payer: AccountID) -> Iterator[Edge]:
        """Reference implementation: full scan of the payer's line lists."""
        seen: Set[AccountID] = set()
        for line in self.state.lines_trusting(payer):
            if line.currency != self.currency:
                continue
            capacity = line.available_credit().to_float()
            reverse = self.state.trust_line(payer, line.truster, self.currency)
            if reverse is not None:
                capacity += reverse.balance.to_float()
            if capacity > DUST:
                seen.add(line.truster)
                yield Edge(payer, line.truster, capacity)
        for line in self.state.lines_trusted_by(payer):
            if line.currency != self.currency or line.trustee in seen:
                continue
            capacity = line.balance.to_float()
            if capacity > DUST:
                yield Edge(payer, line.trustee, capacity)

    def capacity(self, payer: AccountID, payee: AccountID) -> float:
        """Liquidity of the single hop ``payer -> payee``."""
        return self.state.hop_capacity(payer, payee, self.currency)

    def can_relay(self, account: AccountID) -> bool:
        """Whether value may ripple *through* this account.

        Regular users keep the NoRipple posture: they can be payment
        endpoints, never intermediaries.  This is what confines routing to
        the gateway/hub/maker fabric the paper's Fig. 7 profiles.
        """
        root = self.state.accounts.get(account)
        return root is None or root.allows_rippling

    def reachable_within(self, source: AccountID, max_hops: int) -> Set[AccountID]:
        """Accounts reachable from ``source`` in at most ``max_hops`` hops."""
        frontier = {source}
        visited = {source}
        for _ in range(max_hops):
            nxt: Set[AccountID] = set()
            for node in frontier:
                for edge in self.successors(node):
                    if edge.payee not in visited:
                        visited.add(edge.payee)
                        nxt.add(edge.payee)
            if not nxt:
                break
            frontier = nxt
        visited.discard(source)
        return visited


def path_bottleneck(graph: TrustGraph, path: List[AccountID]) -> float:
    """Minimum hop capacity along ``path`` (a list of accounts)."""
    if len(path) < 2:
        return 0.0
    return min(
        graph.capacity(path[i], path[i + 1]) for i in range(len(path) - 1)
    )

