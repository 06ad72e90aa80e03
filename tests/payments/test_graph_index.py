"""Equivalence of the incremental trust-graph index with the reference scan.

The index must be invisible: for any reachable ledger state, the memoized
per-currency adjacency must yield exactly the edges — same order, same
float capacities — that a fresh full-scan :class:`TrustGraph` computes.
BFS tie-breaking depends on successor order, so even a reordering would
silently change which paths payments take.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import TrustLineError
from repro.ledger.accounts import account_from_name
from repro.ledger.amounts import Amount
from repro.ledger.currency import EUR, USD
from repro.ledger.state import LedgerState
from repro.payments.graph import TrustGraph
from repro.synthetic.config import EconomyConfig
from repro.synthetic.generator import LedgerHistoryGenerator

N_ACCOUNTS = 6


def build_state() -> tuple:
    state = LedgerState()
    accounts = []
    for index in range(N_ACCOUNTS):
        account = account_from_name(f"idx-user-{index}", namespace="graph-index")
        root = state.create_account(account, 10**10)
        root.allows_rippling = True
        accounts.append(account)
    return state, accounts


def assert_index_matches_scan(state: LedgerState, live: TrustGraph) -> None:
    """The live (memoized) graph equals a fresh reference recompute."""
    fresh = TrustGraph(state, live.currency)
    for account in state.accounts:
        indexed = list(live.successors(account))
        scanned = list(fresh._successors_scan(account))
        assert indexed == scanned, (
            f"successor mismatch for {account.short()}: "
            f"{indexed} != {scanned}"
        )


# One mutation of the trust fabric: set/update a limit, or push a hop.
operations = st.lists(
    st.tuples(
        st.sampled_from(["trust", "hop"]),
        st.integers(0, N_ACCOUNTS - 1),
        st.integers(0, N_ACCOUNTS - 1),
        st.integers(1, 10**6),
        st.sampled_from([USD, EUR]),
    ),
    min_size=1,
    max_size=40,
)


class TestIndexEquivalence:
    @given(operations)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_interleavings_match_reference(self, ops):
        state, accounts = build_state()
        live = {code: TrustGraph(state, cur) for code, cur in
                (("USD", USD), ("EUR", EUR))}
        for kind, i, j, value, currency in ops:
            if i == j:
                continue
            if kind == "trust":
                state.set_trust(
                    accounts[i],
                    accounts[j],
                    Amount.from_value(currency, value),
                )
            else:
                try:
                    state.apply_hop(
                        accounts[i],
                        accounts[j],
                        Amount.from_value(currency, value),
                    )
                except TrustLineError:
                    pass  # no capacity for the hop — a legal no-op
            # The *same* long-lived graph objects are queried after every
            # mutation: this is what exercises version-based invalidation.
            for graph in live.values():
                assert_index_matches_scan(state, graph)

    def test_lowering_limit_invalidates_cached_successors(self):
        state, accounts = build_state()
        graph = TrustGraph(state, USD)
        state.set_trust(accounts[0], accounts[1], Amount.from_value(USD, 500))
        before = list(graph.successors(accounts[1]))
        assert before[0].capacity == 500.0
        state.set_trust(accounts[0], accounts[1], Amount.from_value(USD, 120))
        after = list(graph.successors(accounts[1]))
        assert after[0].capacity == 120.0

    def test_hop_consumption_reflected_immediately(self):
        state, accounts = build_state()
        graph = TrustGraph(state, USD)
        state.set_trust(accounts[0], accounts[1], Amount.from_value(USD, 1000))
        assert list(graph.successors(accounts[1]))[0].capacity == 1000.0
        state.apply_hop(accounts[1], accounts[0], Amount.from_value(USD, 250))
        assert list(graph.successors(accounts[1]))[0].capacity == 750.0
        # The debtor side gained a settle edge back.
        back = [e for e in graph.successors(accounts[0])
                if e.payee == accounts[1]]
        assert back and back[0].capacity == 250.0


class TestGeneratedEconomyEquivalence:
    def test_generation_identical_with_index_disabled(self, monkeypatch):
        """The whole synthetic economy is a fixpoint of the optimization:
        every routed payment must pick the same paths with the index off."""
        config = EconomyConfig(
            seed=97,
            n_payments=600,
            n_users=80,
            n_gateways=8,
            n_market_makers=30,
            n_offers=2400,
        )

        def run():
            history = LedgerHistoryGenerator(config).generate()
            return [
                (
                    record.index,
                    record.timestamp,
                    record.sender,
                    record.destination,
                    record.currency,
                    record.amount,
                    record.intermediate_hops,
                    record.parallel_paths,
                    record.intermediaries,
                    record.delivered,
                    record.kind,
                )
                for record in history.records
            ]

        with_index = run()
        # Route every successor query through the reference scan.
        monkeypatch.setattr(
            TrustGraph, "successors", TrustGraph._successors_scan
        )
        monkeypatch.setattr(
            TrustGraph,
            "successor_pairs",
            lambda graph, payer: [
                (edge.payee, edge.capacity)
                for edge in graph._successors_scan(payer)
            ],
        )
        without_index = run()
        assert with_index == without_index
