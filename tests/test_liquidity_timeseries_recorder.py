"""Tests for the exact max flow and the deliverability metrics."""

import pytest

from repro.ledger.accounts import account_from_name
from repro.ledger.amounts import Amount
from repro.ledger.currency import USD, Currency
from repro.ledger.state import LedgerState
from repro.payments.liquidity import (
    CreditNetwork,
    max_flow,
    relayer_removal_curve,
    sample_deliverability,
)


def usd(value):
    return Amount.from_value(USD, value)


class TestMaxFlow:
    def build_diamond(self):
        """src -> (a: 30 | b: 50) -> dst, plus direct src->dst 10."""
        state = LedgerState()
        accounts = {
            name: account_from_name(name, namespace="liq")
            for name in ("src", "a", "b", "dst")
        }
        for account in accounts.values():
            state.create_account(account, 10 ** 9)
        state.set_trust(accounts["a"], accounts["src"], usd(30))
        state.set_trust(accounts["b"], accounts["src"], usd(50))
        state.set_trust(accounts["dst"], accounts["a"], usd(100))
        state.set_trust(accounts["dst"], accounts["b"], usd(100))
        state.set_trust(accounts["dst"], accounts["src"], usd(10))
        return state, accounts

    def test_max_flow_sums_parallel_routes(self):
        state, accounts = self.build_diamond()
        network = CreditNetwork(state, USD)
        flow = max_flow(network, accounts["src"], accounts["dst"])
        assert flow == pytest.approx(30 + 50 + 10)

    def test_max_flow_stops_at_limit(self):
        state, accounts = self.build_diamond()
        network = CreditNetwork(state, USD)
        flow = max_flow(network, accounts["src"], accounts["dst"], limit=35.0)
        assert flow == pytest.approx(35.0)

    def test_max_flow_zero_when_disconnected(self):
        state, accounts = self.build_diamond()
        lonely = account_from_name("lonely", namespace="liq")
        state.create_account(lonely, 10 ** 9)
        network = CreditNetwork(state, USD)
        assert max_flow(network, accounts["src"], lonely) == 0.0

    def test_max_flow_zero_from_an_account_to_itself(self):
        state, accounts = self.build_diamond()
        network = CreditNetwork(state, USD)
        assert max_flow(network, accounts["src"], accounts["src"]) == 0.0

    def test_max_flow_does_not_mutate_state(self):
        state, accounts = self.build_diamond()
        max_flow(CreditNetwork(state, USD), accounts["src"], accounts["dst"])
        # All balances untouched.
        assert all(line.balance.is_zero for line in state.iter_trustlines())

    def test_max_flow_has_no_hop_bound(self):
        """src -> g1 -> ... -> g10 -> dst: ten relaying gateways, 50 USD each."""
        state = LedgerState()
        chain = [
            account_from_name(name, namespace="liq-chain")
            for name in ["src"] + [f"g{i}" for i in range(1, 11)] + ["dst"]
        ]
        for account in chain:
            state.create_account(account, 10 ** 9)
        for payer, payee in zip(chain, chain[1:]):
            state.set_trust(payee, payer, usd(50))
        flow = max_flow(CreditNetwork(state, USD), chain[0], chain[-1])
        assert flow == pytest.approx(50.0)

    def test_max_flow_cancels_flow_on_a_reverse_arc(self):
        """The first shortest path blocks the second unless it is undone.

        BFS finds src -> a -> b -> dst first (a's arcs are created before
        w's).  The second 10 USD needs src -> w -> b -> a -> y -> z -> dst,
        which moves a's flow off a -> b: only a reverse arc b -> a allows it.
        """
        state = LedgerState()
        names = ("src", "a", "b", "w", "y", "z", "dst")
        acc = {n: account_from_name(n, namespace="liq-rev") for n in names}
        for account in acc.values():
            state.create_account(account, 10 ** 9)
        for payer, payee in (
            ("src", "a"), ("a", "b"), ("b", "dst"), ("a", "y"), ("y", "z"),
            ("z", "dst"), ("src", "w"), ("w", "b"),
        ):
            state.set_trust(acc[payee], acc[payer], usd(10))
        flow = max_flow(CreditNetwork(state, USD), acc["src"], acc["dst"])
        assert flow == pytest.approx(20.0)


class TestDeliverability:
    def test_sampled_deliverability(self, history):
        users = [user.account for user in history.cast.users[:60]]
        report = sample_deliverability(
            history.state, Currency("USD"), users, pairs=20, seed=1
        )
        assert 0.0 <= report.deliverability <= 1.0
        assert report.pairs_sampled == 20

    def test_self_pairs_are_not_sampled(self):
        """Two users around one hub: every distinct pair is connected."""
        state = LedgerState()
        names = ("alice", "hub", "bob")
        acc = {n: account_from_name(n, namespace="liq-self") for n in names}
        for account in acc.values():
            state.create_account(account, 10 ** 9)
        for user in ("alice", "bob"):
            state.set_trust(acc[user], acc["hub"], usd(10))
            state.set_trust(acc["hub"], acc[user], usd(10))
        report = sample_deliverability(
            state, USD, list(acc.values()), pairs=30, seed=0
        )
        assert report.pairs_sampled < 30
        assert report.connected_pairs == report.pairs_sampled
        assert report.deliverability == 1.0

    def test_banning_relayers_reduces_deliverability(self, history):
        users = [user.account for user in history.cast.users[:60]]
        makers = history.cast.market_maker_accounts()
        curve = relayer_removal_curve(
            history.state,
            Currency("USD"),
            users,
            makers,
            steps=(0, len(makers)),
            pairs=25,
            seed=2,
        )
        assert curve[0][1] >= curve[-1][1]
