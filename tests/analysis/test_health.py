"""Credit-network health: liquidity, concentration, utilization, settlability.

The settlability probe's design contract is monotonicity: banning a relayer
can only remove capacity, never add it.  The hypothesis property at the
bottom states that directly on a two-gateway economy where bans actually
bite (unlike the synthetic CCK hub swarm, which routes around gateways).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.health import (
    OVERUTILIZED_THRESHOLD,
    health_report,
    issuer_concentration,
    liquidity_distribution,
    pair_settles,
    render_health,
    sample_pairs,
    settlability_outcomes,
    settlability_probe,
    utilization_profile,
)
from repro.ledger.accounts import account_from_name
from repro.ledger.amounts import Amount
from repro.ledger.currency import USD, XRP, eur_value
from repro.ledger.state import LedgerState
from repro.obs.metrics import METRICS
from repro.payments.liquidity import CreditNetwork, max_flow, relayer_removal_curve

#: Accounts of the two-gateway economy, in a fixed order so hypothesis can
#: draw ban sets as index prefixes of a permutation.
RICH_NAMES = ("gw1", "gw2", "u0", "u1", "u2", "u3")


@pytest.fixture(scope="module")
def rich_state():
    """Four users holding 300 USD at each of two gateways.

    Every user pair settles 100 USD through either gateway; banning one
    gateway halves the depth, banning both strands everyone.  This is the
    economy where relayer bans have visible, strictly ordered effects.
    """
    state = LedgerState()
    accounts = {
        name: account_from_name(name, namespace="health-tests")
        for name in RICH_NAMES
    }
    for account in accounts.values():
        state.create_account(account, 10 ** 9)
    for user in ("u0", "u1", "u2", "u3"):
        for gateway in ("gw1", "gw2"):
            state.set_trust(
                accounts[user], accounts[gateway], Amount.from_value(USD, 1000)
            )
            state.apply_hop(
                accounts[gateway], accounts[user], Amount.from_value(USD, 300)
            )
    return state, accounts


#: Ban sets as index prefixes of a permutation of ``RICH_NAMES``: two cuts
#: give a smaller and a larger ban set.
BAN_ORDERS = st.permutations(list(range(len(RICH_NAMES))))
BAN_CUTS = st.tuples(
    st.integers(0, len(RICH_NAMES)), st.integers(0, len(RICH_NAMES))
)


@pytest.fixture(scope="module")
def hub_state():
    """Two NoRipple users ``a`` and ``b`` around one relaying ``hub``.

    Each user and the hub trust each other for 1000 USD, so every pair
    settles 100 USD: directly when the hub is an endpoint, through the
    hub otherwise.  Banning the hub strands exactly the a <-> b pairs.
    """
    state = LedgerState()
    accounts = {
        name: account_from_name(name, namespace="health-hub")
        for name in ("a", "b", "hub")
    }
    for account in accounts.values():
        state.create_account(account, 10 ** 9)
    for user in ("a", "b"):
        state.account(accounts[user]).allows_rippling = False
        state.set_trust(accounts[user], accounts["hub"], Amount.from_value(USD, 1000))
        state.set_trust(accounts["hub"], accounts[user], Amount.from_value(USD, 1000))
    return state, accounts


class TestLiquidity:
    def test_iou_contributions_cancel_in_the_total(self, simple_state):
        state, actors = simple_state
        wallets = [actors[n] for n in ("alice", "bob", "carol", "gateway")]
        dist = liquidity_distribution(state, wallets)
        # Every IOU is someone's asset and someone else's liability, so
        # the aggregate is just everyone's XRP at the EUR rate.
        xrp_eur = (10 ** 9 / 10 ** 6) * eur_value(XRP)
        assert dist.wallets == 4
        assert dist.total_eur == pytest.approx(4 * xrp_eur)

    def test_deposit_holder_is_richer_than_peers(self, simple_state):
        state, actors = simple_state
        wallets = [actors[n] for n in ("alice", "bob", "carol")]
        dist = liquidity_distribution(state, wallets)
        alice = liquidity_distribution(state, [actors["alice"]])
        bob = liquidity_distribution(state, [actors["bob"]])
        assert alice.total_eur > bob.total_eur
        assert dist.p90_eur >= dist.median_eur >= 0.0


class TestIssuerConcentration:
    def test_single_issuer_owns_the_market(self, simple_state):
        state, actors = simple_state
        conc = issuer_concentration(state)
        assert conc.issuers == 1
        assert conc.outstanding_eur == pytest.approx(500 * eur_value(USD))
        assert conc.share_of_top(1) == pytest.approx(1.0)

    def test_two_gateways_split_evenly(self, rich_state):
        state, _ = rich_state
        conc = issuer_concentration(state, top_ks=(1, 2))
        assert conc.issuers == 2
        assert conc.share_of_top(1) == pytest.approx(0.5)
        assert conc.share_of_top(2) == pytest.approx(1.0)


class TestUtilization:
    def test_profile_counts_credited_lines(self, simple_state):
        state, _ = simple_state
        profile = utilization_profile(state)
        # Three lines at limit 1000; only alice's carries a 500 balance.
        assert profile.lines == 3
        assert profile.mean == pytest.approx(0.5 / 3)
        assert profile.threshold == OVERUTILIZED_THRESHOLD
        assert profile.overextended == 0
        assert profile.overextended_fraction == 0.0

    def test_lower_threshold_flags_the_hot_line(self, simple_state):
        state, _ = simple_state
        profile = utilization_profile(state, threshold=0.4)
        assert profile.overextended == 1
        assert profile.overextended_fraction == pytest.approx(1 / 3)


class TestPairSettles:
    def test_deposit_ripples_through_the_gateway(self, simple_state):
        state, actors = simple_state
        assert pair_settles(
            state, actors["alice"], actors["bob"], USD, 100.0
        )

    def test_amount_beyond_the_deposit_fails(self, simple_state):
        state, actors = simple_state
        assert not pair_settles(
            state, actors["alice"], actors["bob"], USD, 600.0
        )

    def test_empty_wallet_cannot_pay(self, simple_state):
        state, actors = simple_state
        assert not pair_settles(
            state, actors["bob"], actors["carol"], USD, 50.0
        )

    def test_banning_the_only_relayer_strands_the_pair(self, simple_state):
        state, actors = simple_state
        assert not pair_settles(
            state, actors["alice"], actors["bob"], USD, 100.0,
            banned={actors["gateway"]},
        )

    def test_account_cannot_pay_itself(self, rich_state):
        state, accounts = rich_state
        assert not pair_settles(state, accounts["u0"], accounts["u0"], USD, 10.0)

    def test_exact_fallback_splits_across_gateways(self, rich_state):
        # 500 USD needs both gateways (300 each): a multi-path answer the
        # greedy planner may miss but the exact max flow must certify.
        state, accounts = rich_state
        assert pair_settles(
            state, accounts["u0"], accounts["u1"], USD, 500.0
        )
        assert not pair_settles(
            state, accounts["u0"], accounts["u1"], USD, 500.0,
            banned={accounts["gw1"]},
        )


class TestSharedNetwork:
    """One network serves every pair of a probe; exemptions stay per pair."""

    def test_banned_target_is_not_relayed_by_later_pairs(self, hub_state):
        state, accounts = hub_state
        wallets = [accounts["a"], accounts["b"], accounts["hub"]]
        banned = {accounts["hub"]}
        triples = sample_pairs(state, wallets, pairs=30, seed=0)
        first_hub = next(
            i for i, (_, target, _) in enumerate(triples)
            if target == accounts["hub"]
        )
        later_user_pairs = [
            i for i, (source, target, _) in enumerate(triples)
            if i > first_hub and accounts["hub"] not in (source, target)
        ]
        assert later_user_pairs  # the sample exercises the case

        outcomes = settlability_outcomes(
            state, wallets, pairs=30, amount=100.0, seed=0, banned=banned
        )
        assert outcomes == [
            pair_settles(state, source, target, currency, 100.0, banned=banned)
            for source, target, currency in triples
        ]
        assert outcomes[first_hub]
        assert not any(outcomes[i] for i in later_user_pairs)
        assert all(
            settlability_outcomes(state, wallets, pairs=30, amount=100.0, seed=0)
        )

    def test_target_exemption_does_not_leak_into_the_cache(self, hub_state):
        state, accounts = hub_state
        network = CreditNetwork(state, USD, {accounts["hub"]})
        a, b, hub = accounts["a"], accounts["b"], accounts["hub"]
        assert max_flow(network, a, hub) == pytest.approx(1000.0)
        assert max_flow(network, a, b) == 0.0
        assert max_flow(network, hub, b) == pytest.approx(1000.0)
        assert max_flow(CreditNetwork(state, USD), a, b) == pytest.approx(1000.0)


class TestFallbackCounter:
    def test_counts_only_greedy_misses(self, rich_state):
        state, accounts = rich_state
        u0, u1, gw1 = accounts["u0"], accounts["u1"], accounts["gw1"]
        was_enabled = METRICS.enabled
        METRICS.reset()
        METRICS.enable()
        try:
            # 100 USD: the greedy planner certifies it, no max flow runs.
            assert pair_settles(state, u0, u1, USD, 100.0)
            assert METRICS.counters.get("health.maxflow_fallbacks", 0) == 0
            # Beyond both gateways' depth, and one gateway banned: misses.
            assert not pair_settles(state, u0, u1, USD, 700.0)
            assert not pair_settles(state, u0, u1, USD, 500.0, banned={gw1})
            assert METRICS.counters["health.maxflow_fallbacks"] == 2
        finally:
            METRICS.reset()
            METRICS.enabled = was_enabled


class TestSampling:
    def test_same_seed_same_pairs(self, simple_state):
        state, actors = simple_state
        wallets = [actors[n] for n in ("alice", "bob", "carol")]
        first = sample_pairs(state, wallets, pairs=10, seed=3)
        second = sample_pairs(state, wallets, pairs=10, seed=3)
        assert first == second
        assert all(source != target for source, target, _ in first)

    def test_probe_matches_outcome_stream(self, rich_state):
        state, accounts = rich_state
        users = [accounts[n] for n in RICH_NAMES if n.startswith("u")]
        probe = settlability_probe(state, users, pairs=20, amount=50.0, seed=1)
        outcomes = settlability_outcomes(
            state, users, pairs=20, amount=50.0, seed=1
        )
        assert probe.pairs == len(outcomes)
        assert probe.settlable == sum(outcomes)
        assert 0.0 <= probe.fraction <= 1.0


class TestReport:
    def test_report_renders_every_section(self, simple_state):
        state, actors = simple_state
        wallets = [actors[n] for n in ("alice", "bob", "carol")]
        report = health_report(state, wallets, pairs=10, seed=2)
        text = render_health(report)
        for heading in (
            "Wallet liquidity",
            "IOU issuer concentration",
            "Trust-limit utilization",
            "Settlability",
        ):
            assert heading in text

    def test_as_dict_is_json_clean(self, simple_state):
        state, actors = simple_state
        report = health_report(state, [actors["alice"]], pairs=5, seed=2)
        round_tripped = json.loads(json.dumps(report.as_dict()))
        assert round_tripped["liquidity"]["wallets"] == 1


class TestBanMonotonicity:
    """Removing an account never increases the settlable-pair fraction."""

    @staticmethod
    def _settlable(state, accounts, banned):
        users = [accounts[n] for n in RICH_NAMES if n.startswith("u")]
        return sum(
            pair_settles(state, source, target, USD, 100.0, banned=banned)
            for source in users
            for target in users
            if source != target
        )

    def test_known_collapse_points(self, rich_state):
        state, accounts = rich_state
        assert self._settlable(state, accounts, set()) == 12
        assert self._settlable(state, accounts, {accounts["gw1"]}) == 12
        both = {accounts["gw1"], accounts["gw2"]}
        assert self._settlable(state, accounts, both) == 0

    @given(order=BAN_ORDERS, cuts=BAN_CUTS)
    @settings(max_examples=25, deadline=None)
    def test_bans_never_increase_settlability(self, rich_state, order, cuts):
        state, accounts = rich_state
        lo, hi = sorted(cuts)
        smaller = {accounts[RICH_NAMES[i]] for i in order[:lo]}
        larger = {accounts[RICH_NAMES[i]] for i in order[:hi]}
        assert self._settlable(state, accounts, larger) <= self._settlable(
            state, accounts, smaller
        )

    @given(order=BAN_ORDERS, cuts=BAN_CUTS)
    @settings(max_examples=25, deadline=None)
    def test_removal_curve_never_rises(self, rich_state, order, cuts):
        state, accounts = rich_state
        users = [accounts[n] for n in RICH_NAMES if n.startswith("u")]
        relayers = [accounts[RICH_NAMES[i]] for i in order]
        curve = relayer_removal_curve(
            state, USD, users, relayers, steps=sorted(cuts), pairs=12, seed=0
        )
        assert curve[1][1] <= curve[0][1]
