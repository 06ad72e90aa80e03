"""Tests for the payment engine: routing, atomicity, and experiment knobs."""

import pytest

from repro.ledger.accounts import account_from_name
from repro.ledger.amounts import DROPS_PER_XRP, Amount
from repro.ledger.currency import EUR, USD, XRP
from repro.ledger.offers import Offer
from repro.ledger.state import LedgerState
from repro.ledger.transactions import BASE_FEE_DROPS
from repro.payments.engine import PaymentEngine
from repro.payments.execution import Executor


def usd(value):
    return Amount.from_value(USD, value)


def eur(value):
    return Amount.from_value(EUR, value)


@pytest.fixture()
def economy():
    """sender/receiver at one gateway, market maker, EUR receiver."""
    state = LedgerState()
    names = ["sender", "receiver", "gateway", "gateway2", "maker", "euro-receiver"]
    actors = {n: account_from_name(n, namespace="engine") for n in names}
    for account in actors.values():
        state.create_account(account, 10 ** 12)
    for user in ("sender", "receiver"):
        state.set_trust(actors[user], actors["gateway"], usd(10_000))
    state.set_trust(actors["euro-receiver"], actors["gateway2"], eur(10_000))
    # sender deposit
    state.apply_hop(actors["gateway"], actors["sender"], usd(5_000))
    # maker holds deposits at both gateways
    state.set_trust(actors["maker"], actors["gateway"], usd(10 ** 6))
    state.apply_hop(actors["gateway"], actors["maker"], usd(10 ** 5))
    state.set_trust(actors["maker"], actors["gateway2"], eur(10 ** 6))
    state.apply_hop(actors["gateway2"], actors["maker"], eur(10 ** 5))
    return state, actors


class TestXrpPayments:
    def test_direct_transfer(self, economy):
        state, actors = economy
        engine = PaymentEngine(state)
        result = engine.submit(actors["sender"], actors["receiver"], Amount.xrp(5))
        assert result.success
        assert result.intermediate_hops == 0
        assert state.xrp_balance(actors["receiver"]) == 10 ** 12 + 5 * DROPS_PER_XRP

    def test_fee_burned_even_on_failure(self, economy):
        state, actors = economy
        engine = PaymentEngine(state)
        lonely = account_from_name("lonely", namespace="engine")
        state.create_account(lonely, 10 ** 9)
        result = engine.submit(actors["sender"], lonely, usd(10))
        assert not result.success
        assert result.fee_drops == BASE_FEE_DROPS
        assert state.burned_fee_drops == BASE_FEE_DROPS

    def test_fees_can_be_disabled(self, economy):
        state, actors = economy
        engine = PaymentEngine(state, enforce_fees=False)
        engine.submit(actors["sender"], actors["receiver"], Amount.xrp(1))
        assert state.burned_fee_drops == 0


class TestSameCurrency:
    def test_one_hop_through_gateway(self, economy):
        state, actors = economy
        engine = PaymentEngine(state)
        result = engine.submit(actors["sender"], actors["receiver"], usd(100))
        assert result.success
        assert result.intermediate_hops == 1
        assert result.intermediaries == [actors["gateway"]]
        assert state.iou_balance(actors["receiver"], USD).to_float() == pytest.approx(100)

    def test_insufficient_deposit_fails_cleanly(self, economy):
        state, actors = economy
        engine = PaymentEngine(state)
        before = state.iou_balance(actors["sender"], USD).to_float()
        result = engine.submit(actors["sender"], actors["receiver"], usd(6_000))
        assert not result.success
        # Atomicity: nothing moved.
        assert state.iou_balance(actors["sender"], USD).to_float() == pytest.approx(before)
        assert state.iou_balance(actors["receiver"], USD).is_zero

    def test_unknown_receiver_fails(self, economy):
        state, actors = economy
        engine = PaymentEngine(state)
        ghost = account_from_name("ghost", namespace="engine")
        result = engine.submit(actors["sender"], ghost, usd(1))
        assert not result.success and "unknown account" in result.error


class TestCrossCurrency:
    def place_bridge_offer(self, state, actors):
        state.place_offer(
            Offer(
                owner=actors["maker"],
                sequence=1,
                taker_pays=usd(11_000),
                taker_gets=eur(10_000),
            )
        )

    def test_bridge_delivers_eur_for_usd(self, economy):
        state, actors = economy
        self.place_bridge_offer(state, actors)
        engine = PaymentEngine(state)
        result = engine.submit(
            actors["sender"], actors["euro-receiver"], eur(100), send_max=usd(1_000)
        )
        assert result.success
        assert result.is_cross_currency
        assert result.outcome.bridge_account == actors["maker"]
        assert state.iou_balance(actors["euro-receiver"], EUR).to_float() == pytest.approx(100)
        # Sender paid ~110 USD at the 1.1 rate.
        assert state.iou_balance(actors["sender"], USD).to_float() == pytest.approx(5_000 - 110)

    def test_no_offers_no_bridge(self, economy):
        state, actors = economy
        engine = PaymentEngine(state)
        result = engine.submit(
            actors["sender"], actors["euro-receiver"], eur(100), send_max=usd(1_000)
        )
        assert not result.success

    def test_allow_offers_false_blocks_cross_currency(self, economy):
        state, actors = economy
        self.place_bridge_offer(state, actors)
        engine = PaymentEngine(state)
        result = engine.submit(
            actors["sender"],
            actors["euro-receiver"],
            eur(100),
            send_max=usd(1_000),
            allow_offers=False,
        )
        assert not result.success

    def test_banned_maker_blocks_bridge(self, economy):
        state, actors = economy
        self.place_bridge_offer(state, actors)
        engine = PaymentEngine(state)
        result = engine.submit(
            actors["sender"],
            actors["euro-receiver"],
            eur(100),
            send_max=usd(1_000),
            banned_intermediaries={actors["maker"]},
        )
        assert not result.success

    def test_failed_bridge_rolls_back_offer(self, economy):
        state, actors = economy
        self.place_bridge_offer(state, actors)
        # euro-receiver2 exists but trusts nobody — delivery leg must fail.
        stranded = account_from_name("stranded", namespace="engine")
        state.create_account(stranded, 10 ** 9)
        engine = PaymentEngine(state)
        result = engine.submit(
            actors["sender"], stranded, eur(100), send_max=usd(1_000)
        )
        assert not result.success
        offer = state.offers[(actors["maker"], 1)]
        assert offer.taker_gets.to_float() == pytest.approx(10_000)


class TestBannedIntermediaries:
    def test_banned_gateway_blocks_relay(self, economy):
        state, actors = economy
        engine = PaymentEngine(state)
        result = engine.submit(
            actors["sender"],
            actors["receiver"],
            usd(10),
            banned_intermediaries={actors["gateway"]},
        )
        assert not result.success

    def test_banned_account_still_usable_as_endpoint(self, economy):
        state, actors = economy
        engine = PaymentEngine(state)
        result = engine.submit(
            actors["sender"],
            actors["gateway"],
            usd(10),
            banned_intermediaries={actors["gateway"]},
        )
        assert result.success


class TestForcedPaths:
    def test_forced_route_and_metadata(self, economy):
        state, actors = economy
        # Build a 2-intermediate chain with explicit trust.
        chain = [account_from_name(f"relay{i}", namespace="engine") for i in range(2)]
        for account in chain:
            state.create_account(account, 10 ** 9)
        state.set_trust(chain[0], actors["sender"], usd(1_000))
        state.set_trust(chain[1], chain[0], usd(1_000))
        state.set_trust(actors["receiver"], chain[1], usd(1_000))
        engine = PaymentEngine(state)
        path = [actors["sender"], chain[0], chain[1], actors["receiver"]]
        result = engine.submit(
            actors["sender"], actors["receiver"], usd(50),
            forced_paths=[(path, 50.0)],
        )
        assert result.success
        assert result.intermediate_hops == 2
        assert result.parallel_paths == 1

    def test_intermediaries_once_each_in_first_seen_order(self, economy):
        # Three parallel paths that share relays: each relay is listed once,
        # where it first appears walking the paths in order.
        state, actors = economy
        a, b, c, d = (
            account_from_name(f"shared-relay-{name}", namespace="engine")
            for name in "abcd"
        )
        for account in (a, b, c, d):
            state.create_account(account, 10 ** 9)
        sender, receiver = actors["sender"], actors["receiver"]
        for truster, trustee in (
            (a, sender), (b, sender), (c, a), (c, b), (d, a), (receiver, c), (receiver, d),
        ):
            state.set_trust(truster, trustee, usd(1_000))
        paths = [[sender, a, c, receiver], [sender, b, c, receiver], [sender, a, d, receiver]]
        result = PaymentEngine(state).submit(
            sender, receiver, usd(30), forced_paths=[(path, 10.0) for path in paths],
        )
        assert result.success and result.parallel_paths == 3
        assert result.intermediaries == [a, c, b, d]

    def test_forced_route_without_capacity_fails_atomically(self, economy):
        state, actors = economy
        path = [actors["sender"], actors["receiver"]]
        result = PaymentEngine(state).submit(
            actors["sender"], actors["receiver"], usd(50),
            forced_paths=[(path, 50.0)],
        )
        # receiver does not trust sender directly
        assert not result.success


class TestExecutorRollback:
    def test_rollback_restores_everything(self, economy):
        state, actors = economy
        executor = Executor(state)
        executor.hop(actors["gateway"], actors["receiver"], usd(25))
        executor.xrp(actors["sender"], actors["receiver"], 1234)
        offer = Offer(
            owner=actors["maker"], sequence=9,
            taker_pays=usd(110), taker_gets=eur(100),
        )
        state.place_offer(offer)
        executor.fill(offer, eur(40))
        executor.rollback()
        assert state.iou_balance(actors["receiver"], USD).is_zero
        assert state.xrp_balance(actors["sender"]) == 10 ** 12
        assert offer.taker_gets.to_float() == pytest.approx(100)
        assert executor.pending_ops == 0

    def test_commit_clears_journal(self, economy):
        state, actors = economy
        executor = Executor(state)
        executor.xrp(actors["sender"], actors["receiver"], 10)
        executor.commit()
        executor.rollback()  # no-op after commit
        assert state.xrp_balance(actors["receiver"]) == 10 ** 12 + 10


class TestSameCurrencyDetour:
    def test_detour_via_books_when_no_trust_path(self, economy):
        state, actors = economy
        # A USD receiver at gateway2 with no path from sender's gateway.
        stranded = account_from_name("stranded-usd", namespace="engine")
        state.create_account(stranded, 10 ** 9)
        state.set_trust(stranded, actors["gateway2"], usd(10_000))
        state.set_trust(actors["maker"], actors["gateway2"], usd(10 ** 6))
        state.apply_hop(actors["gateway2"], actors["maker"], usd(10 ** 5))
        # Books: USD -> XRP and XRP -> USD (the detour's two legs).
        state.place_offer(Offer(owner=actors["maker"], sequence=21,
                                taker_pays=usd(10_000),
                                taker_gets=Amount.xrp(1_000_000)))
        state.place_offer(Offer(owner=actors["maker"], sequence=22,
                                taker_pays=Amount.xrp(1_050_000),
                                taker_gets=usd(10_000)))
        engine = PaymentEngine(state)
        result = engine.submit(actors["sender"], stranded, usd(50))
        assert result.success
        assert state.iou_balance(stranded, USD).to_float() == pytest.approx(50)

    def test_detour_blocked_when_owner_banned(self, economy):
        state, actors = economy
        stranded = account_from_name("stranded-usd2", namespace="engine")
        state.create_account(stranded, 10 ** 9)
        state.set_trust(stranded, actors["gateway2"], usd(10_000))
        state.set_trust(actors["maker"], actors["gateway2"], usd(10 ** 6))
        state.apply_hop(actors["gateway2"], actors["maker"], usd(10 ** 5))
        state.place_offer(Offer(owner=actors["maker"], sequence=31,
                                taker_pays=usd(10_000),
                                taker_gets=Amount.xrp(1_000_000)))
        state.place_offer(Offer(owner=actors["maker"], sequence=32,
                                taker_pays=Amount.xrp(1_050_000),
                                taker_gets=usd(10_000)))
        engine = PaymentEngine(state)
        result = engine.submit(
            actors["sender"], stranded, usd(50),
            banned_intermediaries={actors["maker"]},
        )
        assert not result.success
