"""Tests for trust lines and exchange offers."""

import pytest

from repro.errors import InvalidAmountError, OfferError, TrustLineError
from repro.ledger.accounts import account_from_name
from repro.ledger.amounts import Amount
from repro.ledger.currency import EUR, USD, XRP
from repro.ledger.offers import Offer, better_quality
from repro.ledger.trustlines import TrustLine

ALICE = account_from_name("alice")
BOB = account_from_name("bob")


def usd(value):
    return Amount.from_value(USD, value)


class TestTrustLine:
    def test_no_self_trust(self):
        with pytest.raises(TrustLineError):
            TrustLine(ALICE, ALICE, USD, usd(10))

    def test_no_xrp_trust_lines(self):
        with pytest.raises(TrustLineError):
            TrustLine(ALICE, BOB, XRP, Amount.xrp(10))

    def test_negative_limit_rejected(self):
        with pytest.raises(TrustLineError):
            TrustLine(ALICE, BOB, USD, usd(-1))

    def test_currency_mismatch_rejected(self):
        with pytest.raises(InvalidAmountError):
            TrustLine(ALICE, BOB, USD, Amount.from_value(EUR, 10))

    def test_extend_and_settle(self):
        line = TrustLine(ALICE, BOB, USD, usd(100))
        line.extend_debt(usd(60))
        assert line.balance.to_float() == 60
        assert line.available_credit().to_float() == 40
        line.settle_debt(usd(25))
        assert line.balance.to_float() == 35

    def test_extend_beyond_limit_rejected(self):
        line = TrustLine(ALICE, BOB, USD, usd(100))
        with pytest.raises(TrustLineError):
            line.extend_debt(usd(101))

    def test_settle_more_than_owed_rejected(self):
        line = TrustLine(ALICE, BOB, USD, usd(100))
        line.extend_debt(usd(10))
        with pytest.raises(TrustLineError):
            line.settle_debt(usd(11))

    def test_lowering_limit_below_balance_freezes_credit(self):
        # As in Ripple: lowering a limit never erases existing debt.
        line = TrustLine(ALICE, BOB, USD, usd(100))
        line.extend_debt(usd(80))
        line.set_limit(usd(50))
        assert line.balance.to_float() == 80
        assert line.available_credit().is_zero

    def test_kept_available_credit_follows_every_mutation(self):
        # available_credit() and extend_debt's capacity check read the
        # amount kept at the last mutation; it must equal limit - balance
        # (floored at zero) after each kind of mutation.
        line = TrustLine(ALICE, BOB, USD, usd(100))

        def check():
            fresh = line.limit - line.balance
            expected = fresh if fresh.is_positive else Amount.zero(USD)
            assert line.available_credit() == expected
            assert line._available_float == expected.to_float()
            assert line._balance_float == line.balance.to_float()

        check()
        for mutate in (
            lambda: line.extend_debt(usd(60.5)),
            lambda: line.settle_debt(usd(0.25)),
            lambda: line.set_limit(usd(40)),
            lambda: line.set_limit(usd(1e9)),
            lambda: line.extend_debt(usd(1e8)),
            lambda: line.write_off(),
        ):
            mutate()
            check()
        with pytest.raises(TrustLineError):
            line.extend_debt(usd(0.5))  # write_off withdrew the limit

    def test_dead_line_detection(self):
        line = TrustLine(ALICE, BOB, USD, usd(0))
        assert line.is_dead()
        line.set_limit(usd(5))
        assert not line.is_dead()


class TestOffer:
    def make(self, pays=110.0, gets=100.0):
        return Offer(
            owner=ALICE,
            sequence=1,
            taker_pays=usd(pays),
            taker_gets=Amount.from_value(EUR, gets),
        )

    def test_quality(self):
        assert self.make().quality == pytest.approx(1.1)

    def test_zero_amounts_rejected(self):
        with pytest.raises(OfferError):
            Offer(ALICE, 1, usd(0), Amount.from_value(EUR, 1))

    def test_same_asset_rejected(self):
        with pytest.raises(OfferError):
            Offer(ALICE, 1, usd(1), usd(2))

    def test_xrp_vs_iou_same_code_never_happens_but_issuers_differ(self):
        # Same currency code with different issuers is a valid book.
        a = Amount.from_value(USD, 1, issuer=account_from_name("g1"))
        b = Amount.from_value(USD, 1, issuer=account_from_name("g2"))
        Offer(ALICE, 1, a, b)  # must not raise

    def test_partial_fill(self):
        offer = self.make()
        pays = offer.fill(Amount.from_value(EUR, 40))
        assert pays.to_float() == pytest.approx(44.0)
        assert offer.taker_gets.to_float() == pytest.approx(60.0)
        assert offer.taker_pays.to_float() == pytest.approx(66.0)
        # Quality is preserved under partial fills.
        assert offer.quality == pytest.approx(1.1)

    def test_full_fill_consumes(self):
        offer = self.make()
        offer.fill(Amount.from_value(EUR, 100))
        assert offer.is_consumed

    def test_overfill_rejected(self):
        with pytest.raises(OfferError):
            self.make().fill(Amount.from_value(EUR, 101))

    def test_fill_wrong_currency_rejected(self):
        with pytest.raises(OfferError):
            self.make().fill(usd(10))

    def test_max_gets_for(self):
        offer = self.make()
        gets = offer.max_gets_for(usd(55))
        assert gets.to_float() == pytest.approx(50.0)

    def test_max_gets_capped_at_size(self):
        offer = self.make()
        gets = offer.max_gets_for(usd(1e6))
        assert gets.to_float() == pytest.approx(100.0)


class TestBetterQuality:
    def test_lower_wins(self):
        assert better_quality(1.0, 2.0)
        assert not better_quality(2.0, 1.0)

    def test_none_handling(self):
        assert better_quality(1.0, None)
        assert not better_quality(None, 1.0)
