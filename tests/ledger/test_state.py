"""Tests for mutable ledger state."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    InsufficientBalanceError,
    LedgerError,
    TrustLineError,
    UnknownAccountError,
)
from repro.ledger.accounts import AccountID, account_from_name
from repro.ledger.amounts import Amount
from repro.ledger.currency import EUR, USD
from repro.ledger.offers import Offer
from repro.ledger.state import BASE_RESERVE_DROPS, LedgerState
from repro.payments.engine import PaymentEngine


def usd(value):
    return Amount.from_value(USD, value)


class TestAccounts:
    def test_create_and_lookup(self, simple_state):
        state, actors = simple_state
        assert state.has_account(actors["alice"])
        assert state.xrp_balance(actors["alice"]) == 10 ** 9

    def test_duplicate_create_rejected(self, simple_state):
        state, actors = simple_state
        with pytest.raises(LedgerError):
            state.create_account(actors["alice"])

    def test_unknown_account_raises(self):
        state = LedgerState()
        with pytest.raises(UnknownAccountError):
            state.account(account_from_name("ghost"))

    def test_xrp_transfer(self, simple_state):
        state, actors = simple_state
        state.transfer_xrp(actors["alice"], actors["bob"], 500)
        assert state.xrp_balance(actors["bob"]) == 10 ** 9 + 500

    def test_overdraft_rejected(self, simple_state):
        state, actors = simple_state
        with pytest.raises(InsufficientBalanceError):
            state.transfer_xrp(actors["alice"], actors["bob"], 10 ** 10)

    def test_reserve_enforcement(self, simple_state):
        state, actors = simple_state
        state.enforce_reserve = True
        spendable = 10 ** 9 - BASE_RESERVE_DROPS
        state.transfer_xrp(actors["alice"], actors["bob"], spendable)
        with pytest.raises(InsufficientBalanceError):
            state.transfer_xrp(actors["alice"], actors["bob"], 1)

    def test_fee_burning_destroys_xrp(self, simple_state):
        state, actors = simple_state
        total_before = state.total_xrp_drops()
        state.burn_fee(actors["alice"], 10)
        assert state.total_xrp_drops() == total_before - 10
        assert state.burned_fee_drops == 10

    def test_sequence_numbers_monotone(self, simple_state):
        state, actors = simple_state
        first = state.next_sequence(actors["alice"])
        second = state.next_sequence(actors["alice"])
        assert second == first + 1


class TestTrust:
    def test_set_trust_creates_line(self, simple_state):
        state, actors = simple_state
        line = state.trust_line(actors["alice"], actors["gateway"], USD)
        assert line is not None and line.limit.to_float() == 1000

    def test_set_trust_updates_limit(self, simple_state):
        state, actors = simple_state
        state.set_trust(actors["alice"], actors["gateway"], usd(2000))
        line = state.trust_line(actors["alice"], actors["gateway"], USD)
        assert line.limit.to_float() == 2000

    def test_indexes_consistent(self, simple_state):
        state, actors = simple_state
        trusted = state.lines_trusted_by(actors["alice"])
        trusting = state.lines_trusting(actors["gateway"])
        assert any(line.trustee == actors["gateway"] for line in trusted)
        assert any(line.truster == actors["alice"] for line in trusting)

    def test_iou_balance_nets_credit_and_debt(self, simple_state):
        state, actors = simple_state
        # alice holds 500 of gateway credit
        assert state.iou_balance(actors["alice"], USD).to_float() == 500
        assert state.iou_balance(actors["gateway"], USD).to_float() == -500


class TestOpenLine:
    def test_equals_set_trust_then_deposit_hop(self, simple_state):
        state, actors = simple_state
        line = state.open_line(actors["bob"], actors["carol"], usd(800), usd(300))
        state.set_trust(actors["carol"], actors["alice"], usd(800))
        state.apply_hop(actors["alice"], actors["carol"], usd(300))
        stepwise = state.trust_line(actors["carol"], actors["alice"], USD)
        assert state.lines_trusted_by(actors["bob"])[-1] is line
        assert state.lines_trusting(actors["carol"])[-1] is line
        for name in ("limit", "balance", "_available", "_balance_float", "_available_float"):
            assert getattr(line, name) == getattr(stepwise, name), name

    def test_zero_balance_may_face_a_reverse_line(self, simple_state):
        state, actors = simple_state
        line = state.open_line(actors["gateway"], actors["alice"], usd(10), usd(0))
        assert line.balance.is_zero and line.available_credit() == usd(10)

    def test_deposit_facing_a_reverse_line_rejected(self, simple_state):
        # gateway -> alice would first settle alice's line to the gateway.
        state, actors = simple_state
        with pytest.raises(TrustLineError):
            state.open_line(actors["gateway"], actors["alice"], usd(10), usd(1))

    def test_existing_line_rejected(self, simple_state):
        state, actors = simple_state
        with pytest.raises(LedgerError):
            state.open_line(actors["alice"], actors["gateway"], usd(10), usd(0))

    @pytest.mark.parametrize("balance", [-1, 11])
    def test_balance_outside_limit_rejected(self, simple_state, balance):
        state, actors = simple_state
        with pytest.raises(TrustLineError):
            state.open_line(actors["bob"], actors["carol"], usd(10), usd(balance))
        assert state.trust_line(actors["bob"], actors["carol"], USD) is None

    def test_unknown_account_rejected(self, simple_state):
        state, actors = simple_state
        with pytest.raises(UnknownAccountError):
            state.open_line(account_from_name("ghost"), actors["bob"], usd(1), usd(0))


class TestHops:
    def test_hop_capacity_combines_directions(self, simple_state):
        state, actors = simple_state
        # gateway -> bob: bob trusts gateway for 1000, no debt yet.
        assert state.hop_capacity(actors["gateway"], actors["bob"], USD) == 1000
        # alice -> gateway: alice holds 500 (settle) + no trust from gateway.
        assert state.hop_capacity(actors["alice"], actors["gateway"], USD) == 500

    def test_apply_hop_settles_before_extending(self, simple_state):
        state, actors = simple_state
        # alice pays gateway 300: settles 300 of the gateway's 500 debt.
        state.apply_hop(actors["alice"], actors["gateway"], usd(300))
        assert state.iou_balance(actors["alice"], USD).to_float() == 200

    def test_apply_hop_mixed_settle_extend(self, simple_state):
        state, actors = simple_state
        # gateway owes alice 500; gateway also trusts nobody.  Alice pays
        # 600: 500 settles, 100 requires trust gateway->alice — absent.
        with pytest.raises(TrustLineError):
            state.apply_hop(actors["alice"], actors["gateway"], usd(600))

    def test_apply_hop_without_any_line_rejected(self, simple_state):
        state, actors = simple_state
        with pytest.raises(TrustLineError):
            state.apply_hop(actors["alice"], actors["bob"], usd(1))


class TestOffers:
    def offer(self, actors, sequence=1, pays=110.0, gets=100.0):
        return Offer(
            owner=actors["alice"],
            sequence=sequence,
            taker_pays=usd(pays),
            taker_gets=Amount.from_value(EUR, gets),
        )

    def test_place_and_book_lookup(self, simple_state):
        state, actors = simple_state
        state.place_offer(self.offer(actors))
        book = state.book_offers(USD, EUR)
        assert len(book) == 1

    def test_books_sorted_by_quality(self, simple_state):
        state, actors = simple_state
        state.place_offer(self.offer(actors, sequence=1, pays=120))
        state.place_offer(self.offer(actors, sequence=2, pays=105))
        book = state.book_offers(USD, EUR)
        assert book[0].sequence == 2

    def test_duplicate_offer_rejected(self, simple_state):
        state, actors = simple_state
        state.place_offer(self.offer(actors))
        with pytest.raises(LedgerError):
            state.place_offer(self.offer(actors))

    def test_cancel(self, simple_state):
        state, actors = simple_state
        state.place_offer(self.offer(actors))
        assert state.cancel_offer(actors["alice"], 1)
        assert not state.cancel_offer(actors["alice"], 1)
        assert state.book_offers(USD, EUR) == []

    def test_consumed_offers_pruned_lazily(self, simple_state):
        state, actors = simple_state
        offer = self.offer(actors)
        state.place_offer(offer)
        offer.fill(Amount.from_value(EUR, 100))
        assert state.book_offers(USD, EUR) == []
        assert (actors["alice"], 1) not in state.offers

    def test_remove_all_offers_of_owner(self, simple_state):
        state, actors = simple_state
        state.place_offer(self.offer(actors, sequence=1))
        state.place_offer(self.offer(actors, sequence=2))
        assert state.remove_all_offers_of(actors["alice"]) == 2
        assert state.book_offers(USD, EUR) == []


def _remove_all_offers_loop(state, owner):
    """The per-offer cancel loop ``remove_all_offers_of`` replaced."""
    removed = 0
    for offer in list(state.offers.values()):
        if offer.owner == owner:
            state.cancel_offer(owner, offer.sequence)
            removed += 1
    return removed


class TestRemoveAllOffersOf:
    def test_matches_per_offer_cancel_loop(self, history):
        ours = copy.deepcopy(history.snapshot_state)
        theirs = copy.deepcopy(history.snapshot_state)
        book_key, book = max(ours._books.items(), key=lambda item: len(item[1]))
        owners = list(dict.fromkeys(offer.owner for offer in book))
        assert len(owners) >= 4
        banned = set(owners[:3]) | {history.cast.gateway_accounts()[0]}
        assert not ours.offers_by_owner(history.cast.gateway_accounts()[0])
        # One consumed offer of a removed owner and one of a kept owner.
        consumed = [
            next(offer for offer in book if offer.owner in banned),
            next(offer for offer in book if offer.owner not in banned),
        ]
        for state in (ours, theirs):
            for offer in consumed:
                twin = state.offers[offer.offer_id()]
                twin.fill(twin.taker_gets)
                assert twin.is_consumed
        order = sorted(banned, key=lambda account: account.address)
        counts = [ours.remove_all_offers_of(owner) for owner in order]
        assert counts == [_remove_all_offers_loop(theirs, owner) for owner in order]
        assert 0 in counts and sum(counts) > 3
        assert list(ours.offers) == list(theirs.offers)
        assert list(ours._books) == list(theirs._books)
        for key, entries in theirs._books.items():
            assert [o.offer_id() for o in ours._books[key]] == [
                o.offer_id() for o in entries
            ], key
            assert all(ours.offers.get(o.offer_id()) is o for o in ours._books[key])
        assert any(o.is_consumed for o in ours._books[book_key])


# Structural snapshots -------------------------------------------------------


def ledger_image(state):
    """Every ledger field as plain values, in container order."""

    def entries(table):
        return [(key, dict(vars(entry))) for key, entry in table.items()]

    def line_keys(index):
        return [
            (account, [line.key for line in lines])
            for account, lines in index.items()
        ]

    return {
        "accounts": entries(state.accounts),
        "trustlines": entries(state.trustlines),
        "offers": entries(state.offers),
        "books": [
            (book, [offer.offer_id() for offer in offers])
            for book, offers in state._books.items()
        ],
        "by_truster": line_keys(state._lines_by_truster),
        "by_trustee": line_keys(state._lines_by_trustee),
        "currency_lines": [
            (code, line_keys(index.ins), line_keys(index.outs))
            for code, index in state._currency_lines.items()
        ],
        "scalars": [
            (spec.name, getattr(state, spec.name))
            for spec in dataclasses.fields(LedgerState)
            if not isinstance(getattr(state, spec.name), dict)
        ],
    }


def eur(value):
    return Amount.from_value(EUR, value)


@pytest.fixture()
def market_state(simple_state):
    """``simple_state`` plus a EUR line, two offers and a live USD index."""
    state, actors = simple_state
    state.set_trust(actors["bob"], actors["gateway"], eur(800))
    state.apply_hop(actors["gateway"], actors["bob"], eur(300))
    for sequence in (1, 2):
        state.place_offer(
            Offer(
                owner=actors["alice"],
                sequence=sequence,
                taker_pays=usd(100 + sequence),
                taker_gets=eur(90),
            )
        )
    state.currency_lines(USD.code)
    return state, actors


MUTATIONS = {
    "apply_hop": lambda s, a: s.apply_hop(a["gateway"], a["bob"], usd(50)),
    "set_trust_update": lambda s, a: s.set_trust(a["alice"], a["gateway"], usd(5)),
    "set_trust_new": lambda s, a: s.set_trust(a["carol"], a["bob"], usd(10)),
    "place_offer": lambda s, a: s.place_offer(
        Offer(owner=a["bob"], sequence=9, taker_pays=eur(10), taker_gets=usd(9))
    ),
    "cancel_offer": lambda s, a: s.cancel_offer(a["alice"], 1),
    "offer_fill": lambda s, a: s.offers[(a["alice"], 2)].fill(eur(30)),
    "close_trust_line": lambda s, a: s.close_trust_line(
        a["alice"], a["gateway"], USD
    ),
    "remove_all_offers_of": lambda s, a: s.remove_all_offers_of(a["alice"]),
    "transfer_xrp": lambda s, a: s.transfer_xrp(a["alice"], a["bob"], 7),
}


class TestStructuralCopy:
    @pytest.mark.parametrize("which", ["snapshot_state", "state"])
    def test_matches_pickle_reference(self, history, which):
        state = getattr(history, which)
        reference = pickle.loads(pickle.dumps(state))
        twin = copy.deepcopy(state)
        assert ledger_image(twin) == ledger_image(reference)
        assert pickle.dumps(twin) == pickle.dumps(state)

    @pytest.mark.parametrize("which", ["snapshot_state", "state"])
    def test_aliasing_preserved(self, history, which):
        state = getattr(history, which)
        assert state._currency_lines, "generation builds per-currency indexes"
        twin = copy.deepcopy(state)
        for offers in twin._books.values():
            for offer in offers:
                assert offer is twin.offers[offer.offer_id()]
        indexes = [twin._lines_by_truster, twin._lines_by_trustee]
        for index in twin._currency_lines.values():
            indexes += [index.ins, index.outs]
        for index in indexes:
            for lines in index.values():
                for line in lines:
                    assert line is twin.trustlines[line.key]

    def test_memo_registers_the_copy(self, market_state):
        state, _ = market_state
        memo = {}
        twin = copy.deepcopy(state, memo)
        assert memo[id(state)] is twin
        pair = copy.deepcopy([state, state])
        assert pair[0] is pair[1]

    def test_no_container_or_entry_shared(self, market_state):
        state, _ = market_state
        twin = copy.deepcopy(state)
        for spec in dataclasses.fields(LedgerState):
            value = getattr(state, spec.name)
            if isinstance(value, (dict, list)):
                assert getattr(twin, spec.name) is not value, spec.name
        for table in ("accounts", "trustlines", "offers"):
            for key, entry in getattr(state, table).items():
                assert getattr(twin, table)[key] is not entry

    @pytest.mark.parametrize("mutated", ["original", "copy"])
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_sides_independent(self, market_state, mutation, mutated):
        state, actors = market_state
        twin = copy.deepcopy(state)
        before = ledger_image(state)
        target, other = (state, twin) if mutated == "original" else (twin, state)
        MUTATIONS[mutation](target, actors)
        assert ledger_image(target) != before
        assert ledger_image(other) == before

    def test_builds_no_amount_or_account(self, history, monkeypatch):
        """The copy shares leaves: no ``Amount`` or ``AccountID`` is built."""
        built = []

        def counting(cls, name):
            inner = getattr(cls, name)

            def wrapper(self, *args):
                built.append(cls.__name__)
                return inner(self, *args)

            monkeypatch.setattr(cls, name, wrapper)

        counting(Amount, "__post_init__")
        counting(AccountID, "__post_init__")
        counting(AccountID, "__setstate__")
        state = history.state
        twin = copy.deepcopy(state)
        assert built == []
        for mine, theirs in zip(twin.accounts, state.accounts):
            assert mine is theirs
            assert twin.accounts[mine].account is state.accounts[theirs].account
        for key, line in state.trustlines.items():
            other = twin.trustlines[key]
            assert other.limit is line.limit
            assert other.balance is line.balance
            assert other.truster is line.truster
        for key, offer in state.offers.items():
            other = twin.offers[key]
            assert other.taker_pays is offer.taker_pays
            assert other.taker_gets is offer.taker_gets


def _random_economy(setup):
    """A small two-currency economy driven through ``setup`` steps."""
    state = LedgerState()
    users = [account_from_name(f"u{i}", namespace="copy") for i in range(4)]
    gateways = [account_from_name(f"g{i}", namespace="copy") for i in range(2)]
    maker = account_from_name("maker", namespace="copy")
    for account in users + gateways + [maker]:
        state.create_account(account, 10 ** 12)
    for holder, deposit in [(maker, 10 ** 4)] + [(user, 500) for user in users]:
        for gateway in gateways:
            state.set_trust(holder, gateway, usd(2 * deposit))
            state.set_trust(holder, gateway, eur(2 * deposit))
        state.apply_hop(gateways[0], holder, usd(deposit))
        state.apply_hop(gateways[1], holder, eur(deposit))
    engine = PaymentEngine(state)
    for op, i, j, value in setup:
        user, other = users[i % 4], users[j % 4]
        gateway = gateways[j % 2]
        currency = (USD, EUR)[i % 2]
        amount = Amount.from_value(currency, value)
        if op == "trust":
            state.set_trust(user, gateway, amount)
        elif op == "deposit":
            try:
                state.apply_hop(gateway, user, amount)
            except TrustLineError:
                pass
        elif op == "offer":
            state.place_offer(
                Offer(
                    owner=maker,
                    sequence=state.next_sequence(maker),
                    taker_pays=usd(value * (1 + j / 10)),
                    taker_gets=eur(value),
                )
            )
        elif op == "cancel":
            owned = state.offers_by_owner(maker)
            if owned:
                state.cancel_offer(maker, owned[i % len(owned)].sequence)
        elif op == "close":
            state.close_trust_line(user, gateway, currency)
        else:
            engine.submit(user, other, amount, send_max=usd(value * 2))
    return state, users


def _outcome(result):
    return (
        result.success,
        result.error,
        result.fee_drops,
        result.outcome.delivered,
        result.outcome.paths,
        result.outcome.bridge_account,
        result.outcome.offers_consumed,
    )


_steps = st.tuples(
    st.sampled_from(["trust", "deposit", "offer", "cancel", "close", "pay"]),
    st.integers(0, 7),
    st.integers(0, 7),
    st.integers(1, 400),
)


@settings(max_examples=40, deadline=None)
@given(
    setup=st.lists(_steps, max_size=30),
    payments=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.booleans(),
            st.integers(1, 300)),
        min_size=1,
        max_size=8,
    ),
)
def test_copy_replays_identically(setup, payments):
    state, users = _random_economy(setup)
    twin = copy.deepcopy(state)
    assert ledger_image(twin) == ledger_image(state)
    outcomes = []
    for side in (state, twin):
        engine = PaymentEngine(side)
        outcomes.append([
            _outcome(engine.submit(
                users[i], users[j],
                eur(value) if cross else usd(value),
                send_max=usd(value * 2) if cross else None,
            ))
            for i, j, cross, value in payments
        ])
    assert outcomes[0] == outcomes[1]
    assert ledger_image(twin) == ledger_image(state)
