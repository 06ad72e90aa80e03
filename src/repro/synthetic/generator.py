"""The synthetic-history generator: three years of Ripple, replayed for real.

This is the substitution for the paper's 500 GB ledger download.  Instead of
parsing an archive, we *run* the economy: every IOU payment is routed and
executed through the actual payment engine against actual ledger state, so
path lengths, parallel paths, intermediary appearances, balances, and trust
structures in the output are consequences of the mechanics, not labels.

Outputs (in :class:`SyntheticHistory`):

* one :class:`~repro.synthetic.records.TransactionRecord` per payment —
  the Section V feature tuple plus path metadata;
* offer-placement records for the market-maker concentration statistics;
* a ledger snapshot at the Table II date (Feb 2015) — a structural copy
  with its own accounts, trust lines and offers that shares the immutable
  amounts and account IDs (``LedgerState.__deepcopy__``) — together with
  the replayable post-snapshot intents (payments, deposits, trust
  updates);
* the final ledger state, for the balance/trust profiling of Fig. 7.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.ledger.accounts import ACCOUNT_ZERO, AccountID, account_from_name
from repro.ledger.amounts import DROPS_PER_XRP, Amount
from repro.ledger.currency import Currency, eur_value
from repro.ledger.offers import Offer
from repro.ledger.state import LedgerState
from repro.payments.engine import PaymentEngine, PaymentResult
from repro.obs.metrics import METRICS
from repro.obs.trace import span
from repro.synthetic.actors import Cast, build_cast
from repro.synthetic.config import EconomyConfig
from repro.synthetic.distributions import sample_amounts
from repro.synthetic.records import (
    KIND_CCK,
    KIND_FIAT,
    KIND_LONG_SPAM,
    KIND_MTL_SPAM,
    KIND_SPIN,
    KIND_XRP,
    KIND_ZERO,
    OfferRecord,
    ReplayIntent,
    TransactionRecord,
    TrustEvent,
)
from repro.synthetic.workload import (
    PaymentSlot,
    build_schedule,
    offer_schedule,
    zipf_maker_weights,
)

#: Extra deposit factor when topping up a seat before a payment.  Kept
#: tight so fragmented deposits actually force parallel paths (a fat
#: surplus at one gateway would let a single path carry everything).
TOP_UP_FACTOR = 1.05
#: Live offers kept per order book (older ones are cancelled — books churn).
BOOK_DEPTH_CAP = 30
#: Probability a single-currency fiat payment stays within one gateway.
SAME_GATEWAY_PROBABILITY_MAJOR = 0.36
SAME_GATEWAY_PROBABILITY_TAIL = 0.31
#: Probability a CCK micro-payment stays within one hub's user group
#: (cross-hub payments ripple through both hubs).
SAME_HUB_PROBABILITY = 0.72
#: Probability a payment's liquidity is fragmented across several gateway
#: seats, forcing the path finder to split it over parallel paths.
SPLIT_PROBABILITY = 0.55
#: Parallel-path counts (2-4) and their weights for fragmented payments,
#: shaped after Fig. 6(b): 4 paths is the commonest split.
SPLIT_CHOICES = (2, 3, 4)
SPLIT_WEIGHTS = (0.22, 0.19, 0.59)
#: Fraction of offer placements made by one-off users (unfunded noise) —
#: the paper's top-100 makers place 87 % of offers; the rest is this tail.
USER_OFFER_SHARE = 0.13
#: Fraction of maker offers quoted directly between two IOU currencies
#: (the rest quote against XRP, the universal bridge).
DIRECT_BOOK_SHARE = 0.35
#: Probability a major-currency fiat payment is cross-currency.
CROSS_CURRENCY_PROBABILITY = 0.95
#: Probability the spend side of a cross-currency payment is XRP.
XRP_SPEND_PROBABILITY = 0.68

MAJOR_FIAT = ("BTC", "USD", "CNY", "JPY", "EUR")


#: How far from 1 ``rng.choice`` lets probabilities sum.
_SUM_TOLERANCE = float(np.sqrt(np.finfo(float).eps))


def weighted_cdf(weights: np.ndarray) -> Optional[np.ndarray]:
    """The CDF ``rng.choice(len(weights), p=weights)`` builds per draw.

    ``choice`` checks ``weights``, then normalizes their running sum and
    bisects it with one ``rng.random()``; :func:`weighted_draw` repeats
    only that last step, so both consume the generator alike and pick the
    same index.  Weights ``choice`` would reject (negative, or not summing
    to 1) give None, which :func:`weighted_draw` rejects the same way.
    """
    weights = np.asarray(weights, dtype=float)
    valid = (weights >= 0).all() and abs(weights.sum() - 1.0) <= _SUM_TOLERANCE
    if not valid:
        return None
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf


def weighted_draw(rng: np.random.Generator, cdf: Optional[np.ndarray]) -> int:
    """One index drawn from a :func:`weighted_cdf` result."""
    if cdf is None:
        raise ValueError("weights are not a probability distribution")
    return int(cdf.searchsorted(rng.random(), side="right"))


_SPLIT_CDF = weighted_cdf(np.array(SPLIT_WEIGHTS))


@dataclass
class SyntheticHistory:
    """Everything the analyses read from the synthetic three-year run."""

    config: EconomyConfig
    cast: Cast
    state: LedgerState
    records: List[TransactionRecord] = field(default_factory=list)
    offer_records: List[OfferRecord] = field(default_factory=list)
    snapshot_state: Optional[LedgerState] = None
    replay_intents: List[ReplayIntent] = field(default_factory=list)
    trust_events: List[TrustEvent] = field(default_factory=list)
    failed_payments: int = 0

    @property
    def delivered_records(self) -> List[TransactionRecord]:
        return [record for record in self.records if record.delivered]

    def multi_hop_records(self) -> List[TransactionRecord]:
        """The Fig. 6 population: delivered, non-direct-XRP, ≥1 intermediate."""
        return [record for record in self.records if record.is_multi_hop]


class LedgerHistoryGenerator:
    """Builds a :class:`SyntheticHistory` for an :class:`EconomyConfig`."""

    def __init__(self, config: EconomyConfig):
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.state = LedgerState()
        currencies = [Currency(code) for code in config.currency_weights()]
        with span("synthetic.build_cast"):
            self.cast = build_cast(config, self.state, self.rng, currencies)
        self.engine = PaymentEngine(self.state)
        self.history = SyntheticHistory(
            config=config, cast=self.cast, state=self.state
        )
        # Seats: (user account -> {currency code -> gateway index}).
        self._seats: Dict[AccountID, Dict[str, int]] = {}
        for user in self.cast.users:
            self._seats[user.account] = {
                currency.code: gateway_index for gateway_index, currency in user.seats
            }
        self._user_accounts = [user.account for user in self.cast.users]
        self._sender_weights = np.array([user.activity for user in self.cast.users])
        self._sender_weights /= self._sender_weights.sum()
        receiver_perm = self.rng.permutation(len(self.cast.users))
        self._receiver_weights = self._sender_weights[receiver_perm]
        self._sender_cdf = weighted_cdf(self._sender_weights)
        self._receiver_cdf = weighted_cdf(self._receiver_weights)
        self._spammers = [
            self._mint_user(f"xrp-spammer-{index}") for index in range(4)
        ]
        # CCK hub membership: user i belongs to hub i mod n_hubs.
        n_hubs = max(1, len(self.cast.hubs))
        self._hub_group_weights = []
        for hub_index in range(n_hubs):
            weights = np.where(
                np.arange(len(self.cast.users)) % n_hubs == hub_index,
                self._receiver_weights,
                0.0,
            )
            total = weights.sum()
            self._hub_group_weights.append(weights / total if total > 0 else weights)
        self._hub_group_cdfs = [weighted_cdf(w) for w in self._hub_group_weights]
        self._user_hub = {
            user.account: index % n_hubs
            for index, user in enumerate(self.cast.users)
        }
        self._snapshot_taken = False
        self._offer_sequence = 0
        self._books: Dict[Tuple[str, str], Deque[Tuple[AccountID, int]]] = {}
        self._maker_weights = zipf_maker_weights(self.config)
        self._maker_cdf = weighted_cdf(self._maker_weights)
        self._amount_cache: Dict[str, Tuple[np.ndarray, int]] = {}

    # Public ---------------------------------------------------------------------

    def generate(self) -> SyntheticHistory:
        """Run the whole history and return it."""
        with span("synthetic.generate", payments=self.config.n_payments):
            slots = build_schedule(self.config, self.rng)
            offer_times = offer_schedule(self.config, self.rng)
            offer_cursor = 0
            for index, slot in enumerate(slots):
                while (
                    offer_cursor < len(offer_times)
                    and offer_times[offer_cursor] <= slot.timestamp
                ):
                    self._place_offer(int(offer_times[offer_cursor]))
                    offer_cursor += 1
                self._maybe_snapshot(slot.timestamp)
                self._execute_slot(index, slot)
            while offer_cursor < len(offer_times):
                self._place_offer(int(offer_times[offer_cursor]))
                offer_cursor += 1
            if METRICS.enabled:
                METRICS.count("generator.slots", len(slots))
                METRICS.count("generator.offers_scheduled", len(offer_times))
        return self.history

    # Actor helpers -----------------------------------------------------------------

    def _mint_user(self, name: str) -> AccountID:
        account = account_from_name(name, namespace="economy")
        root = self.state.create_account(account, self.config.activation_drops)
        root.allows_rippling = False
        self.cast.labels[account] = name
        return account

    def _pick_user(
        self, cdf: Optional[np.ndarray], exclude: Optional[AccountID] = None
    ) -> AccountID:
        for _ in range(4):
            index = weighted_draw(self.rng, cdf)
            account = self._user_accounts[index]
            if account != exclude:
                return account
        return self._user_accounts[0]

    def _sample_amount(self, code: str) -> float:
        """Amortized per-currency amount sampling (vectorized in batches)."""
        cached = self._amount_cache.get(code)
        if cached is None or cached[1] >= len(cached[0]):
            batch = sample_amounts(Currency(code), self.rng, 512)
            self._amount_cache[code] = (batch, 0)
            cached = self._amount_cache[code]
        batch, cursor = cached
        self._amount_cache[code] = (batch, cursor + 1)
        return float(batch[cursor])

    # Liquidity management -------------------------------------------------------------

    def _ensure_xrp(self, account: AccountID, drops_needed: int) -> None:
        """Top an account up with XRP from ACCOUNT_ZERO (the distributor)."""
        balance = self.state.xrp_balance(account)
        if balance < drops_needed:
            self.state.transfer_xrp(
                ACCOUNT_ZERO, account, (drops_needed - balance) * 2
            )

    def _ensure_seat(
        self, account: AccountID, currency: Currency, gateway_index: Optional[int] = None
    ) -> int:
        """Make sure ``account`` has a trust seat for ``currency``.

        Returns the seat's gateway index, creating the trust line (and
        logging a post-snapshot trust event) when needed.
        """
        seats = self._seats.setdefault(account, {})
        current = seats.get(currency.code)
        if current is not None and (gateway_index is None or current == gateway_index):
            return current
        if gateway_index is None:
            candidates = self.cast.gateways_for(currency)
            gateway_index = int(candidates[self.rng.integers(0, len(candidates))])
        gateway = self.cast.gateways[gateway_index]
        if self.state.trust_line(account, gateway.account, currency) is None:
            limit = Amount.from_value(currency, 1e7)
            self.state.set_trust(account, gateway.account, limit)
            if self._snapshot_taken:
                self.history.trust_events.append(
                    TrustEvent(
                        timestamp=0,
                        truster=account,
                        trustee=gateway.account,
                        currency=currency.code,
                        limit=1e7,
                    )
                )
        seats[currency.code] = gateway_index
        return gateway_index

    def _ensure_deposit(
        self,
        account: AccountID,
        currency: Currency,
        gateway_index: int,
        amount: float,
        timestamp: int,
    ) -> None:
        """Deposit enough at the gateway to cover ``amount`` (issuance)."""
        gateway = self.cast.gateways[gateway_index]
        line = self.state.trust_line(account, gateway.account, currency)
        balance = line.balance.to_float() if line is not None else 0.0
        if balance >= amount:
            return
        deposit = (amount - balance) * TOP_UP_FACTOR
        limit = line.limit.to_float() if line is not None else 1e7
        deposit = min(deposit, max(0.0, limit - balance))
        if deposit <= 0:
            return
        self.state.apply_hop(
            gateway.account, account, Amount.from_value(currency, deposit)
        )
        if self._snapshot_taken:
            self.history.replay_intents.append(
                ReplayIntent(
                    timestamp=timestamp,
                    sender=gateway.account,
                    receiver=account,
                    amount=deposit,
                    currency=currency.code,
                    spend_currency=currency.code,
                    kind="deposit",
                )
            )

    def _split_count(self, issuers_available: int) -> int:
        """How many gateway seats to fragment liquidity across."""
        if issuers_available < 2 or self.rng.random() >= SPLIT_PROBABILITY:
            return 1
        k = SPLIT_CHOICES[weighted_draw(self.rng, _SPLIT_CDF)]
        return min(k, issuers_available)

    def _fund_single_currency(
        self,
        sender: AccountID,
        currency: Currency,
        primary_gateway: int,
        amount: float,
        timestamp: int,
    ) -> None:
        """Deposit ``amount`` for the sender, possibly fragmented.

        With probability :data:`SPLIT_PROBABILITY` the deposit is spread
        over several gateways, so the payment must use parallel paths —
        the organic 2-4-path mass of Fig. 6(b).
        """
        issuers = self.cast.gateways_for(currency)
        k = self._split_count(len(issuers))
        if k <= 1:
            self._ensure_deposit(sender, currency, primary_gateway, amount, timestamp)
            return
        others = [g for g in issuers if g != primary_gateway]
        picked = [primary_gateway] + list(
            self.rng.choice(np.array(others), size=k - 1, replace=False)
        )
        share = amount / k * 1.12
        for gateway_index in picked:
            seat = self._ensure_seat(sender, currency, int(gateway_index))
            self._ensure_deposit(sender, currency, seat, share, timestamp)

    def _fund_spend_side(
        self,
        sender: AccountID,
        spend: Currency,
        cost_estimate: float,
        timestamp: int,
    ) -> None:
        """Fund the spend leg of a cross-currency payment (maybe split)."""
        issuers = self.cast.gateways_for(spend)
        k = self._split_count(len(issuers))
        if k <= 1:
            seat = self._ensure_seat(sender, spend)
            self._ensure_deposit(sender, spend, seat, cost_estimate, timestamp)
            return
        picked = self.rng.choice(np.array(issuers), size=k, replace=False)
        share = cost_estimate / k * 1.12
        for gateway_index in picked:
            seat = self._ensure_seat(sender, spend, int(gateway_index))
            self._ensure_deposit(sender, spend, seat, share, timestamp)

    # Snapshot ----------------------------------------------------------------------

    def _maybe_snapshot(self, timestamp: int) -> None:
        if self._snapshot_taken or timestamp < self.config.snapshot_time:
            return
        self.history.snapshot_state = copy.deepcopy(self.state)
        self._snapshot_taken = True

    def _log_replay(
        self,
        slot: PaymentSlot,
        sender: AccountID,
        receiver: AccountID,
        amount: float,
        spend_code: str,
        result: PaymentResult,
    ) -> None:
        """Record a delivered post-snapshot IOU payment for the replay."""
        if not self._snapshot_taken or not result.success:
            return
        if slot.timestamp > self.config.replay_end_time:
            return
        self.history.replay_intents.append(
            ReplayIntent(
                timestamp=slot.timestamp,
                sender=sender,
                receiver=receiver,
                amount=amount,
                currency=slot.currency,
                spend_currency=spend_code,
                kind=slot.kind,
            )
        )

    # Offers -------------------------------------------------------------------------

    def _place_offer(self, timestamp: int) -> None:
        if self.rng.random() < USER_OFFER_SHARE:
            # One-off user offers: counted in the concentration statistic,
            # but never competitive (terrible rate, cancelled immediately) —
            # the long tail behind the top-100 makers' 87 %.
            owner = self._pick_user(self._sender_cdf)
            self.history.offer_records.append(
                OfferRecord(owner=owner, timestamp=timestamp)
            )
            return
        maker = self.cast.market_makers[weighted_draw(self.rng, self._maker_cdf)]
        currency = maker.currencies[int(self.rng.integers(0, len(maker.currencies)))]
        xrp = Currency("XRP")
        spread = 1.0 + float(self.rng.uniform(0.002, 0.05))
        rate_xrp_per_unit = eur_value(currency) / eur_value(xrp)
        direct_peers = [c for c in maker.currencies if c.code != currency.code]
        if direct_peers and self.rng.random() < DIRECT_BOOK_SHARE:
            # Direct IOU/IOU book (e.g. USD -> EUR): slightly better than
            # chaining two XRP legs, so single-offer bridges win when deep
            # enough (shorter payment paths, as in Fig. 6(a)).
            other = direct_peers[int(self.rng.integers(0, len(direct_peers)))]
            rate = eur_value(other) / eur_value(currency)
            gets_value = float(self.rng.lognormal(np.log(5e4), 1.2))
            taker_gets = Amount.from_value(other, gets_value)
            taker_pays = Amount.from_value(
                currency, gets_value * rate * (1.0 + (spread - 1.0) * 1.4)
            )
        elif self.rng.random() < 0.5:
            # Book: taker pays XRP, gets `currency` (maker sells currency).
            gets_value = float(self.rng.lognormal(np.log(5e4), 1.2))
            taker_gets = Amount.from_value(currency, gets_value)
            taker_pays = Amount.from_value(xrp, gets_value * rate_xrp_per_unit * spread)
        else:
            # Book: taker pays `currency`, gets XRP (maker buys currency).
            gets_value = float(self.rng.lognormal(np.log(5e4 * rate_xrp_per_unit), 1.2))
            taker_gets = Amount.from_value(xrp, gets_value)
            taker_pays = Amount.from_value(
                currency, gets_value / rate_xrp_per_unit * spread
            )
        self._offer_sequence += 1
        offer = Offer(
            owner=maker.account,
            sequence=self._offer_sequence,
            taker_pays=taker_pays,
            taker_gets=taker_gets,
        )
        self.state.place_offer(offer)
        self.history.offer_records.append(
            OfferRecord(owner=maker.account, timestamp=timestamp)
        )
        # Cap book depth by cancelling the oldest live offer.
        book = self._books.setdefault(offer.book_key, deque())
        book.append(offer.offer_id())
        while len(book) > BOOK_DEPTH_CAP:
            owner, sequence = book.popleft()
            self.state.cancel_offer(owner, sequence)

    # Payment execution ----------------------------------------------------------------

    def _execute_slot(self, index: int, slot: PaymentSlot) -> None:
        if slot.kind == KIND_XRP:
            self._pay_xrp(index, slot)
        elif slot.kind == KIND_SPIN:
            self._pay_spin(index, slot)
        elif slot.kind == KIND_ZERO:
            self._pay_account_zero(index, slot)
        elif slot.kind == KIND_CCK:
            self._pay_cck(index, slot)
        elif slot.kind == KIND_FIAT:
            self._pay_fiat(index, slot)
        elif slot.kind in (KIND_MTL_SPAM, KIND_LONG_SPAM):
            self._pay_mtl(index, slot)
        else:  # pragma: no cover - schedule only emits known kinds
            raise AssertionError(f"unknown slot kind {slot.kind}")

    def _record(
        self,
        index: int,
        slot: PaymentSlot,
        sender: AccountID,
        receiver: AccountID,
        amount: float,
        result: PaymentResult,
        is_xrp_direct: bool,
    ) -> None:
        if not result.success:
            self.history.failed_payments += 1
        self.history.records.append(
            TransactionRecord(
                index=index,
                timestamp=slot.timestamp,
                sender=sender,
                destination=receiver,
                currency=slot.currency,
                amount=round(amount, 6),
                is_xrp_direct=is_xrp_direct,
                cross_currency=result.is_cross_currency,
                intermediate_hops=result.intermediate_hops,
                parallel_paths=result.parallel_paths,
                intermediaries=tuple(result.intermediaries),
                delivered=result.success,
                kind=slot.kind,
            )
        )

    def _pay_xrp(self, index: int, slot: PaymentSlot) -> None:
        sender = self._pick_user(self._sender_cdf)
        receiver = self._pick_user(self._receiver_cdf, exclude=sender)
        amount = min(self._sample_amount("XRP"), 5e6)
        drops = int(round(amount * DROPS_PER_XRP))
        self._ensure_xrp(sender, drops + 1000)
        result = self.engine.submit(sender, receiver, Amount.from_value(Currency("XRP"), amount))
        self._record(index, slot, sender, receiver, amount, result, is_xrp_direct=True)

    def _pay_spin(self, index: int, slot: PaymentSlot) -> None:
        sender = self._pick_user(self._sender_cdf)
        receiver = self.cast.special["ripple_spin"]
        amount = float(np.clip(self.rng.lognormal(np.log(20.0), 1.0), 0.5, 2e4))
        self._ensure_xrp(sender, int(amount * DROPS_PER_XRP) + 1000)
        result = self.engine.submit(sender, receiver, Amount.from_value(Currency("XRP"), amount))
        self._record(index, slot, sender, receiver, amount, result, is_xrp_direct=True)

    def _pay_account_zero(self, index: int, slot: PaymentSlot) -> None:
        spammer = self._spammers[int(self.rng.integers(0, len(self._spammers)))]
        amount = float(np.round(self.rng.uniform(0.000011, 0.5), 6))
        if self.rng.random() < 0.5:
            sender, receiver = spammer, ACCOUNT_ZERO
            self._ensure_xrp(sender, DROPS_PER_XRP)
        else:
            sender, receiver = ACCOUNT_ZERO, spammer
        result = self.engine.submit(sender, receiver, Amount.from_value(Currency("XRP"), amount))
        self._record(index, slot, sender, receiver, amount, result, is_xrp_direct=True)

    def _pay_cck(self, index: int, slot: PaymentSlot) -> None:
        sender = self._pick_user(self._sender_cdf)
        if self.rng.random() < SAME_HUB_PROBABILITY:
            group = self._user_hub.get(sender, 0)
            receiver = self._pick_user(
                self._hub_group_cdfs[group], exclude=sender
            )
        else:
            receiver = self._pick_user(self._receiver_cdf, exclude=sender)
        amount = self._sample_amount("CCK")
        currency = Currency("CCK")
        result = self.engine.submit(
            sender, receiver, Amount.from_value(currency, amount), allow_offers=False
        )
        self._record(index, slot, sender, receiver, amount, result, is_xrp_direct=False)
        self._log_replay(slot, sender, receiver, amount, "CCK", result)

    def _pay_fiat(self, index: int, slot: PaymentSlot) -> None:
        currency = Currency(slot.currency)
        is_major = slot.currency in MAJOR_FIAT
        cross = is_major and self.rng.random() < CROSS_CURRENCY_PROBABILITY

        sender = self._pick_user(self._sender_cdf)
        receiver = self._pick_user(self._receiver_cdf, exclude=sender)
        amount = min(self._sample_amount(slot.currency), 2e5)

        receiver_gateway = self._ensure_seat(receiver, currency)

        if cross:
            spend_is_xrp = self.rng.random() < XRP_SPEND_PROBABILITY
            if spend_is_xrp:
                spend = Currency("XRP")
                cost_estimate = amount * eur_value(currency) / eur_value(spend)
                self._ensure_xrp(
                    sender, int(cost_estimate * 1.5 * DROPS_PER_XRP) + 1000
                )
            else:
                others = [code for code in MAJOR_FIAT if code != slot.currency]
                spend = Currency(others[int(self.rng.integers(0, len(others)))])
                cost_estimate = amount * eur_value(currency) / eur_value(spend)
                self._fund_spend_side(
                    sender, spend, cost_estimate * 1.15, slot.timestamp
                )
            result = self.engine.submit(
                sender,
                receiver,
                Amount.from_value(currency, amount),
                send_max=Amount.from_value(spend, amount * 10),
            )
            self._record(index, slot, sender, receiver, amount, result, is_xrp_direct=False)
            self._log_replay(slot, sender, receiver, amount, spend.code, result)
            return

        # Single-currency: decide whether sender sits at the same gateway.
        same_probability = (
            SAME_GATEWAY_PROBABILITY_MAJOR if is_major else SAME_GATEWAY_PROBABILITY_TAIL
        )
        issuers = self.cast.gateways_for(currency)
        if self.rng.random() < same_probability or len(issuers) < 2:
            sender_gateway = self._ensure_seat(sender, currency, receiver_gateway)
        else:
            others = [g for g in issuers if g != receiver_gateway]
            sender_gateway = self._ensure_seat(
                sender, currency, int(others[self.rng.integers(0, len(others))])
            )
        self._fund_single_currency(
            sender, currency, sender_gateway, amount, slot.timestamp
        )
        result = self.engine.submit(
            sender, receiver, Amount.from_value(currency, amount), allow_offers=False
        )
        self._record(index, slot, sender, receiver, amount, result, is_xrp_direct=False)
        self._log_replay(slot, sender, receiver, amount, slot.currency, result)

    def _pay_mtl(self, index: int, slot: PaymentSlot) -> None:
        attacker = self.cast.special["mtl_attacker"]
        sink = self.cast.special["mtl_sink"]
        amount = self._sample_amount("MTL")
        currency = Currency("MTL")
        if slot.kind == KIND_LONG_SPAM:
            paths = [([attacker] + self.cast.long_chain + [sink], amount)]
        else:
            share = amount / len(self.cast.mtl_chains)
            paths = [
                ([attacker] + chain + [sink], share)
                for chain in self.cast.mtl_chains
            ]
        result = self.engine.submit(
            attacker,
            sink,
            Amount.from_value(currency, amount),
            forced_paths=paths,
        )
        self._record(index, slot, attacker, sink, amount, result, is_xrp_direct=False)
        self._log_replay(slot, attacker, sink, amount, "MTL", result)


@lru_cache(maxsize=4)
def generate_history(config: EconomyConfig) -> SyntheticHistory:
    """Generate (and memoize) the history for ``config``.

    Benchmarks for different figures share one generated history, the same
    way the paper's analyses all read one ledger download.
    """
    return LedgerHistoryGenerator(config).generate()
