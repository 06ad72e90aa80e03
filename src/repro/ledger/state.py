"""Mutable ledger state: accounts, XRP balances, trust lines, and offers.

``LedgerState`` is the authoritative in-memory image of "the current
ledger": the thing transactions mutate and consensus seals page by page.
It provides the low-level primitives (XRP transfers, trust-line updates,
offer placement, fee burning); multi-hop payment semantics live in
:mod:`repro.payments`, which drives these primitives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import (
    InsufficientBalanceError,
    LedgerError,
    TrustLineError,
    UnknownAccountError,
)
from repro.ledger.accounts import AccountID
from repro.ledger.amounts import Amount
from repro.ledger.currency import Currency
from repro.ledger.offers import Offer
from repro.ledger.trustlines import TrustLine
from repro.obs.metrics import METRICS

#: Minimum XRP reserve (drops) an account must keep — Ripple's base reserve.
BASE_RESERVE_DROPS = 20 * 10 ** 6


@dataclass
class AccountRoot:
    """Per-account ledger entry: XRP balance (drops) and sequence number.

    ``allows_rippling`` models Ripple's (No)Ripple flag at account
    granularity: when False, payments may start or end at the account but
    cannot *ripple through* it — the default posture of regular users,
    which confines relaying to gateways, hubs, and market makers.
    """

    account: AccountID
    balance_drops: int = 0
    sequence: int = 1
    is_gateway: bool = False
    is_market_maker: bool = False
    allows_rippling: bool = True


TrustKey = Tuple[AccountID, AccountID, str]
OfferKey = Tuple[AccountID, int]
BookKey = Tuple[str, str]


@dataclass
class CurrencyLineIndex:
    """Per-currency adjacency: the trust lines incident to each account.

    ``ins[x]`` are the lines where others trust ``x`` (candidate new-debt
    payment edges out of ``x``); ``outs[x]`` are the lines where ``x``
    extends credit (candidate settle edges out of ``x``).  Both preserve
    line-creation order, which keeps the path finder's edge-expansion order
    — and therefore every routed payment — identical to a full scan.
    """

    ins: Dict[AccountID, List[TrustLine]] = field(default_factory=dict)
    outs: Dict[AccountID, List[TrustLine]] = field(default_factory=dict)

    def add(self, line: TrustLine) -> None:
        self.ins.setdefault(line.trustee, []).append(line)
        self.outs.setdefault(line.truster, []).append(line)


@dataclass
class LedgerState:
    """The full mutable state of the ledger at some point in history."""

    accounts: Dict[AccountID, AccountRoot] = field(default_factory=dict)
    trustlines: Dict[TrustKey, TrustLine] = field(default_factory=dict)
    offers: Dict[OfferKey, Offer] = field(default_factory=dict)
    _books: Dict[BookKey, List[Offer]] = field(default_factory=dict, repr=False)
    #: Trust lines indexed by truster and by trustee, for path finding.
    _lines_by_truster: Dict[AccountID, List[TrustLine]] = field(
        default_factory=dict, repr=False
    )
    _lines_by_trustee: Dict[AccountID, List[TrustLine]] = field(
        default_factory=dict, repr=False
    )
    #: Lazily built per-currency adjacency indexes, maintained by every
    #: trust mutation after construction (see :meth:`currency_lines`).
    _currency_lines: Dict[str, CurrencyLineIndex] = field(
        default_factory=dict, repr=False
    )
    burned_fee_drops: int = 0
    enforce_reserve: bool = False

    def __deepcopy__(self, memo: Dict[int, object]) -> "LedgerState":
        """Structural snapshot: fresh ledger entries, shared immutable leaves.

        Only :class:`AccountRoot`, :class:`TrustLine` and :class:`Offer`
        objects mutate in place, so only they (and the containers holding
        them) are copied.  ``Amount``, ``AccountID`` and ``Currency`` are
        frozen and every mutation replaces them rather than editing them,
        so original and copy can share them safely.  Aliasing is kept:
        each book entry is the same object as its ``offers`` entry, and
        every index list holds the copy's own ``trustlines`` objects in
        the original order.
        """
        with METRICS.timer("ledger.snapshot"):
            new = object.__new__(type(self))
            memo[id(self)] = new
            new.__dict__.update(self.__dict__)
            twins: Dict[int, object] = {}

            def fresh(table: Dict) -> Dict:
                # Entries were validated when built, so the copy skips
                # __init__/__post_init__; a trust line's cached available
                # credit and float views travel in its __dict__ with the rest.
                copied = {}
                for key, entry in table.items():
                    twin = object.__new__(type(entry))
                    twin.__dict__ = entry.__dict__.copy()
                    copied[key] = twins[id(entry)] = twin
                return copied

            def relink(index: Dict) -> Dict:
                return {
                    key: [twins[id(entry)] for entry in entries]
                    for key, entries in index.items()
                }

            new.accounts = fresh(self.accounts)
            new.trustlines = fresh(self.trustlines)
            new.offers = fresh(self.offers)
            new._books = relink(self._books)
            new._lines_by_truster = relink(self._lines_by_truster)
            new._lines_by_trustee = relink(self._lines_by_trustee)
            new._currency_lines = {
                code: CurrencyLineIndex(relink(index.ins), relink(index.outs))
                for code, index in self._currency_lines.items()
            }
            return new

    # Accounts ----------------------------------------------------------------

    def create_account(self, account: AccountID, balance_drops: int = 0) -> AccountRoot:
        """Create ``account`` with an initial XRP balance.

        Creating an account in Ripple is done by sending it its first XRP
        payment ("activation", as the paper describes for ``~akhavr``'s
        hubs); callers model that by passing the activation amount here.
        """
        if account in self.accounts:
            raise LedgerError(f"account {account.short()} already exists")
        if balance_drops < 0:
            raise InsufficientBalanceError("initial balance cannot be negative")
        root = AccountRoot(account=account, balance_drops=balance_drops)
        self.accounts[account] = root
        return root

    def account(self, account: AccountID) -> AccountRoot:
        try:
            return self.accounts[account]
        except KeyError:
            raise UnknownAccountError(f"unknown account {account.short()}") from None

    def has_account(self, account: AccountID) -> bool:
        return account in self.accounts

    def xrp_balance(self, account: AccountID) -> int:
        return self.account(account).balance_drops

    def _spendable_drops(self, root: AccountRoot) -> int:
        reserve = BASE_RESERVE_DROPS if self.enforce_reserve else 0
        return root.balance_drops - reserve

    def transfer_xrp(self, sender: AccountID, receiver: AccountID, drops: int) -> None:
        """Move ``drops`` of XRP between existing accounts."""
        if drops < 0:
            raise InsufficientBalanceError("cannot transfer a negative amount")
        src = self.account(sender)
        dst = self.account(receiver)
        if self._spendable_drops(src) < drops:
            raise InsufficientBalanceError(
                f"{sender.short()} holds {src.balance_drops} drops, needs {drops}"
            )
        src.balance_drops -= drops
        dst.balance_drops += drops

    def burn_fee(self, account: AccountID, fee_drops: int) -> None:
        """Destroy ``fee_drops`` from ``account`` — fees leave the economy."""
        root = self.account(account)
        if root.balance_drops < fee_drops:
            raise InsufficientBalanceError(
                f"{account.short()} cannot pay fee of {fee_drops} drops"
            )
        root.balance_drops -= fee_drops
        self.burned_fee_drops += fee_drops

    def next_sequence(self, account: AccountID) -> int:
        """Consume and return the account's next transaction sequence."""
        root = self.account(account)
        seq = root.sequence
        root.sequence += 1
        return seq

    # Trust lines ---------------------------------------------------------------

    def currency_lines(self, code: str) -> CurrencyLineIndex:
        """The per-currency adjacency index (built lazily, then live).

        The first query for a currency scans ``trustlines`` once; from then
        on :meth:`set_trust` keeps the index current, so graph views never
        filter the all-currencies line lists again.
        """
        index = self._currency_lines.get(code)
        if index is None:
            index = CurrencyLineIndex()
            for line in self.trustlines.values():
                if line.currency.code == code:
                    index.add(line)
            self._currency_lines[code] = index
        return index

    def set_trust(self, truster: AccountID, trustee: AccountID, limit: Amount) -> TrustLine:
        """Create or update the trust line ``truster -> trustee``."""
        self.account(truster)
        self.account(trustee)
        code = limit.currency.code
        key: TrustKey = (truster, trustee, code)
        line = self.trustlines.get(key)
        if line is None:
            line = TrustLine(truster=truster, trustee=trustee, currency=limit.currency, limit=limit)
            self._insert_line(key, line)
        else:
            line.set_limit(limit)
        return line

    def open_line(
        self, truster: AccountID, trustee: AccountID, limit: Amount, balance: Amount
    ) -> TrustLine:
        """Open a new line ``truster -> trustee`` that already carries ``balance``.

        The result equals :meth:`set_trust` followed by
        ``apply_hop(trustee, truster, balance)`` (a deposit), in one step.
        That hop would settle debt on a line in the other direction before
        extending this one, so a positive ``balance`` is refused when such a
        line exists; so are an existing line and a balance outside
        ``[0, limit]``.  ``limit`` and ``balance`` may be shared with other
        lines: amounts are frozen.
        """
        self.account(truster)
        self.account(trustee)
        code = limit.currency.code
        key: TrustKey = (truster, trustee, code)
        if key in self.trustlines:
            raise LedgerError(
                f"trust line {truster.short()}->{trustee.short()} {code} already exists"
            )
        if balance.is_negative:
            raise TrustLineError(f"opening balance {balance} is negative")
        if balance.is_positive:
            if balance > limit:
                raise TrustLineError(f"opening balance {balance} exceeds {limit}")
            if (trustee, truster, code) in self.trustlines:
                raise TrustLineError(
                    f"{trustee.short()} already trusts {truster.short()} in {code}: "
                    "a deposit hop would settle that line first"
                )
        line = TrustLine(
            truster=truster,
            trustee=trustee,
            currency=limit.currency,
            limit=limit,
            balance=balance,
        )
        self._insert_line(key, line)
        return line

    def _insert_line(self, key: TrustKey, line: TrustLine) -> None:
        self.trustlines[key] = line
        self._lines_by_truster.setdefault(line.truster, []).append(line)
        self._lines_by_trustee.setdefault(line.trustee, []).append(line)
        index = self._currency_lines.get(key[2])
        if index is not None:
            index.add(line)

    def trust_line(
        self, truster: AccountID, trustee: AccountID, currency: Currency
    ) -> Optional[TrustLine]:
        return self.trustlines.get((truster, trustee, currency.code))

    def lines_trusted_by(self, truster: AccountID) -> List[TrustLine]:
        """All lines where ``truster`` extends credit."""
        return self._lines_by_truster.get(truster, [])

    def lines_trusting(self, trustee: AccountID) -> List[TrustLine]:
        """All lines where others extend credit to ``trustee``."""
        return self._lines_by_trustee.get(trustee, [])

    def close_trust_line(
        self, truster: AccountID, trustee: AccountID, currency: Currency
    ) -> float:
        """Write off and close the line ``truster -> trustee`` (forced unwind).

        The trustee's debt is erased — not repaid — and the credit limit
        withdrawn, so the line stops carrying payments; the truster eats
        the loss.  This is the ledger primitive behind the ADL-style
        unwind cascade.  Returns the face value written off in the line's
        own currency; closing a missing line is a no-op returning 0.0.
        """
        line = self.trustlines.get((truster, trustee, currency.code))
        if line is None:
            return 0.0
        lost = line.write_off()
        return lost.to_float()

    def iou_balance(self, holder: AccountID, currency: Currency) -> Amount:
        """Net IOU position of ``holder`` in ``currency``: credit − debt."""
        total = Amount.zero(currency)
        for line in self.lines_trusted_by(holder):
            if line.currency == currency:
                total = total + line.balance
        for line in self.lines_trusting(holder):
            if line.currency == currency:
                total = total - line.balance
        return total

    # Payment hops over trust lines ----------------------------------------------

    def hop_capacity(self, payer: AccountID, payee: AccountID, currency: Currency) -> float:
        """Liquidity available for a one-hop IOU payment ``payer -> payee``.

        Capacity = unused limit of payee's trust towards payer (new debt)
        plus the payer's existing credit towards the payee (debt settling).
        """
        capacity = 0.0
        code = currency.code
        trustlines = self.trustlines
        forward = trustlines.get((payee, payer, code))
        if forward is not None:
            capacity += forward._available_float
        backward = trustlines.get((payer, payee, code))
        if backward is not None:
            capacity += backward._balance_float
        return capacity

    def apply_hop(self, payer: AccountID, payee: AccountID, amount: Amount) -> None:
        """Move ``amount`` of IOU value one hop from payer to payee.

        Settles existing debt of the payee towards the payer first, then
        extends new debt of the payer towards the payee; raises
        :class:`TrustLineError` if the combined capacity is insufficient.
        """
        code = amount.currency.code
        trustlines = self.trustlines
        remaining = amount
        backward = trustlines.get((payer, payee, code))
        if backward is not None and backward.balance.is_positive:
            settled = amount.min(backward.balance)
            backward.settle_debt(settled)
            if settled is amount:
                return
            remaining = amount - settled
        if remaining.is_zero:
            return
        forward = trustlines.get((payee, payer, code))
        if forward is None:
            raise TrustLineError(
                f"no trust from {payee.short()} to {payer.short()} in {amount.currency}"
            )
        forward.extend_debt(remaining)

    # Offers ----------------------------------------------------------------------

    def place_offer(self, offer: Offer) -> None:
        """Record an offer and index it into its order book."""
        self.account(offer.owner)
        key = offer.offer_id()
        if key in self.offers:
            raise LedgerError(f"duplicate offer {key}")
        self.offers[key] = offer
        self._books.setdefault(offer.book_key, []).append(offer)

    def cancel_offer(self, owner: AccountID, sequence: int) -> bool:
        """Remove an offer; returns False if it was not found."""
        offer = self.offers.pop((owner, sequence), None)
        if offer is None:
            return False
        book = self._books.get(offer.book_key)
        if book is not None and offer in book:
            book.remove(offer)
        return True

    def book_offers(self, pays: Currency, gets: Currency) -> List[Offer]:
        """Live offers on the (pays, gets) book, best quality first."""
        book = self._books.get((pays.code, gets.code), [])
        live = [offer for offer in book if not offer.is_consumed]
        if len(live) != len(book):
            self._books[(pays.code, gets.code)] = live
            for offer in book:
                if offer.is_consumed:
                    self.offers.pop(offer.offer_id(), None)
        live.sort(key=lambda o: o.quality)
        return live

    def offers_by_owner(self, owner: AccountID) -> List[Offer]:
        return [offer for offer in self.offers.values() if offer.owner == owner]

    def remove_all_offers_of(self, owner: AccountID) -> int:
        """Cancel every live offer of ``owner`` (market-maker removal).

        One pass over ``offers``, then each touched book drops exactly
        those offer objects; what remains keeps its order.
        """
        raw = owner.raw
        doomed = [key for key, offer in self.offers.items() if offer.owner.raw == raw]
        gone: Dict[BookKey, Set[int]] = {}
        for key in doomed:
            offer = self.offers.pop(key)
            gone.setdefault(offer.book_key, set()).add(id(offer))
        for book_key, ids in gone.items():
            book = self._books.get(book_key)
            if book is not None:
                book[:] = [offer for offer in book if id(offer) not in ids]
        return len(doomed)

    # Iteration ----------------------------------------------------------------

    def iter_trustlines(self) -> Iterator[TrustLine]:
        return iter(self.trustlines.values())

    def total_xrp_drops(self) -> int:
        return sum(root.balance_drops for root in self.accounts.values())
