"""Trust lines — the credit edges of the Ripple network.

A trust line is a *directed* declaration: if Alice trusts Bob for 10 USD,
Alice is willing to hold up to 10 USD of Bob's IOUs.  IOU payments travel
along trust lines in the opposite direction of trust (Fig. 1 of the paper):
Bob can *pay* Alice by getting into debt towards her, up to the declared
limit.  Each line tracks the current debt of the trustee towards the
truster.

The full credit capacity for a payment hop from X to Y is therefore the
unused limit of Y's trust towards X *plus* any existing debt of Y towards X
(paying someone back frees capacity); :mod:`repro.payments.graph` combines
the two directed lines per pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.errors import InvalidAmountError, TrustLineError
from repro.ledger.accounts import AccountID
from repro.ledger.amounts import Amount
from repro.ledger.currency import Currency


@dataclass
class TrustLine:
    """A directed credit line: ``truster`` accepts IOUs from ``trustee``.

    ``balance`` is the amount the trustee currently owes the truster; the
    invariant ``0 <= balance`` holds at all times and ``balance <= limit``
    holds for all balances created by payments (limits can be lowered below
    an existing balance, as in Ripple, which freezes new credit but does not
    erase debt).
    """

    truster: AccountID
    trustee: AccountID
    currency: Currency
    limit: Amount
    balance: Amount = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.truster == self.trustee:
            raise TrustLineError("an account cannot trust itself")
        if self.currency.is_xrp:
            raise TrustLineError("XRP moves by balance transfer, not trust lines")
        if self.limit.currency != self.currency:
            raise InvalidAmountError("trust limit currency mismatch")
        if self.limit.is_negative:
            raise TrustLineError("trust limit cannot be negative")
        if self.balance is None:
            self.balance = Amount.zero(self.currency)
        if self.balance.currency != self.currency:
            raise InvalidAmountError("trust balance currency mismatch")
        self._refresh_float_cache()

    def _refresh_float_cache(self) -> None:
        # Path finding reads capacities as floats millions of times per
        # history but a line only mutates on a hop or a TrustSet, so the
        # available credit and the float views are computed here, once per
        # mutation, instead of per query.
        remaining = self.limit - self.balance
        self._available = (
            remaining if remaining.is_positive else Amount.zero(self.currency)
        )
        self._balance_float = self.balance.to_float()
        self._available_float = self._available.to_float()

    @property
    def key(self) -> Tuple[AccountID, AccountID, str]:
        """Dictionary key identifying this line."""
        return (self.truster, self.trustee, self.currency.code)

    def available_credit(self) -> Amount:
        """How much *new* debt the trustee may take on over this line."""
        return self._available

    def extend_debt(self, amount: Amount) -> None:
        """Record ``amount`` of additional debt (trustee pays truster).

        Raises :class:`TrustLineError` if the line lacks capacity.
        """
        if amount.is_negative:
            raise InvalidAmountError("debt extension must be non-negative")
        if amount > self._available:
            raise TrustLineError(
                f"trust line {self.truster.short()}<-{self.trustee.short()} "
                f"{self.currency} lacks capacity for {amount}"
            )
        self.balance = self.balance + amount
        self._refresh_float_cache()

    def settle_debt(self, amount: Amount) -> None:
        """Cancel ``amount`` of existing debt (truster pays trustee back)."""
        if amount.is_negative:
            raise InvalidAmountError("debt settlement must be non-negative")
        if amount > self.balance:
            raise TrustLineError(
                f"cannot settle {amount}: only {self.balance} owed"
            )
        self.balance = self.balance - amount
        self._refresh_float_cache()

    def set_limit(self, limit: Amount) -> None:
        """Change the declared trust limit (a ``TrustSet`` transaction)."""
        if limit.currency != self.currency:
            raise InvalidAmountError("trust limit currency mismatch")
        if limit.is_negative:
            raise TrustLineError("trust limit cannot be negative")
        self.limit = limit
        self._refresh_float_cache()

    def write_off(self) -> Amount:
        """Forcibly cancel the debt and withdraw the limit (forced unwind).

        Unlike :meth:`settle_debt`, nothing is repaid: the truster
        forfeits the IOUs it holds on this line and stops extending
        credit, so the line drops out of every payment path.  Returns
        the written-off balance.
        """
        lost = self.balance
        self.balance = self.balance - self.balance
        self.limit = self.limit - self.limit
        self._refresh_float_cache()
        return lost

    def is_dead(self) -> bool:
        """True when the line carries no limit and no balance (removable)."""
        return self.limit.is_zero and self.balance.is_zero
