"""Atomic application of payment plans to ledger state.

A multi-hop, multi-path, possibly cross-currency payment touches many trust
lines, XRP balances, and offers.  Ripple applies a payment atomically: it
either fully delivers or leaves no trace.  ``Executor`` reproduces that by
journaling every primitive mutation and rolling the journal back when any
later step fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import PaymentError
from repro.ledger.accounts import AccountID
from repro.ledger.amounts import Amount
from repro.ledger.currency import Currency
from repro.ledger.offers import Offer
from repro.ledger.state import LedgerState
from repro.payments.pathfinding import PathPlan


@dataclass
class _HopOp:
    payer: AccountID
    payee: AccountID
    amount: Amount


@dataclass
class _XrpOp:
    sender: AccountID
    receiver: AccountID
    drops: int


@dataclass
class _FillOp:
    offer: Offer
    pays: Amount
    gets: Amount


class Executor:
    """Journaled mutator: apply primitives, commit or roll back."""

    def __init__(self, state: LedgerState):
        self.state = state
        self._journal: List[object] = []

    # Primitives ----------------------------------------------------------------

    def hop(self, payer: AccountID, payee: AccountID, amount: Amount) -> None:
        self.state.apply_hop(payer, payee, amount)
        self._journal.append(_HopOp(payer, payee, amount))

    def xrp(self, sender: AccountID, receiver: AccountID, drops: int) -> None:
        self.state.transfer_xrp(sender, receiver, drops)
        self._journal.append(_XrpOp(sender, receiver, drops))

    def fill(self, offer: Offer, gets: Amount) -> Amount:
        pays = offer.fill(gets)
        self._journal.append(_FillOp(offer, pays, gets))
        return pays

    # Composites -----------------------------------------------------------------

    def apply_plan(self, plan: PathPlan, currency: Currency) -> None:
        """Push every planned path's amount hop by hop."""
        for path, value in zip(plan.paths, plan.amounts):
            amount = Amount.from_value(currency, value)
            for i in range(len(path) - 1):
                self.hop(path[i], path[i + 1], amount)

    # Transaction control -----------------------------------------------------------

    def rollback(self) -> None:
        """Undo every journaled mutation, newest first."""
        while self._journal:
            op = self._journal.pop()
            if isinstance(op, _HopOp):
                # The reverse hop exactly undoes the net credit movement:
                # capacity for it was freed by the forward hop.
                self.state.apply_hop(op.payee, op.payer, op.amount)
            elif isinstance(op, _XrpOp):
                self.state.transfer_xrp(op.receiver, op.sender, op.drops)
            elif isinstance(op, _FillOp):
                op.offer.taker_pays = op.offer.taker_pays + op.pays
                op.offer.taker_gets = op.offer.taker_gets + op.gets
                # The lazy book pruning may have dropped a fully consumed
                # offer; restore it if so.
                if op.offer.offer_id() not in self.state.offers:
                    self.state.place_offer(op.offer)
            else:  # pragma: no cover - defensive
                raise PaymentError(f"unknown journal entry {op!r}")

    def commit(self) -> None:
        """Accept all journaled mutations (drops undo information)."""
        self._journal.clear()

    @property
    def pending_ops(self) -> int:
        return len(self._journal)


@dataclass
class ExecutionOutcome:
    """What a payment execution did, for analytics and ledger metadata."""

    delivered: float = 0.0
    paths: List[List[AccountID]] = field(default_factory=list)
    intermediate_hops: int = 0
    parallel_paths: int = 0
    bridge_account: Optional[AccountID] = None
    offers_consumed: int = 0
