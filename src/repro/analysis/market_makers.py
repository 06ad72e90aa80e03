"""Market-Maker criticality: offer concentration and the Table II replay.

Two results from the appendix:

* **Offer concentration** — of ~90M offers, the top 10 market makers place
  50 %, the top 50 place 75 %, the top 100 place 87 %: controlling a
  handful of accounts controls most of the system's exchange liquidity.
* **Table II** — starting from a stable snapshot (Feb 2015), replay every
  payment delivered until Aug 2015 on a trust network with market makers
  and their offers removed.  All cross-currency payments fail; ~64 % of
  single-currency payments fail too; only 11.2 % of payments survive.

The replay here is a true counterfactual execution: the snapshot ledger is
copied, post-snapshot trust-line updates are re-applied, deposits are
re-issued, and every payment is re-routed by the real engine with the
maker accounts banned from relaying and the order books disabled.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import AnalysisError, LedgerError, PaymentError
from repro.ledger.accounts import AccountID
from repro.ledger.amounts import Amount
from repro.ledger.currency import Currency
from repro.ledger.state import LedgerState
from repro.payments.engine import PaymentEngine
from repro.synthetic.generator import SyntheticHistory
from repro.synthetic.records import OfferRecord, ReplayIntent


@dataclass(frozen=True)
class OfferConcentration:
    """Share of all offers placed by the top-k market makers."""

    total_offers: int
    shares: Dict[int, float]

    def share_of_top(self, k: int) -> float:
        return self.shares.get(k, 0.0)


def offer_concentration(
    offer_records: Sequence[OfferRecord], top_ks: Iterable[int] = (10, 50, 100)
) -> OfferConcentration:
    """Compute the top-k offer-placement shares (the 50/75/87 % finding)."""
    if not offer_records:
        raise AnalysisError("no offers recorded")
    counts: Dict[AccountID, int] = {}
    for record in offer_records:
        counts[record.owner] = counts.get(record.owner, 0) + 1
    ranked = sorted(counts.values(), reverse=True)
    total = sum(ranked)
    shares = {
        k: sum(ranked[:k]) / total for k in top_ks
    }
    return OfferConcentration(total_offers=total, shares=shares)


@dataclass
class ReplayRow:
    """One row of Table II."""

    category: str
    submitted: int = 0
    delivered: int = 0

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.submitted if self.submitted else 0.0


@dataclass
class ReplayResult:
    """Table II: delivery with market makers removed."""

    cross_currency: ReplayRow = field(
        default_factory=lambda: ReplayRow("Cross-currency")
    )
    single_currency: ReplayRow = field(
        default_factory=lambda: ReplayRow("Single-currency")
    )

    @property
    def total(self) -> ReplayRow:
        row = ReplayRow("Total")
        row.submitted = self.cross_currency.submitted + self.single_currency.submitted
        row.delivered = self.cross_currency.delivered + self.single_currency.delivered
        return row

    def rows(self) -> List[ReplayRow]:
        return [self.cross_currency, self.single_currency, self.total]


def replay_outcomes(
    history: SyntheticHistory,
    remove_market_makers: bool = True,
    banned: Optional[Set[AccountID]] = None,
    remove_offers_of: Optional[Set[AccountID]] = None,
) -> List[Tuple[bool, bool]]:
    """Run the Table II counterfactual; one ``(is_cross_currency,
    delivered)`` outcome per replayed payment, in replay order.

    The replay is inherently sequential — every delivered payment
    consumes liquidity the next payments see — so it runs in one
    process; :func:`tally_outcomes` counts the outcomes into Table II.

    With ``remove_market_makers=False`` the same replay runs on the intact
    network — the control measuring replay fidelity rather than the attack.

    The cascade scenarios (:mod:`repro.chaos.cascade`) generalize the
    counterfactual: an explicit ``banned`` set removes *those* accounts
    from the relay fabric instead of the all-makers set, and
    ``remove_offers_of`` cancels the victims' order-book offers while
    leaving everyone else's standing.  Removing every maker's offers is
    equivalent to disabling the books outright (only makers place offers
    into ledger state), so the all-makers cascade wave reproduces Table II
    exactly.
    """
    return replay_with_state(
        history,
        remove_market_makers=remove_market_makers,
        banned=banned,
        remove_offers_of=remove_offers_of,
    )[0]


def replay_with_state(
    history: SyntheticHistory,
    remove_market_makers: bool = True,
    banned: Optional[Set[AccountID]] = None,
    remove_offers_of: Optional[Set[AccountID]] = None,
) -> Tuple[List[Tuple[bool, bool]], LedgerState]:
    """:func:`replay_outcomes` plus the post-replay ledger state.

    The cascade scenarios measure credit-network *health* after each
    outage wave, which needs the ledger the replay left behind, not just
    the delivery tallies.
    """
    if history.snapshot_state is None:
        raise AnalysisError(
            "history has no snapshot; generate with a snapshot inside the window"
        )
    state = copy.deepcopy(history.snapshot_state)
    allow_offers = not remove_market_makers
    if banned is None:
        banned = (
            set(history.cast.market_maker_accounts())
            if remove_market_makers
            else set()
        )
    else:
        banned = set(banned)
        allow_offers = True
        for owner in sorted(
            remove_offers_of if remove_offers_of is not None else banned,
            key=lambda account: account.address,
        ):
            state.remove_all_offers_of(owner)
    engine = PaymentEngine(state)

    # Re-apply post-snapshot trust-line updates, as the paper did.
    for event in history.trust_events:
        state.set_trust(
            event.truster,
            event.trustee,
            Amount.from_value(Currency(event.currency), event.limit),
        )

    outcomes: List[Tuple[bool, bool]] = []
    for intent in sorted(history.replay_intents, key=lambda i: i.timestamp):
        if intent.kind == "deposit":
            # Issuance from a gateway to its customer: a one-hop payment on
            # an existing line, unaffected by maker removal.
            try:
                state.apply_hop(
                    intent.sender,
                    intent.receiver,
                    Amount.from_value(Currency(intent.currency), intent.amount),
                )
            except (LedgerError, PaymentError):
                pass  # dropped deposits only make later payments harder
            continue
        send_max = None
        if intent.is_cross_currency:
            send_max = Amount.from_value(
                Currency(intent.spend_currency), intent.amount * 10
            )
        outcome = engine.submit(
            intent.sender,
            intent.receiver,
            Amount.from_value(Currency(intent.currency), intent.amount),
            send_max=send_max,
            banned_intermediaries=banned,
            allow_offers=allow_offers,
        )
        outcomes.append((intent.is_cross_currency, outcome.success))
    return outcomes, state


def tally_outcomes(outcomes: Sequence[Tuple[bool, bool]]) -> ReplayResult:
    """Count replay outcomes into Table II rows."""
    result = ReplayResult()
    for is_cross_currency, delivered in outcomes:
        row = (
            result.cross_currency if is_cross_currency else result.single_currency
        )
        row.submitted += 1
        if delivered:
            row.delivered += 1
    return result


def replay_without_market_makers(
    history: SyntheticHistory,
    remove_market_makers: bool = True,
) -> ReplayResult:
    """Run the Table II counterfactual over a generated history."""
    return tally_outcomes(replay_outcomes(history, remove_market_makers))


def table2(history: SyntheticHistory) -> ReplayResult:
    """The Table II experiment with makers and offers removed."""
    return replay_without_market_makers(history, remove_market_makers=True)
