"""The payment engine: route, execute, and report Ripple payments.

``PaymentEngine`` is the top of the payments substrate.  Given a sender, a
receiver, and an amount, it:

1. routes the payment — direct XRP transfer, same-currency trust paths
   (possibly split over parallel paths), a same-currency detour through
   order books, or a cross-currency bridge;
2. executes the chosen route atomically against the ledger state;
3. reports the realized path structure (intermediate hops, parallel paths,
   bridge accounts) — the raw material of the paper's Fig. 6, Fig. 7 and
   Table II analyses.

The engine also supports the two experiment knobs the paper's replay needs:
``banned_intermediaries`` (remove Market Makers from the trust fabric) and
``allow_offers`` (remove their exchange offers), plus ``forced_paths`` for
the spam transactions that pinned their routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    InsufficientBalanceError,
    NoPathError,
    OfferError,
    PathDryError,
    PaymentError,
    TrustLineError,
    UnknownAccountError,
)
from repro.ledger.accounts import AccountID
from repro.ledger.amounts import DROPS_PER_XRP, Amount
from repro.ledger.currency import XRP, Currency
from repro.ledger.state import LedgerState
from repro.ledger.transactions import BASE_FEE_DROPS
from repro.payments.bridging import BridgePlan, plan_bridge, plan_same_currency_detour
from repro.obs.metrics import METRICS
from repro.payments.execution import ExecutionOutcome, Executor
from repro.payments.graph import TrustGraph
from repro.payments.pathfinding import (
    DEFAULT_MAX_INTERMEDIATE_HOPS,
    DEFAULT_MAX_PARALLEL_PATHS,
    PathPlan,
    forced_plan,
    plan_payment,
)


class FilteredTrustGraph(TrustGraph):
    """Trust graph with some accounts banned as *intermediaries*.

    Banned accounts may still be payment endpoints; they just cannot relay.
    This is the Table II counterfactual: strip Market Makers out of the
    routing fabric while leaving their own accounts intact.

    When a ``base`` graph is supplied, successor lists are read through it,
    so consecutive filtered views (one per replayed payment) share one
    memoized edge cache instead of each rebuilding it.
    """

    def __init__(
        self,
        state: LedgerState,
        currency: Currency,
        banned: Set[AccountID],
        source: AccountID,
        target: AccountID,
        base: Optional[TrustGraph] = None,
    ):
        super().__init__(state, currency)
        self._banned = banned
        self._source = source
        self._target = target
        self._base = base if base is not None else TrustGraph(state, currency)

    def successor_pairs(self, payer: AccountID):
        # The inherited successors() reads through this filter; reading
        # through the base graph keeps its line cache shared across the
        # consecutive filtered views of a replay.
        if payer in self._banned and payer not in (self._source, self._target):
            return []
        banned = self._banned
        target = self._target
        return [
            (payee, capacity)
            for payee, capacity in self._base.successor_pairs(payer)
            if payee not in banned or payee == target
        ]


@dataclass
class PaymentResult:
    """Outcome of one submitted payment."""

    success: bool
    sender: AccountID
    receiver: AccountID
    amount: Amount
    error: Optional[str] = None
    outcome: ExecutionOutcome = field(default_factory=ExecutionOutcome)
    is_cross_currency: bool = False
    fee_drops: int = 0

    @property
    def intermediate_hops(self) -> int:
        return self.outcome.intermediate_hops

    @property
    def parallel_paths(self) -> int:
        return self.outcome.parallel_paths

    @property
    def intermediaries(self) -> List[AccountID]:
        """Every account that relayed value (excluding the endpoints).

        Each account appears once, in the order it is first met along the
        paths.
        """
        return list(
            dict.fromkeys(node for path in self.outcome.paths for node in path[1:-1])
        )


class PaymentEngine:
    """Routes and executes payments against a :class:`LedgerState`."""

    def __init__(
        self,
        state: LedgerState,
        enforce_fees: bool = True,
        max_intermediate_hops: int = DEFAULT_MAX_INTERMEDIATE_HOPS,
        max_parallel_paths: int = DEFAULT_MAX_PARALLEL_PATHS,
    ):
        self.state = state
        self.enforce_fees = enforce_fees
        self.max_intermediate_hops = max_intermediate_hops
        self.max_parallel_paths = max_parallel_paths
        #: Memoized per-currency graph views; safe to reuse across payments
        #: because TrustGraph revalidates against the ledger's trust
        #: versions on every successors() query.
        self._graph_cache: Dict[str, TrustGraph] = {}

    # Public API -----------------------------------------------------------------

    def submit(
        self,
        sender: AccountID,
        receiver: AccountID,
        amount: Amount,
        send_max: Optional[Amount] = None,
        forced_paths: Optional[Sequence[Tuple[List[AccountID], float]]] = None,
        banned_intermediaries: Optional[Set[AccountID]] = None,
        allow_offers: bool = True,
    ) -> PaymentResult:
        """Route and atomically execute one payment.

        Returns a :class:`PaymentResult`; on failure the ledger state is
        unchanged except for the burned fee (as in Ripple, where failed
        transactions still cost their fee once they claim a ledger slot).
        """
        result = self._submit(
            sender,
            receiver,
            amount,
            send_max,
            forced_paths,
            banned_intermediaries,
            allow_offers,
        )
        if METRICS.enabled:
            METRICS.count("engine.payments")
            if not result.success:
                METRICS.count("engine.failures")
        return result

    def _submit(
        self,
        sender: AccountID,
        receiver: AccountID,
        amount: Amount,
        send_max: Optional[Amount],
        forced_paths: Optional[Sequence[Tuple[List[AccountID], float]]],
        banned_intermediaries: Optional[Set[AccountID]],
        allow_offers: bool,
    ) -> PaymentResult:
        result = PaymentResult(
            success=False, sender=sender, receiver=receiver, amount=amount
        )
        spend_currency = send_max.currency if send_max is not None else amount.currency
        result.is_cross_currency = spend_currency != amount.currency
        try:
            self.state.account(sender)
            self.state.account(receiver)
        except UnknownAccountError as exc:
            result.error = str(exc)
            return result

        result.fee_drops = self._burn_fee(sender)

        executor = Executor(self.state)
        try:
            if forced_paths is not None:
                outcome = self._execute_forced(executor, amount, forced_paths)
            elif amount.currency == XRP and not result.is_cross_currency:
                outcome = self._execute_xrp_direct(executor, sender, receiver, amount)
            elif not result.is_cross_currency:
                outcome = self._execute_same_currency(
                    executor,
                    sender,
                    receiver,
                    amount,
                    banned_intermediaries or set(),
                    allow_offers,
                )
            else:
                outcome = self._execute_cross_currency(
                    executor,
                    sender,
                    receiver,
                    amount,
                    spend_currency,
                    banned_intermediaries or set(),
                    allow_offers,
                )
        except (PaymentError, TrustLineError, InsufficientBalanceError, OfferError) as exc:
            executor.rollback()
            result.error = str(exc)
            return result
        executor.commit()
        result.success = True
        result.outcome = outcome
        return result

    # Routing strategies ------------------------------------------------------------

    def _execute_xrp_direct(
        self,
        executor: Executor,
        sender: AccountID,
        receiver: AccountID,
        amount: Amount,
    ) -> ExecutionOutcome:
        drops = int(round(amount.to_float() * DROPS_PER_XRP))
        executor.xrp(sender, receiver, drops)
        return ExecutionOutcome(
            delivered=amount.to_float(),
            paths=[[sender, receiver]],
            intermediate_hops=0,
            parallel_paths=1,
        )

    def _graph_for(
        self,
        currency: Currency,
        banned: Set[AccountID],
        source: AccountID,
        target: AccountID,
    ) -> TrustGraph:
        base = self._graph_cache.get(currency.code)
        if base is None:
            base = TrustGraph(self.state, currency)
            self._graph_cache[currency.code] = base
        if banned:
            return FilteredTrustGraph(
                self.state, currency, banned, source, target, base=base
            )
        return base

    def _execute_same_currency(
        self,
        executor: Executor,
        sender: AccountID,
        receiver: AccountID,
        amount: Amount,
        banned: Set[AccountID],
        allow_offers: bool,
    ) -> ExecutionOutcome:
        graph = self._graph_for(amount.currency, banned, sender, receiver)
        plan = plan_payment(
            graph,
            sender,
            receiver,
            amount.to_float(),
            self.max_intermediate_hops,
            self.max_parallel_paths,
        )
        if plan.is_complete_for(amount.to_float()):
            executor.apply_plan(plan, amount.currency)
            return ExecutionOutcome(
                delivered=plan.total,
                paths=plan.paths,
                intermediate_hops=plan.max_intermediate_hops,
                parallel_paths=plan.parallel_paths,
            )
        if allow_offers:
            detour = plan_same_currency_detour(
                self.state, amount.currency, amount.to_float()
            )
            if detour is not None and not (
                banned and any(owner in banned for owner in detour.owners)
            ):
                return self._execute_bridge(
                    executor, sender, receiver, amount, amount.currency, detour, banned
                )
        if plan.parallel_paths == 0:
            raise NoPathError(
                f"no {amount.currency} path from {sender.short()} to {receiver.short()}"
            )
        raise PathDryError(
            f"paths carry only {plan.total:g} of {amount.to_float():g} "
            f"{amount.currency}"
        )

    def _execute_cross_currency(
        self,
        executor: Executor,
        sender: AccountID,
        receiver: AccountID,
        amount: Amount,
        spend_currency: Currency,
        banned: Set[AccountID],
        allow_offers: bool,
    ) -> ExecutionOutcome:
        if not allow_offers:
            raise NoPathError(
                "cross-currency payments require exchange offers (none allowed)"
            )
        bridge = plan_bridge(
            self.state, spend_currency, amount.currency, amount.to_float()
        )
        if bridge is None or bridge.is_empty:
            raise NoPathError(
                f"no bridge from {spend_currency} to {amount.currency}"
            )
        if banned and any(owner in banned for owner in bridge.owners):
            raise NoPathError("all bridge offers belong to banned market makers")
        return self._execute_bridge(
            executor, sender, receiver, amount, spend_currency, bridge, banned
        )

    def _execute_bridge(
        self,
        executor: Executor,
        sender: AccountID,
        receiver: AccountID,
        amount: Amount,
        spend_currency: Currency,
        bridge: BridgePlan,
        banned: Set[AccountID],
    ) -> ExecutionOutcome:
        """Run a bridged payment: spend leg, book crossings, delivery leg."""
        first_owner = bridge.steps[0].owner
        last_owner = bridge.steps[-1].owner
        spend_total = bridge.steps[0].pays
        deliver_total = bridge.steps[-1].gets

        spine: List[AccountID] = [sender]
        parallel = 1

        # Leg 1: sender -> first offer owner, in the spend currency.
        if spend_currency == XRP:
            executor.xrp(
                sender, first_owner, int(round(spend_total.to_float() * DROPS_PER_XRP))
            )
            spine.append(first_owner)
        else:
            leg = self._trust_leg(
                executor, sender, first_owner, spend_total, banned
            )
            spine.extend(leg.paths[0][1:])
            parallel = max(parallel, leg.parallel_paths)

        # Book crossings, moving intermediate XRP between owners if needed.
        for step in bridge.steps:
            executor.fill(step.offer, step.gets)
        if len(bridge.steps) == 2:
            middle = bridge.steps[0].gets  # XRP out of the first book
            if bridge.steps[0].owner != bridge.steps[1].owner:
                executor.xrp(
                    bridge.steps[0].owner,
                    bridge.steps[1].owner,
                    int(round(middle.to_float() * DROPS_PER_XRP)),
                )
                spine.append(last_owner)

        # Leg 2: last offer owner -> receiver, in the delivery currency.
        if amount.currency == XRP:
            executor.xrp(
                last_owner, receiver, int(round(deliver_total.to_float() * DROPS_PER_XRP))
            )
            spine.append(receiver)
        else:
            leg = self._trust_leg(
                executor, last_owner, receiver, deliver_total, banned
            )
            spine.extend(leg.paths[0][1:])
            parallel = max(parallel, leg.parallel_paths)

        return ExecutionOutcome(
            delivered=amount.to_float(),
            paths=[spine],
            intermediate_hops=len(spine) - 2,
            parallel_paths=parallel,
            bridge_account=first_owner,
            offers_consumed=len(bridge.steps),
        )

    def _trust_leg(
        self,
        executor: Executor,
        payer: AccountID,
        payee: AccountID,
        amount: Amount,
        banned: Set[AccountID],
    ) -> PathPlan:
        """Complete a same-currency trust segment or raise."""
        if payer == payee:
            plan = PathPlan()
            plan.paths = [[payer]]
            plan.amounts = [amount.to_float()]
            return plan
        graph = self._graph_for(amount.currency, banned, payer, payee)
        plan = plan_payment(
            graph,
            payer,
            payee,
            amount.to_float(),
            self.max_intermediate_hops,
            self.max_parallel_paths,
        )
        if not plan.is_complete_for(amount.to_float()):
            raise PathDryError(
                f"bridge leg {payer.short()} -> {payee.short()} is dry "
                f"({plan.total:g}/{amount.to_float():g} {amount.currency})"
            )
        executor.apply_plan(plan, amount.currency)
        return plan

    def _execute_forced(
        self,
        executor: Executor,
        amount: Amount,
        forced_paths: Sequence[Tuple[List[AccountID], float]],
    ) -> ExecutionOutcome:
        """Execute explicitly pinned paths (spam transactions)."""
        plan = forced_plan(
            [path for path, _ in forced_paths],
            [value for _, value in forced_paths],
        )
        executor.apply_plan(plan, amount.currency)
        return ExecutionOutcome(
            delivered=plan.total,
            paths=plan.paths,
            intermediate_hops=plan.max_intermediate_hops,
            parallel_paths=plan.parallel_paths,
        )

    # Internals --------------------------------------------------------------------

    def _burn_fee(self, sender: AccountID) -> int:
        if not self.enforce_fees:
            return 0
        root = self.state.account(sender)
        if root.balance_drops < BASE_FEE_DROPS:
            # Accounts with no XRP at all cannot even submit; the synthetic
            # economy always funds accounts, so this path only trips in
            # hand-built test states where fee accounting is not the point.
            return 0
        self.state.burn_fee(sender, BASE_FEE_DROPS)
        return BASE_FEE_DROPS
