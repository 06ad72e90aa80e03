"""Credit-network health: liquidity, concentration, utilization, settlability.

Table II measures one binary counterfactual — *can payments still deliver
without market makers?* — but the interesting quantity is continuous: how
healthy is the credit network, and how fast does that health degrade as
intermediaries fail?  This module defines the four health dimensions the
cascade scenarios (:mod:`repro.chaos.cascade`) track round by round:

* **wallet liquidity** — the EUR-aggregated net balance distribution over
  user wallets (the Fig. 7(c) profile, summarized);
* **issuer concentration** — the share of all outstanding IOU value issued
  by the top-k debtors, the credit-fabric analogue of the 50/75/87 %
  offer-concentration finding;
* **trust-limit utilization** — how close the credit lines run to their
  declared limits (over-utilized lines are the ADL-style unwind's fuel);
* **settlability** — the fraction of sampled account pairs that can still
  settle a target amount through the live trust graph.

The settlability probe is *monotone under intermediary removal*: a pair
counts as settlable iff the exact max flow between the endpoints
(:func:`repro.payments.liquidity.max_flow`: reverse residual arcs, no hop
bound) reaches the target amount.  Ripple's bounded greedy planner
(:func:`plan_payment`) is tried first as a certificate — a complete plan
is a feasible flow — and only a greedy miss runs the max flow.  Banning
more relayers can only remove arcs, so it never *increases* the settlable
fraction (the property the hypothesis suite enforces).  All the pairs of
one probe in one currency share one
:class:`~repro.payments.liquidity.CreditNetwork`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.ledger.accounts import AccountID
from repro.ledger.currency import Currency, eur_value
from repro.ledger.state import LedgerState
from repro.obs.metrics import METRICS
from repro.payments.liquidity import CreditNetwork, max_flow
from repro.payments.pathfinding import plan_payment

#: Utilization at or above this fraction marks a trust line over-extended.
OVERUTILIZED_THRESHOLD = 0.9

#: Default settlability-probe parameters (overridable per request).
DEFAULT_PAIR_SAMPLE = 200
DEFAULT_TARGET_AMOUNT = 10.0


@dataclass(frozen=True)
class LiquidityDistribution:
    """Summary of the EUR net-balance distribution over user wallets."""

    wallets: int
    total_eur: float
    mean_eur: float
    median_eur: float
    p90_eur: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "wallets": self.wallets,
            "total_eur": self.total_eur,
            "mean_eur": self.mean_eur,
            "median_eur": self.median_eur,
            "p90_eur": self.p90_eur,
        }


@dataclass(frozen=True)
class IssuerConcentration:
    """Share of all outstanding IOU value issued by the top-k debtors."""

    issuers: int
    outstanding_eur: float
    shares: Dict[int, float]

    def share_of_top(self, k: int) -> float:
        return self.shares.get(k, 0.0)

    def as_dict(self) -> Dict[str, float]:
        payload: Dict[str, float] = {
            "issuers": self.issuers,
            "outstanding_eur": self.outstanding_eur,
        }
        for k, share in sorted(self.shares.items()):
            payload[f"top{k}_share"] = share
        return payload


@dataclass(frozen=True)
class UtilizationProfile:
    """How close the credit lines run to their declared limits."""

    lines: int
    mean: float
    p90: float
    overextended: int
    threshold: float

    @property
    def overextended_fraction(self) -> float:
        return self.overextended / self.lines if self.lines else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "lines": self.lines,
            "mean": self.mean,
            "p90": self.p90,
            "overextended": self.overextended,
            "threshold": self.threshold,
        }


@dataclass(frozen=True)
class SettlabilityProbe:
    """Fraction of sampled pairs that can settle the target amount."""

    pairs: int
    settlable: int
    amount: float

    @property
    def fraction(self) -> float:
        return self.settlable / self.pairs if self.pairs else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "pairs": self.pairs,
            "settlable": self.settlable,
            "amount": self.amount,
            "fraction": self.fraction,
        }


@dataclass(frozen=True)
class HealthReport:
    """One health snapshot of the credit network."""

    liquidity: LiquidityDistribution
    issuers: IssuerConcentration
    utilization: UtilizationProfile
    settlability: SettlabilityProbe

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        return {
            "liquidity": self.liquidity.as_dict(),
            "issuers": self.issuers.as_dict(),
            "utilization": self.utilization.as_dict(),
            "settlability": self.settlability.as_dict(),
        }


# Health dimensions -----------------------------------------------------------


def _wallet_balance_eur(state: LedgerState, account: AccountID) -> float:
    """Net credit − debt across currencies plus XRP, EUR-aggregated."""
    total = state.xrp_balance(account) / 10 ** 6 * eur_value(Currency("XRP"))
    for line in state.lines_trusted_by(account):
        total += line.balance.to_float() * eur_value(line.currency)
    for line in state.lines_trusting(account):
        total -= line.balance.to_float() * eur_value(line.currency)
    return float(total)


def liquidity_distribution(
    state: LedgerState, wallets: Sequence[AccountID]
) -> LiquidityDistribution:
    """Summarize the EUR net balances of ``wallets`` (usually the users)."""
    if not wallets:
        return LiquidityDistribution(0, 0.0, 0.0, 0.0, 0.0)
    balances = np.array(
        [_wallet_balance_eur(state, account) for account in wallets]
    )
    return LiquidityDistribution(
        wallets=len(wallets),
        total_eur=float(balances.sum()),
        mean_eur=float(balances.mean()),
        median_eur=float(np.median(balances)),
        p90_eur=float(np.percentile(balances, 90)),
    )


def issuer_concentration(
    state: LedgerState, top_ks: Iterable[int] = (1, 5, 10)
) -> IssuerConcentration:
    """Outstanding-IOU shares of the top-k issuers (debtors).

    A trust line's balance is debt of the trustee towards the truster, so
    the trustee is the issuer of that IOU value.  Gateways dominate by
    construction; the shares quantify *how much*.
    """
    outstanding: Dict[AccountID, float] = {}
    for line in state.iter_trustlines():
        value = line.balance.to_float() * eur_value(line.currency)
        if value > 0.0:
            outstanding[line.trustee] = outstanding.get(line.trustee, 0.0) + value
    ranked = sorted(outstanding.values(), reverse=True)
    total = sum(ranked)
    shares = {
        k: (sum(ranked[:k]) / total if total else 0.0) for k in top_ks
    }
    return IssuerConcentration(
        issuers=len(ranked), outstanding_eur=float(total), shares=shares
    )


def utilization_profile(
    state: LedgerState, threshold: float = OVERUTILIZED_THRESHOLD
) -> UtilizationProfile:
    """Balance/limit utilization over every line with a positive limit."""
    utilizations: List[float] = []
    for line in state.iter_trustlines():
        limit = line.limit.to_float()
        if limit <= 0.0:
            continue
        utilizations.append(min(1.0, line.balance.to_float() / limit))
    if not utilizations:
        return UtilizationProfile(0, 0.0, 0.0, 0, threshold)
    values = np.array(utilizations)
    return UtilizationProfile(
        lines=len(utilizations),
        mean=float(values.mean()),
        p90=float(np.percentile(values, 90)),
        overextended=int((values >= threshold).sum()),
        threshold=threshold,
    )


# Settlability ----------------------------------------------------------------


def _settles(
    network: CreditNetwork,
    source: AccountID,
    target: AccountID,
    amount: float,
) -> bool:
    """Greedy certificate first, the exact max flow on a miss."""
    plan = plan_payment(network.view(source, target), source, target, amount)
    if plan.is_complete_for(amount):
        return True
    if METRICS.enabled:
        METRICS.count("health.maxflow_fallbacks")
    return max_flow(network, source, target, limit=amount) >= amount * (
        1.0 - 1e-6
    )


def pair_settles(
    state: LedgerState,
    source: AccountID,
    target: AccountID,
    currency: Currency,
    amount: float,
    banned: Optional[Set[AccountID]] = None,
) -> bool:
    """Can ``source`` deliver ``amount`` of ``currency`` to ``target``?

    Greedy fast path first: a complete Ripple plan is a feasible flow, so
    it certifies settlability.  A greedy miss is *not* a certificate of
    failure (the planner has no residual back-edges and bounds hops), so
    it falls back to the exact max flow — making the answer equivalent to
    ``max_flow >= amount`` and therefore monotone under relayer removal.
    """
    return _settles(CreditNetwork(state, currency, banned), source, target, amount)


def sample_pairs(
    state: LedgerState,
    wallets: Sequence[AccountID],
    pairs: int,
    seed: int,
) -> List[Tuple[AccountID, AccountID, Currency]]:
    """Deterministic (sender, receiver, currency) probe triples.

    The currency is the receiver's deepest incoming credit line (largest
    EUR-valued limit among the lines the receiver *extends*, because a
    receiver holds value as IOUs of issuers it trusts); ties break on the
    currency code so the sample is stable across runs and processes.
    """
    triples: List[Tuple[AccountID, AccountID, Currency]] = []
    if len(wallets) < 2:
        return triples
    rng = np.random.default_rng(seed)
    attempts = 0
    while len(triples) < pairs and attempts < pairs * 10:
        attempts += 1
        i, j = rng.integers(0, len(wallets), size=2)
        if i == j:
            continue
        source, target = wallets[int(i)], wallets[int(j)]
        best: Optional[Tuple[float, str]] = None
        for line in state.lines_trusted_by(target):
            depth = line.limit.to_float() * eur_value(line.currency)
            key = (depth, line.currency.code)
            # Highest depth wins; on equal depth the *smaller* code wins.
            if best is None or depth > best[0] or (
                depth == best[0] and line.currency.code < best[1]
            ):
                best = key
        if best is None:
            continue
        triples.append((source, target, Currency(best[1])))
    return triples


def settlability_probe(
    state: LedgerState,
    wallets: Sequence[AccountID],
    pairs: int = DEFAULT_PAIR_SAMPLE,
    amount: float = DEFAULT_TARGET_AMOUNT,
    seed: int = 0,
    banned: Optional[Set[AccountID]] = None,
) -> SettlabilityProbe:
    """Sample pairs and count the ones that can settle ``amount``."""
    outcomes = settlability_outcomes(
        state, wallets, pairs=pairs, amount=amount, seed=seed, banned=banned
    )
    return SettlabilityProbe(
        pairs=len(outcomes), settlable=sum(outcomes), amount=amount
    )


def settlability_outcomes(
    state: LedgerState,
    wallets: Sequence[AccountID],
    pairs: int = DEFAULT_PAIR_SAMPLE,
    amount: float = DEFAULT_TARGET_AMOUNT,
    seed: int = 0,
    banned: Optional[Set[AccountID]] = None,
) -> List[bool]:
    """Per-pair settlability outcomes, in sample order.

    Pairs probed in the same currency share one :class:`CreditNetwork`.
    """
    networks: Dict[Currency, CreditNetwork] = {}
    outcomes: List[bool] = []
    for source, target, currency in sample_pairs(state, wallets, pairs, seed):
        network = networks.get(currency)
        if network is None:
            network = networks[currency] = CreditNetwork(state, currency, banned)
        outcomes.append(_settles(network, source, target, amount))
    return outcomes


def health_report(
    state: LedgerState,
    wallets: Sequence[AccountID],
    pairs: int = DEFAULT_PAIR_SAMPLE,
    amount: float = DEFAULT_TARGET_AMOUNT,
    seed: int = 0,
    banned: Optional[Set[AccountID]] = None,
) -> HealthReport:
    """The full four-dimension health snapshot."""
    return HealthReport(
        liquidity=liquidity_distribution(state, wallets),
        issuers=issuer_concentration(state),
        utilization=utilization_profile(state),
        settlability=settlability_probe(
            state, wallets, pairs=pairs, amount=amount, seed=seed, banned=banned
        ),
    )


def render_health(report: HealthReport, title: str = "Credit-network health") -> str:
    """Terminal rendering of one health snapshot (stable formatting)."""
    liquidity = report.liquidity
    issuers = report.issuers
    utilization = report.utilization
    probe = report.settlability
    lines = [
        title,
        "",
        "Wallet liquidity (EUR net balances over user wallets)",
        f"  wallets {liquidity.wallets:5d}   total {liquidity.total_eur:15,.2f}"
        f"   mean {liquidity.mean_eur:12,.2f}",
        f"  median {liquidity.median_eur:14,.2f}   p90 {liquidity.p90_eur:15,.2f}",
        "",
        "IOU issuer concentration (outstanding EUR value by issuer)",
        f"  issuers {issuers.issuers:4d}   outstanding {issuers.outstanding_eur:15,.2f}",
    ]
    for k, share in sorted(issuers.shares.items()):
        lines.append(f"  top {k:3d} issuers hold {share:6.1%} of outstanding IOUs")
    lines += [
        "",
        "Trust-limit utilization (balance/limit over credited lines)",
        f"  lines {utilization.lines:6d}   mean {utilization.mean:6.1%}   "
        f"p90 {utilization.p90:6.1%}",
        f"  over-extended (>= {utilization.threshold:.0%}) "
        f"{utilization.overextended:5d} ({utilization.overextended_fraction:.1%})",
        "",
        "Settlability (sampled pairs that can settle the target amount)",
        f"  pairs {probe.pairs:5d}   settlable {probe.settlable:5d}   "
        f"target {probe.amount:g}   fraction {probe.fraction:6.1%}",
    ]
    return "\n".join(lines)
