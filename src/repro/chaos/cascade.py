"""Liquidity-cascade stress scenarios over the credit network.

Table II is one point: *all* market makers fail at once and 11.2 % of
payments survive.  The cascade scenarios turn that point into a curve —
how fast does deliverability collapse as intermediaries fail? — by
removing intermediaries in **waves** ordered by concentration rank and
measuring the four-dimension health report
(:mod:`repro.analysis.health`) after every wave:

* ``outage`` — market makers fail in waves, most-active first (offer
  placement rank, the 50/75/87 % concentration order).  Each wave
  re-runs the Table II counterfactual replay with the failed makers
  banned from relaying and their order-book offers cancelled; the final
  wave removes every maker and reproduces Table II exactly.
* ``gateway-default`` — gateways default in waves, largest issuer
  first (outstanding-IOU rank).  A defaulted gateway stops relaying, so
  its issuances stop circulating; the books stay up.
* ``unwind`` — an ADL-style forced unwind: each round the most-utilized
  decile of credited trust lines is liquidated (debt written off, limit
  withdrawn — :meth:`LedgerState.close_trust_line`) and the trusters
  that ate losses cut their remaining limits proportionally, feeding
  the next round.  No replay; the cascade acts on the end-of-history
  ledger directly.

Importing this module registers the ``cascade`` artifact.  Like
``table2``, the simulation is inherently sequential: it records one flat
outcome stream (payment deliveries + settlability probes, tagged by
wave), which :func:`tally_cascade` then counts per wave.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.health import (
    DEFAULT_PAIR_SAMPLE,
    DEFAULT_TARGET_AMOUNT,
    HealthReport,
    IssuerConcentration,
    LiquidityDistribution,
    SettlabilityProbe,
    UtilizationProfile,
    issuer_concentration,
    liquidity_distribution,
    render_health,
    settlability_outcomes,
    utilization_profile,
)
from repro.analysis.market_makers import ReplayResult, replay_with_state
from repro.api.artifacts import history_for
from repro.api.registry import ArtifactError, ArtifactResult, register
from repro.api.request import ArtifactRequest
from repro.ledger.accounts import AccountID
from repro.ledger.amounts import Amount
from repro.ledger.currency import Currency, eur_value
from repro.ledger.state import LedgerState
from repro.obs.metrics import METRICS
from repro.synthetic.generator import SyntheticHistory

#: The cascade kinds the artifact accepts (``--kind``).
CASCADE_KINDS = ("outage", "gateway-default", "unwind")
DEFAULT_KIND = "outage"
DEFAULT_WAVES = 4

#: Fraction of credited lines the unwind liquidates per round (top of the
#: utilization rank — ADL liquidates the most-leveraged books first).
UNWIND_CLOSE_FRACTION = 0.1

_KIND_TITLES = {
    "outage": "market-maker outage",
    "gateway-default": "gateway default",
    "unwind": "forced unwind (ADL)",
}


@dataclass(frozen=True)
class CascadeWave:
    """One wave of the cascade: what failed and the health that remained."""

    index: int
    label: str
    #: Cumulative intermediaries removed (or trust lines unwound).
    removed: int
    #: Table II-style replay tally; ``None`` for the unwind (no replay).
    delivery: Optional[ReplayResult]
    health: HealthReport


@dataclass(frozen=True)
class CascadeReport:
    """The full collapse curve: one :class:`CascadeWave` per wave."""

    kind: str
    pairs: int
    amount: float
    waves: Tuple[CascadeWave, ...]

    @property
    def final(self) -> CascadeWave:
        return self.waves[-1]


# Simulation ------------------------------------------------------------------


@dataclass(frozen=True)
class _WaveDraft:
    """A wave with the tally-independent health dimensions filled in."""

    index: int
    label: str
    removed: int
    has_delivery: bool
    liquidity: LiquidityDistribution
    issuers: IssuerConcentration
    utilization: UtilizationProfile


@dataclass
class CascadeContext:
    """Everything the tally needs: wave skeletons + the tagged stream."""

    kind: str
    pairs: int
    amount: float
    drafts: List[_WaveDraft]
    #: Flat outcome stream, one tuple per payment/probe:
    #: ``(wave, "pay", is_cross_currency, delivered)`` or
    #: ``(wave, "probe", settlable, False)``.
    stream: List[Tuple[int, str, bool, bool]]


def rank_market_makers(history: SyntheticHistory) -> List[AccountID]:
    """Makers by offer-placement rank (most active first, address ties)."""
    counts: Dict[AccountID, int] = {}
    for record in history.offer_records:
        counts[record.owner] = counts.get(record.owner, 0) + 1
    return sorted(
        history.cast.market_maker_accounts(),
        key=lambda account: (-counts.get(account, 0), account.address),
    )


def rank_gateways(history: SyntheticHistory) -> List[AccountID]:
    """Gateways by outstanding-IOU rank (largest issuer first)."""
    outstanding: Dict[AccountID, float] = {}
    for line in history.state.iter_trustlines():
        value = line.balance.to_float() * eur_value(line.currency)
        if value > 0.0:
            outstanding[line.trustee] = outstanding.get(line.trustee, 0.0) + value
    return sorted(
        history.cast.gateway_accounts(),
        key=lambda account: (-outstanding.get(account, 0.0), account.address),
    )


def _record_wave(
    context: CascadeContext,
    draft: _WaveDraft,
    state: LedgerState,
    wallets: Sequence[AccountID],
    outcomes: Optional[List[Tuple[bool, bool]]],
    banned: Optional[set],
    seed: int,
) -> None:
    """Probe settlability, stream the wave's outcomes, emit live gauges."""
    probes = settlability_outcomes(
        state,
        wallets,
        pairs=context.pairs,
        amount=context.amount,
        seed=seed,
        banned=banned,
    )
    if outcomes is not None:
        for is_cross, delivered in outcomes:
            context.stream.append((draft.index, "pay", is_cross, delivered))
    for settlable in probes:
        context.stream.append((draft.index, "probe", bool(settlable), False))
    context.drafts.append(draft)
    METRICS.gauge("cascade.wave", float(draft.index))
    if probes:
        METRICS.gauge(
            "cascade.settlable_fraction", sum(probes) / len(probes)
        )
    if outcomes:
        delivered = sum(1 for _, ok in outcomes if ok)
        METRICS.gauge("cascade.delivery_rate", delivered / len(outcomes))


def _simulate_removal(
    context: CascadeContext,
    history: SyntheticHistory,
    ranked: Sequence[AccountID],
    noun: str,
    waves: int,
    seed: int,
    remove_offers: bool,
) -> None:
    """Waves of intermediary removal by rank; wave 0 is the intact control."""
    wallets = [user.account for user in history.cast.users]
    for wave in range(waves + 1):
        if wave == 0:
            prefix: List[AccountID] = []
            outcomes, state = replay_with_state(
                history, remove_market_makers=False
            )
            label = "intact"
        else:
            size = min(len(ranked), math.ceil(wave * len(ranked) / waves))
            prefix = list(ranked[:size])
            banned = set(prefix)
            outcomes, state = replay_with_state(
                history,
                banned=banned,
                remove_offers_of=banned if remove_offers else set(),
            )
            label = f"{size}/{len(ranked)} {noun} out"
        draft = _WaveDraft(
            index=wave,
            label=label,
            removed=len(prefix),
            has_delivery=True,
            liquidity=liquidity_distribution(state, wallets),
            issuers=issuer_concentration(state),
            utilization=utilization_profile(state),
        )
        _record_wave(
            context, draft, state, wallets, outcomes, set(prefix), seed
        )


def _unwind_round(state: LedgerState) -> int:
    """Liquidate the most-utilized decile of credited lines; deleverage.

    Every closed line's balance is written off against the truster, and
    each truster that ate losses scales its remaining limits down by its
    loss share — shrinking limits raises the survivors' utilization, so
    the next round's liquidation front moves deeper into the book.
    Returns the number of lines closed (0 when nothing is credited).
    """
    candidates: List[Tuple[float, AccountID, AccountID, Currency]] = []
    for line in state.iter_trustlines():
        limit = line.limit.to_float()
        balance = line.balance.to_float()
        if limit <= 0.0 or balance <= 0.0:
            continue
        utilization = min(1.0, balance / limit)
        candidates.append((utilization, line.truster, line.trustee, line.currency))
    if not candidates:
        return 0
    candidates.sort(
        key=lambda entry: (
            -entry[0],
            entry[1].address,
            entry[2].address,
            entry[3].code,
        )
    )
    to_close = max(1, int(len(candidates) * UNWIND_CLOSE_FRACTION))
    losses: Dict[AccountID, float] = {}
    for _, truster, trustee, currency in candidates[:to_close]:
        value = state.close_trust_line(truster, trustee, currency)
        losses[truster] = losses.get(truster, 0.0) + value * eur_value(currency)
    for truster in sorted(losses, key=lambda account: account.address):
        loss = losses[truster]
        extended = sum(
            line.limit.to_float() * eur_value(line.currency)
            for line in state.lines_trusted_by(truster)
            if line.limit.to_float() > 0.0
        )
        if loss <= 0.0 or extended <= 0.0:
            continue
        scale = max(0.0, 1.0 - loss / extended)
        if scale >= 1.0:
            continue
        for line in list(state.lines_trusted_by(truster)):
            limit = line.limit.to_float()
            if limit <= 0.0:
                continue
            state.set_trust(
                truster,
                line.trustee,
                Amount.from_value(line.currency, limit * scale),
            )
    return to_close


def _simulate_unwind(
    context: CascadeContext,
    history: SyntheticHistory,
    waves: int,
    seed: int,
) -> None:
    """ADL-style rounds on the end-of-history ledger (no replay)."""
    state = copy.deepcopy(history.state)
    wallets = [user.account for user in history.cast.users]
    unwound = 0
    for round_index in range(waves + 1):
        if round_index == 0:
            label = "intact"
        else:
            closed = _unwind_round(state)
            if closed == 0:
                break
            unwound += closed
            label = f"round {round_index}: {closed} lines unwound"
        draft = _WaveDraft(
            index=round_index,
            label=label,
            removed=unwound,
            has_delivery=False,
            liquidity=liquidity_distribution(state, wallets),
            issuers=issuer_concentration(state),
            utilization=utilization_profile(state),
        )
        _record_wave(context, draft, state, wallets, None, None, seed)


def run_cascade(
    history: SyntheticHistory,
    kind: str = DEFAULT_KIND,
    waves: int = DEFAULT_WAVES,
    pairs: int = DEFAULT_PAIR_SAMPLE,
    amount: float = DEFAULT_TARGET_AMOUNT,
    seed: int = 0,
) -> CascadeReport:
    """Run one cascade end to end (library entry point)."""
    context = simulate_cascade(history, kind, waves, pairs, amount, seed)
    return _finish_cascade(context, tally_cascade(context.stream)).data


def simulate_cascade(
    history: SyntheticHistory,
    kind: str,
    waves: int,
    pairs: int,
    amount: float,
    seed: int,
) -> CascadeContext:
    """The sequential part: wave simulation + the tagged outcome stream."""
    if kind not in CASCADE_KINDS:
        raise ArtifactError(
            f"unknown cascade kind {kind!r}; known: {', '.join(CASCADE_KINDS)}"
        )
    if waves < 1:
        raise ArtifactError("a cascade needs at least one wave")
    context = CascadeContext(
        kind=kind, pairs=pairs, amount=amount, drafts=[], stream=[]
    )
    if kind == "outage":
        _simulate_removal(
            context, history, rank_market_makers(history), "makers",
            waves, seed, remove_offers=True,
        )
    elif kind == "gateway-default":
        _simulate_removal(
            context, history, rank_gateways(history), "gateways",
            waves, seed, remove_offers=False,
        )
    else:
        _simulate_unwind(context, history, waves, seed)
    return context


# Tally -----------------------------------------------------------------------


def tally_cascade(
    entries: Sequence[Tuple[int, str, bool, bool]],
) -> Dict[int, List[int]]:
    """Tally the outcome stream per wave.

    Counts are ``[cross_submitted, cross_delivered, single_submitted,
    single_delivered, probe_pairs, probe_settlable]``.
    """
    totals: Dict[int, List[int]] = {}
    for wave, channel, flag_a, flag_b in entries:
        counts = totals.setdefault(wave, [0, 0, 0, 0, 0, 0])
        if channel == "pay":
            offset = 0 if flag_a else 2
            counts[offset] += 1
            if flag_b:
                counts[offset + 1] += 1
        else:
            counts[4] += 1
            if flag_a:
                counts[5] += 1
    return totals


def _finish_cascade(
    context: CascadeContext, totals: Dict[int, List[int]]
) -> ArtifactResult:
    """Install the tallies into the wave skeletons; build the result."""
    waves: List[CascadeWave] = []
    for draft in context.drafts:
        counts = totals.get(draft.index, [0, 0, 0, 0, 0, 0])
        delivery = None
        if draft.has_delivery:
            delivery = ReplayResult()
            delivery.cross_currency.submitted = counts[0]
            delivery.cross_currency.delivered = counts[1]
            delivery.single_currency.submitted = counts[2]
            delivery.single_currency.delivered = counts[3]
        health = HealthReport(
            liquidity=draft.liquidity,
            issuers=draft.issuers,
            utilization=draft.utilization,
            settlability=SettlabilityProbe(
                pairs=counts[4], settlable=counts[5], amount=context.amount
            ),
        )
        waves.append(
            CascadeWave(
                index=draft.index,
                label=draft.label,
                removed=draft.removed,
                delivery=delivery,
                health=health,
            )
        )
    report = CascadeReport(
        kind=context.kind,
        pairs=context.pairs,
        amount=context.amount,
        waves=tuple(waves),
    )
    series = []
    for wave in report.waves:
        entry: Dict[str, object] = {
            "wave": wave.index,
            "label": wave.label,
            "removed": wave.removed,
            "health": wave.health.as_dict(),
        }
        if wave.delivery is not None:
            total = wave.delivery.total
            entry["delivery"] = {
                "submitted": total.submitted,
                "delivered": total.delivered,
                "rate": total.delivery_rate,
            }
        series.append(entry)
    final = report.final
    metrics: Dict[str, object] = {
        "waves": len(report.waves),
        "final_settlable_fraction": final.health.settlability.fraction,
    }
    if final.delivery is not None:
        metrics["final_delivery_rate"] = final.delivery.total.delivery_rate
    return ArtifactResult(
        data=report,
        metrics=metrics,
        manifest={"health_series": series},
    )


# Artifact registration -------------------------------------------------------


def _cascade_params(args: ArtifactRequest) -> Tuple[str, int, int, float]:
    kind = args.option("kind") or DEFAULT_KIND
    waves = args.option("waves") or DEFAULT_WAVES
    pairs = args.option("pairs") or DEFAULT_PAIR_SAMPLE
    amount = float(args.option("amount") or DEFAULT_TARGET_AMOUNT)
    return kind, int(waves), int(pairs), amount


def _compute_cascade(args: ArtifactRequest) -> ArtifactResult:
    kind, waves, pairs, amount = _cascade_params(args)
    context = simulate_cascade(
        history_for(args), kind, waves, pairs, amount, seed=args.seed
    )
    return _finish_cascade(context, tally_cascade(context.stream))


def render_cascade(report: CascadeReport, args: ArtifactRequest = None) -> str:
    """The collapse curve plus the final wave's full health block."""
    lines = [
        f"Liquidity cascade — {_KIND_TITLES.get(report.kind, report.kind)}",
        f"  {len(report.waves) - 1} waves   {report.pairs} sampled pairs   "
        f"target amount {report.amount:g}",
        "",
        "Deliverability collapse",
        f"  {'wave':>4s}  {'scenario':28s} {'delivered':>11s} {'rate':>7s}"
        f" {'settlable':>10s} {'over-ext':>9s}",
    ]
    for wave in report.waves:
        if wave.delivery is not None:
            total = wave.delivery.total
            delivered = f"{total.delivered}/{total.submitted}"
            rate = f"{total.delivery_rate:6.1%}"
        else:
            delivered, rate = "—", "     —"
        probe = wave.health.settlability
        overext = wave.health.utilization.overextended_fraction
        lines.append(
            f"  {wave.index:4d}  {wave.label:28s} {delivered:>11s} {rate:>7s}"
            f" {probe.fraction:>9.1%} {overext:>8.1%}"
        )
    final = report.final
    lines += [
        "",
        render_health(
            final.health, title=f"Wave {final.index} health — {final.label}"
        ),
    ]
    if report.kind == "outage":
        lines += [
            "",
            "The final wave bans every maker and cancels their offers: "
            "Table II's",
            "counterfactual (paper: 11.2 % of payments deliver).",
        ]
    return "\n".join(lines)


register(
    "cascade",
    "liquidity-cascade collapse curve (outage / gateway-default / unwind)",
    _compute_cascade,
    lambda payload, args: render_cascade(payload, args),
)

__all__ = [
    "CASCADE_KINDS",
    "CascadeReport",
    "CascadeWave",
    "rank_gateways",
    "rank_market_makers",
    "render_cascade",
    "run_cascade",
]
