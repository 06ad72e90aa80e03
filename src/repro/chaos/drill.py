"""Scenario runner: drive a resilient node through a fault plan.

``run_drill`` stands up the full measurement apparatus of the paper's
Section IV — a :class:`~repro.node.RippledNode` with a mixed validator
roster, a chaos-aware :class:`~repro.stream.server.StreamServer`, and a
deduplicating :class:`~repro.stream.collector.StreamCollector` — then
replays a :class:`~repro.chaos.plan.FaultPlan` against it while clients
keep submitting payments.  The resulting :class:`DrillReport` is the
Fig. 2 observable (per-validator total/valid signed pages) plus the
degradation counters that show *how* the node survived: retries, degraded
closes, stream reconnects, deduplicated replays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.chaos.injector import ChaosInjector, FaultCounters
from repro.chaos.plan import FaultPlan, build_plan
from repro.consensus.faults import active, lagging
from repro.consensus.network import NetworkModel
from repro.consensus.unl import UNL
from repro.consensus.validator import Validator
from repro.ledger.accounts import account_from_name
from repro.ledger.amounts import Amount
from repro.ledger.currency import XRP
from repro.ledger.state import LedgerState
from repro.ledger.transactions import Payment
from repro.node import RetryPolicy, RippledNode
from repro.obs.trace import span
from repro.stream.collector import StreamCollector
from repro.stream.server import StreamServer

#: Ripple Labs anchors plus the community actives of the drill roster.
DRILL_RIPPLE_LABS = ("R1", "R2", "R3", "R4", "R5")
DRILL_ACTIVES = (
    "bougalis.net",
    "freewallet1.net",
    "mduo13.com",
    "youwant.to",
    "duke67.com",
    "n9KDJn...Q7KhQ2",
)
DRILL_LAGGING = ("rippled.media.mit.edu", "rippled.mr.exchange")


def drill_roster() -> List[Validator]:
    """A mid-size mixed roster with fully overlapping UNLs.

    Eleven trusted validators (R1–R5 plus six actives) anchor the master
    UNL; two lagging servers ride along, as in the paper's periods.  Full
    UNL overlap puts the roster in the safe regime of the cited analyses,
    so every fault the drill observes is injected, not structural.
    """
    trusted = UNL.of(DRILL_RIPPLE_LABS + DRILL_ACTIVES)
    validators = [
        Validator(name, trusted, active(availability=0.995), is_ripple_labs=True)
        for name in DRILL_RIPPLE_LABS
    ]
    validators += [
        Validator(name, trusted, active(availability=0.97))
        for name in DRILL_ACTIVES
    ]
    validators += [
        Validator(name, trusted, lagging(availability=0.5, sync_quality=0.1))
        for name in DRILL_LAGGING
    ]
    return validators


@dataclass
class ValidatorHealth:
    """One row of the drill's Fig. 2-style health table."""

    name: str
    total_pages: int
    valid_pages: int
    is_ripple_labs: bool = False
    is_byzantine: bool = False

    @property
    def valid_fraction(self) -> float:
        return self.valid_pages / self.total_pages if self.total_pages else 0.0


@dataclass
class DrillReport:
    """Everything observable about one chaos drill."""

    plan: FaultPlan
    seed: int
    rounds: int
    closes_attempted: int = 0
    ledgers_closed: int = 0
    validated_closes: int = 0
    degraded_closes: int = 0
    failed_closes: int = 0
    round_retries: int = 0
    payments_submitted: int = 0
    payments_applied: int = 0
    stream_relayed: int = 0
    stream_buffered: int = 0
    stream_replayed: int = 0
    stream_reconnects: int = 0
    duplicates_dropped: int = 0
    health: List[ValidatorHealth] = field(default_factory=list)
    #: The faults the injector injected.  The system's response (retries,
    #: degraded and failed closes, replays, dropped duplicates) is in the
    #: fields above, as the node, server and collector counted it.
    counters: FaultCounters = field(default_factory=FaultCounters)

    @property
    def availability(self) -> float:
        """Fraction of close attempts that produced a validated ledger."""
        return (
            self.validated_closes / self.closes_attempted
            if self.closes_attempted
            else 0.0
        )

    def health_of(self, name: str) -> Optional[ValidatorHealth]:
        for row in self.health:
            if row.name == name:
                return row
        return None


def run_drill(
    plan: Union[str, FaultPlan],
    seed: int = 0,
    rounds: int = 240,
    payments_per_close: int = 2,
    retry: Optional[RetryPolicy] = None,
    validators: Optional[Sequence[Validator]] = None,
    network: Optional[NetworkModel] = None,
    observers: Sequence[Callable] = (),
) -> DrillReport:
    """Replay ``plan`` against a resilient node and report validator health.

    ``rounds`` counts *close attempts*; consensus retries inside a close
    run additional protocol rounds on top.  The node runs with degraded
    mode enabled — the drill's whole point is observing how far the system
    bends before it stops sealing ledgers.

    ``observers`` subscribe directly to the consensus engine's validation
    stream (no dedup, no disconnects) — the scenario packs use one to
    collect the exact validations their fork detector replays.
    """
    roster = list(validators) if validators is not None else drill_roster()
    names = [v.name for v in roster]
    if isinstance(plan, str):
        plan = build_plan(plan, rounds, names)
    injector = ChaosInjector(plan, seed=seed)

    state = LedgerState()
    accounts = []
    for index in range(8):
        account = account_from_name(f"drill-{index}", namespace="chaos")
        state.create_account(account, 10_000 * 10 ** 6)
        accounts.append(account)

    node = RippledNode(
        state=state,
        validators=roster,
        require_signatures=False,
        network=network if network is not None else NetworkModel(),
        seed=seed,
        retry=retry if retry is not None else RetryPolicy(max_retries=2),
        allow_degraded=True,
        chaos=injector,
    )
    server = StreamServer(seed=seed + 1, chaos=injector)
    collector = StreamCollector(dedupe=True)
    server.subscribe(collector)
    server.attach(node.consensus)
    for observer in observers:
        node.consensus.subscribe(observer)

    report = DrillReport(plan=plan, seed=seed, rounds=rounds)
    sequences: Dict[object, int] = {account: 0 for account in accounts}
    with span("chaos.drill", plan=plan.name, rounds=rounds):
        for close_index in range(rounds):
            for offset in range(payments_per_close):
                sender = accounts[(close_index + offset) % len(accounts)]
                dest = accounts[(close_index + offset + 1) % len(accounts)]
                sequences[sender] += 1
                tx = Payment(
                    account=sender,
                    sequence=sequences[sender],
                    destination=dest,
                    amount=Amount.from_value(XRP, 1 + (close_index % 5)),
                )
                node.submit(tx)
                report.payments_submitted += 1
            report.closes_attempted += 1
            closed = node.close_ledger()
            if closed is not None:
                report.ledgers_closed += 1
                if closed.validated:
                    report.validated_closes += 1
                report.payments_applied += closed.success_count
    server.flush()

    report.degraded_closes = node.degraded_closes
    report.failed_closes = node.failed_closes
    report.round_retries = node.round_retries
    report.stream_relayed = server.relayed
    report.stream_buffered = server.buffered
    report.stream_replayed = server.replayed
    report.stream_reconnects = server.reconnects
    report.duplicates_dropped = collector.duplicates_dropped
    report.counters = injector.counters

    totals = collector.total_counts()
    valids = collector.valid_counts(node.validated_hashes)
    byzantine = plan.byzantine_names()
    labs = set(DRILL_RIPPLE_LABS)
    for name in names:
        report.health.append(
            ValidatorHealth(
                name=name,
                total_pages=totals.get(name, 0),
                valid_pages=valids.get(name, 0),
                is_ripple_labs=name in labs,
                is_byzantine=name in byzantine,
            )
        )
    return report
