"""The chaos injector: feeds a fault plan into the runtime and keeps score.

One injector instance is shared by every component under test — the
consensus engine pulls per-round :class:`~repro.consensus.faults.RoundFaults`
from it, and the stream server asks it whether the collector's connection
is up.  The injector counts only the faults it injects, in one
:class:`FaultCounters`; how the system responded (retries, degraded
closes, replays, dropped duplicates) is counted once, by the node, the
stream server and the collector that did it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional, Sequence

from repro.consensus.faults import RoundFaults
from repro.chaos.plan import FaultPlan
from repro.obs.metrics import METRICS


@dataclass
class FaultCounters:
    """Observable effects of one fault-injected run."""

    faulted_rounds: int = 0
    partition_rounds: int = 0
    messages_suppressed: int = 0
    messages_stale: int = 0
    crash_rounds: int = 0
    byzantine_rounds: int = 0
    equivocations: int = 0
    rounds_not_validated: int = 0
    stream_disconnects: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class ChaosInjector:
    """Binds a :class:`FaultPlan` to a running system.

    Implements the engine's ``ChaosHook`` duck type
    (:meth:`faults_for_round` / :meth:`note_round`) plus the stream
    server's :meth:`stream_disconnected`.  ``None`` results mean "no faults
    this round" and guarantee the pristine code path.
    """

    def __init__(self, plan: FaultPlan, seed: int = 0):
        self.plan = plan
        self.seed = seed
        self.counters = FaultCounters()
        self._stream_was_down = False

    # Engine-side hook ---------------------------------------------------------

    def faults_for_round(
        self, absolute_round: int, validators: Sequence[object]
    ) -> Optional[RoundFaults]:
        return self.plan.round_faults(absolute_round)

    def note_round(self, faults: RoundFaults, outcome) -> None:
        """Account one fault-injected round's observable effects."""
        counters = self.counters
        counters.faulted_rounds += 1
        participants = set(outcome.participants)
        if faults.partitions:
            counters.partition_rounds += 1
        if faults.blocked:
            silenced = len(faults.blocked & participants)
            counters.messages_suppressed += silenced * max(0, len(participants) - 1)
        if faults.stale:
            counters.messages_stale += len(faults.stale & participants)
        if faults.crashed:
            counters.crash_rounds += len(faults.crashed)
        if faults.behaviour_overrides:
            counters.byzantine_rounds += len(
                set(faults.behaviour_overrides) & participants
            )
        if faults.equivocating:
            counters.equivocations += len(faults.equivocating)
        if not outcome.validated:
            counters.rounds_not_validated += 1
        METRICS.count("chaos.faulted_rounds")

    # Stream-side hook ---------------------------------------------------------

    def stream_disconnected(self, stream_time: int) -> bool:
        """Stream-server callback; also counts disconnect transitions."""
        down = self.plan.stream_disconnected(stream_time)
        if down and not self._stream_was_down:
            self.counters.stream_disconnects += 1
            METRICS.count("chaos.stream_disconnects")
        self._stream_was_down = down
        return down
