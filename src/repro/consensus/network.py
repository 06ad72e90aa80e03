"""A simple message-delivery model for the consensus simulation.

Consensus rounds are synchronous (rippled's deliberation runs on a timer),
so the network model reduces to: *which proposals reach which listeners
within the iteration window*.  Healthy validators in well-connected data
centres deliver essentially always; lagging validators both drop incoming
proposals and fail to get their own out in time — the paper attributes the
zero-valid-page validators partly to exactly this ("their latency made it
almost impossible to participate").

The model also supports partitions, used by the chaos drills to study how
consensus availability degrades when validators are cut off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Sequence, Set

import numpy as np

from repro.consensus.faults import Behaviour
from repro.consensus.validator import Validator


@dataclass
class NetworkModel:
    """Per-validator delivery reliability plus optional partitions.

    ``base_loss`` is the background message-loss probability between two
    healthy validators; per-behaviour penalties are added on top.
    """

    base_loss: float = 0.01
    lagging_loss: float = 0.55
    partitions: List[Set[str]] = field(default_factory=list)

    def _loss_for(self, validator: Validator) -> float:
        if validator.behaviour is Behaviour.LAGGING:
            return self.lagging_loss
        if validator.behaviour is Behaviour.OFFLINE:
            return 0.6
        return 0.0

    def _group_of(self, name: str) -> int:
        """Index of the last declared partition listing ``name``; -1, the
        one shared "no group" id, when none does."""
        group_id = -1
        for index, group in enumerate(self.partitions):
            if name in group:
                group_id = index
        return group_id

    def _partitioned(self, a: str, b: str) -> bool:
        """True when a and b are in different declared partitions."""
        return bool(self.partitions) and self._group_of(a) != self._group_of(b)

    def delivery_array(
        self,
        participants: Sequence[Validator],
        rng: np.random.Generator,
        extra_loss: float = 0.0,
        blocked: FrozenSet[str] = frozenset(),
    ) -> np.ndarray:
        """Vectorized delivery sampling: ``out[i, j]`` is True when the
        proposal of participant ``i`` reaches participant ``j``.

        Only pairs on the same ledger instance (network id) and in the same
        declared partition can talk; forked validators gossip among
        themselves.  Every link is sampled in one numpy draw, which is what
        lets the engine run tens of thousands of rounds.

        ``extra_loss`` and ``blocked`` are chaos-injection hooks: additional
        loss probability applied to every link, and speakers whose outgoing
        proposals are all suppressed this round.  Both default to no effect
        and consume no extra randomness, keeping fault-free runs
        bit-for-bit identical.
        """
        n = len(participants)
        losses = np.array([self._loss_for(v) for v in participants])
        networks = np.array([v.network_id for v in participants])
        loss = np.minimum(
            0.98, self.base_loss + extra_loss + losses[:, None] + losses[None, :]
        )
        delivered = rng.random((n, n)) >= loss
        delivered &= networks[:, None] == networks[None, :]
        if self.partitions:
            groups = np.array([self._group_of(v.name) for v in participants])
            delivered &= groups[:, None] == groups[None, :]
        if blocked:
            for i, speaker in enumerate(participants):
                if speaker.name in blocked:
                    delivered[i, :] = False
        np.fill_diagonal(delivered, False)
        return delivered
