"""The simulated rippled server exposing the validation stream.

The paper's authors "set up a Ripple server that made use of the Ripple's
validation stream to capture and store" consensus data.  Our equivalent is
``StreamServer``: it attaches to a :class:`~repro.consensus.engine.
ConsensusEngine` as a validation observer, adds receive-side delay, and fans
events out to any number of subscribers (the collector among them).

A chaos injector (:class:`repro.chaos.ChaosInjector`) can force the
subscriber connection down for scheduled windows.  The server then buffers
events and, on reconnect, replays the buffer *plus* the last few events it
had already delivered — at-least-once semantics, exactly what a websocket
client resuming a validation stream sees.  Subscribers that must not double
count (the collector) deduplicate on their side.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional

import numpy as np

from repro.consensus.engine import ConsensusEngine
from repro.consensus.proposals import Validation
from repro.errors import StreamError
from repro.obs.manifest import RUN
from repro.stream.events import StreamEvent

Subscriber = Callable[[StreamEvent], None]


@dataclass
class StreamServer:
    """Relays validations from the consensus overlay to subscribers."""

    #: Mean network delay (seconds) between signing and stream delivery.
    mean_delay: float = 1.0
    #: Probability an individual validation never reaches this server —
    #: stream capture is lossy at the edges, as any overlay gossip is.
    loss_rate: float = 0.002
    seed: int = 0
    #: Optional chaos injector scheduling subscriber disconnects.
    chaos: Optional[object] = None
    #: How many already-delivered events are replayed again after a
    #: reconnect (the at-least-once overlap subscribers must deduplicate).
    replay_overlap: int = 4
    _subscribers: List[Subscriber] = field(default_factory=list)
    _rng: Optional[np.random.Generator] = field(default=None, repr=False)
    _pending: List[StreamEvent] = field(default_factory=list, repr=False)
    _recent: Optional[Deque[StreamEvent]] = field(default=None, repr=False)
    relayed: int = 0
    dropped: int = 0
    buffered: int = 0
    replayed: int = 0
    reconnects: int = 0

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._recent = deque(maxlen=self.replay_overlap)

    def subscribe(self, subscriber: Subscriber) -> None:
        self._subscribers.append(subscriber)

    def attach(self, engine: ConsensusEngine) -> None:
        """Start relaying the engine's validations to subscribers."""
        engine.subscribe(self.on_validation)

    def on_validation(self, validation: Validation) -> None:
        """Engine callback: deliver one validation, with delay and loss."""
        if self._rng.random() < self.loss_rate:
            self.dropped += 1
            return
        delay = max(0.0, self._rng.exponential(self.mean_delay))
        event = StreamEvent(
            validation=validation,
            received_at=validation.sign_time + int(round(delay)),
        )
        if self.chaos is not None and self.chaos.stream_disconnected(
            validation.sign_time
        ):
            # Connection down: hold the event for replay on reconnect.
            self._pending.append(event)
            self.buffered += 1
            return
        if self._pending:
            self._replay()
        self.relayed += 1
        if self.chaos is not None:
            self._recent.append(event)
        self._deliver(event)

    def _replay(self) -> None:
        """Reconnect: flush buffered events, re-sending a recent overlap."""
        replayed = list(self._recent) + self._pending
        self._pending = []
        self.reconnects += 1
        self.replayed += len(replayed)
        RUN.count("stream.replayed", len(replayed))
        for event in replayed:
            self._recent.append(event)
            self._deliver(event)

    def _deliver(self, event: StreamEvent) -> None:
        for subscriber in self._subscribers:
            subscriber(event)

    def flush(self) -> None:
        """Deliver anything still buffered (run ended while disconnected)."""
        if self._pending:
            self._replay()

    def require_subscribers(self) -> None:
        if not self._subscribers:
            raise StreamError("stream server has no subscribers")
