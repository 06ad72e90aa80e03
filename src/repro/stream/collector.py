"""Recording validation-stream data over a collection period.

The collector is the paper's data-gathering half: it subscribes to a
:class:`~repro.stream.server.StreamServer`, stores every event that falls
inside its collection window, and offers the aggregations the robustness
study needs — per-validator signature counts and the page hashes each
validator vouched for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import StreamError
from repro.obs.manifest import RUN
from repro.obs.metrics import METRICS
from repro.stream.events import StreamEvent


@dataclass
class StreamCollector:
    """Accumulates stream events within an optional time window.

    The window is **closed on both ends**: an event is kept when
    ``window_start <= received_at <= window_end`` (either bound may be
    ``None`` for unbounded).  In particular ``window_start == window_end
    == T`` is a one-instant window that accepts exactly the events
    received at ``T`` — it is *not* an empty half-open interval.  See
    :meth:`record`.

    With ``dedupe=True`` the collector survives at-least-once delivery:
    replayed events (same validator, sequence, page hash, and sign time)
    are dropped and counted in ``duplicates_dropped`` (and the run's
    ``stream.duplicates_dropped`` event) — required when the
    upstream :class:`~repro.stream.server.StreamServer` reconnects after
    an injected disconnect and replays its buffer.

    Dedupe memory is **bounded**: replay only ever redelivers recent
    events (a reconnect replays the server's buffer, not all of
    history), so keys older than ``dedupe_horizon`` stream-seconds
    behind the newest received time are evicted, and the whole table is
    dropped once the stream moves past ``window_end`` — a season-long
    collection no longer holds every signature it ever saw.  Evictions
    are counted in ``dedupe_evicted`` and ``stream.dedupe.evicted``.
    """

    #: Inclusive collection window in stream time; None = unbounded.
    window_start: Optional[int] = None
    window_end: Optional[int] = None
    events: List[StreamEvent] = field(default_factory=list)
    #: Drop exact redeliveries (reconnect replays). Off by default: the
    #: validation stream legitimately carries repeated signatures, and the
    #: paper's total-pages counts keep their multiplicity.
    dedupe: bool = False
    #: Evict dedupe keys once the stream has advanced this many seconds
    #: past them; None keeps keys until the window closes.
    dedupe_horizon: Optional[int] = None
    duplicates_dropped: int = 0
    dedupe_evicted: int = 0
    #: key -> received_at of the last sighting (the eviction clock).
    _seen: Dict[Tuple[str, int, bytes, int], int] = field(
        default_factory=dict, repr=False
    )
    _evict_watermark: Optional[int] = field(default=None, repr=False)

    def __call__(self, event: StreamEvent) -> None:
        self.record(event)

    def record(self, event: StreamEvent) -> None:
        """Store ``event`` if it falls inside the closed collection window.

        Window contract: inclusive start, inclusive end —
        ``window_start <= received_at <= window_end``.  Events outside the
        window are silently ignored (the stream keeps flowing; the
        collector simply is not recording them).
        """
        if self.window_start is not None and event.received_at < self.window_start:
            return
        if self.window_end is not None and event.received_at > self.window_end:
            # The window is closed for good (stream time only advances):
            # nothing will be recorded again, so the dedupe table is
            # dead weight — drop it all at once.
            if self._seen:
                self._evict(len(self._seen))
                self._seen.clear()
            return
        if self.dedupe:
            key = (
                event.validator,
                event.sequence,
                event.page_hash,
                event.validation.sign_time,
            )
            if key in self._seen:
                self._seen[key] = event.received_at
                self.duplicates_dropped += 1
                RUN.count("stream.duplicates_dropped")
                return
            self._seen[key] = event.received_at
            self._sweep_seen(event.received_at)
        self.events.append(event)

    def _evict(self, count: int) -> None:
        self.dedupe_evicted += count
        METRICS.count("stream.dedupe.evicted", count)

    def _sweep_seen(self, now: int) -> None:
        """Amortized horizon eviction: one O(n) sweep per horizon advance.

        Runs only when stream time has moved a full horizon past the
        last sweep, so per-event cost stays O(1) amortized while the
        table never holds keys older than ~2 horizons.
        """
        horizon = self.dedupe_horizon
        if horizon is None:
            return
        if self._evict_watermark is None:
            self._evict_watermark = now
            return
        if now - self._evict_watermark < horizon:
            return
        cutoff = now - horizon
        stale = [
            key for key, seen_at in self._seen.items() if seen_at < cutoff
        ]
        for key in stale:
            del self._seen[key]
        if stale:
            self._evict(len(stale))
        self._evict_watermark = now

    # Aggregations --------------------------------------------------------------

    def validators_seen(self) -> List[str]:
        """Every distinct validator observed, sorted."""
        return sorted({event.validator for event in self.events})

    def pages_by_validator(self) -> Dict[str, List[bytes]]:
        """All page hashes each validator signed (with multiplicity)."""
        out: Dict[str, List[bytes]] = {}
        for event in self.events:
            out.setdefault(event.validator, []).append(event.page_hash)
        return out

    def total_counts(self) -> Dict[str, int]:
        """Signed-page count per validator (the 'Total pages' bars)."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.validator] = counts.get(event.validator, 0) + 1
        return counts

    def valid_counts(self, main_chain_hashes: Iterable[bytes]) -> Dict[str, int]:
        """Per-validator count of signatures on main-ledger pages.

        ``main_chain_hashes`` are the fully validated page hashes the
        collector later reads from the public ledger — the comparison the
        paper performs to separate 'total' from 'valid' pages.
        """
        valid: Set[bytes] = set(main_chain_hashes)
        counts: Dict[str, int] = {}
        for event in self.events:
            if event.page_hash in valid:
                counts[event.validator] = counts.get(event.validator, 0) + 1
        return counts

    def require_data(self) -> None:
        if not self.events:
            raise StreamError("collector recorded no events")

    def __len__(self) -> int:
        return len(self.events)
