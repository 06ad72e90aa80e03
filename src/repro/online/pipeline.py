"""The ingest pipeline: source → WAL → state, with snapshots and drain.

The order of operations is the whole durability story:

1. pull the next event from the source (any iterable of events; the
   ``repro ingest`` command replays an archive);
2. **append it to the WAL and fsync** — the event is now *accepted*;
3. apply it to :class:`~repro.online.state.OnlineState` — a poison body
   is diverted to the quarantine sidecar instead (reason attached, state
   counters advanced), deterministically, so replay reaches the same
   state;
4. every ``snapshot_every`` events, seal a snapshot and prune WAL
   segments the snapshot covers; every ``status_every`` events, refresh
   the ``status.json`` the ``live_status`` serve op reads.

Recovery inverts it: sweep stale temps, recover the WAL (discarding a
torn tail), pick the newest *verified* snapshot the WAL tail can reach,
and replay forward.  A ``kill -9`` between any two steps lands in a
state this loop reconstructs exactly — the crash drill's contract.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.analysis.archive import ARCHIVE_VERSION
from repro.durability.atomic import atomic_write, verify_manifest
from repro.durability.ingest import QuarantineWriter
from repro.errors import IngestError, MissingInputError, SchemaError
from repro.obs.metrics import METRICS
from repro.online.events import (
    KIND_PAYMENT,
    IngestEvent,
    PoisonEventError,
)
from repro.online.snapshots import SnapshotStore
from repro.online.state import ForkWatch, OnlineState
from repro.online.wal import WriteAheadLog

#: Name of the status file inside the state directory.
STATUS_NAME = "status.json"

#: Name of the poison-event quarantine sidecar inside the state directory.
QUARANTINE_NAME = "quarantine.jsonl"


@dataclass(frozen=True)
class IngestConfig:
    """Tunables of one ingest deployment (all paths under ``state_dir``)."""

    state_dir: str
    #: Events between sealed snapshots (0 disables periodic snapshots).
    snapshot_every: int = 1000
    #: Events per WAL segment before it is sealed and a new one opens.
    wal_segment_events: int = 512
    #: Verified snapshots retained (older ones are pruned).
    keep_snapshots: int = 3
    #: Events between status.json refreshes (0 disables).
    status_every: int = 200
    #: fsync every accepted event (tests may disable for speed).
    fsync: bool = True
    #: Per-view quorum for the fork watch.
    fork_quorum: float = 0.80

    def path(self, name: str) -> str:
        return os.path.join(self.state_dir, name)


def archive_event_source(
    path: str, start_seq: int = 0
) -> Iterator[IngestEvent]:
    """Replay an archive as payment events, seq = data-line ordinal.

    Reads raw lines (not :func:`~repro.analysis.archive.iter_archive`):
    the online pipeline must *accept* malformed lines into the WAL and
    quarantine them at apply time, so a poison line becomes an event
    whose body carries the parse failure instead of killing the tail.
    Resume is a skip: events below ``start_seq`` are already in the WAL
    of the resuming process and must not be re-acknowledged.  As in batch
    ingest, a ``<path>.sha256`` sidecar, when present, is verified before
    the first event (:class:`~repro.errors.IntegrityError` on mismatch).
    """
    import gzip

    if not os.path.exists(path):
        raise MissingInputError(f"archive not found: {path}")
    verify_manifest(path)
    if path.endswith(".gz"):
        handle = gzip.open(path, "rt", encoding="utf-8", errors="replace")
    else:
        handle = open(path, "r", encoding="utf-8", errors="replace")
    with handle:
        header_line = handle.readline()
        try:
            header = json.loads(header_line)
        except ValueError:
            raise SchemaError(
                f"archive {path} has no valid header", line_number=1
            ) from None
        if not isinstance(header, dict) or header.get("version") != (
            ARCHIVE_VERSION
        ):
            raise SchemaError(
                f"archive {path}: unsupported version", line_number=1
            )
        seq = 0
        for line in handle:
            if not line.strip():
                continue
            if seq >= start_seq:
                try:
                    body = json.loads(line)
                    if not isinstance(body, dict):
                        body = {"parse_error": "not a JSON object"}
                except ValueError as exc:
                    body = {"parse_error": str(exc)}
                yield IngestEvent(seq=seq, kind=KIND_PAYMENT, body=body)
            seq += 1


class _Quarantine:
    """The poison-event sidecar: durability-layer writer + preload/dedupe.

    Routes entries through the existing
    :class:`repro.durability.ingest.QuarantineWriter` (atomic rewrite on
    every flush), after preloading whatever an earlier incarnation wrote
    — flushes survive restarts — and deduplicating by event sequence,
    because WAL replay re-quarantines the same poison events it already
    diverted before the crash.
    """

    def __init__(self, path: str):
        self.writer = QuarantineWriter("", path=path)
        self._seen = set()
        if os.path.exists(path):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    for line in handle:
                        if not line.strip():
                            continue
                        entry = json.loads(line)
                        self.writer._entries.append(entry)
                        self._seen.add(int(entry.get("line", -1)))
            except (OSError, ValueError, TypeError):
                # An unreadable sidecar is diagnostic loss, not state
                # loss: counters in OnlineState remain exact.
                METRICS.count("online.quarantine.sidecar_reset")
                self.writer._entries = []
                self._seen = set()

    def divert(self, event: IngestEvent, reason: str, error: str) -> None:
        if event.seq in self._seen:
            return
        self._seen.add(event.seq)
        self.writer.divert(
            event.seq, reason, error,
            json.dumps(event.body, sort_keys=True)[:4096],
        )

    def flush(self) -> None:
        if len(self.writer):
            self.writer.close()


class IngestPipeline:
    """One recover→apply→snapshot loop over an event source."""

    def __init__(
        self,
        config: IngestConfig,
        fork_watch: Optional[ForkWatch] = None,
    ):
        self.config = config
        os.makedirs(config.state_dir, exist_ok=True)
        METRICS.enable()
        self.wal = WriteAheadLog(
            config.path("wal"),
            segment_events=config.wal_segment_events,
            fsync=config.fsync,
        )
        self.snapshots = SnapshotStore(
            config.path("snapshots"), keep=config.keep_snapshots
        )
        self._fork_watch_template = fork_watch
        self.state = OnlineState(
            fork_watch=fork_watch if fork_watch is not None else ForkWatch(
                quorum=config.fork_quorum
            )
        )
        self.quarantine = _Quarantine(config.path(QUARANTINE_NAME))
        self.stop_requested = threading.Event()
        self.heartbeat = time.monotonic()
        self.idle = True
        self.restarts = 0
        self.replayed = 0
        self._since_snapshot = 0
        self._since_status = 0
        self._last_snapshot_seq = -1

    # Recovery ----------------------------------------------------------------

    def recover(self) -> int:
        """Rebuild state from newest verified snapshot + WAL tail replay.

        Returns the number of events replayed from the WAL.  Raises
        :class:`IngestError` when the durable record is unrecoverable —
        the WAL starts past every verified snapshot's frontier, so
        accepted events would be silently skipped.
        """
        self.snapshots.sweep()
        events = self.wal.recover()
        first_replayable = events[0].seq if events else None
        found = self.snapshots.latest_verified()
        if found is not None:
            state, applied_seq = found
            if first_replayable is not None and (
                applied_seq < first_replayable - 1
            ):
                raise IngestError(
                    f"unrecoverable state dir {self.config.state_dir}: WAL "
                    f"starts at seq {first_replayable} but the newest "
                    f"verified snapshot covers only through {applied_seq}"
                )
            if self._fork_watch_template is not None and not (
                state.fork_watch.views
            ):
                # A roster configured at startup survives a restart even
                # when the recovered snapshot predates any validation.
                state.fork_watch = self._fork_watch_template
            self.state = state
            self._last_snapshot_seq = applied_seq
        elif first_replayable not in (None, 0):
            raise IngestError(
                f"unrecoverable state dir {self.config.state_dir}: WAL "
                f"starts at seq {first_replayable} with no verified snapshot"
            )
        replayed = 0
        for event in events:
            if event.seq <= self.state.applied_seq:
                continue
            self._apply(event)
            replayed += 1
        if self.wal.next_seq < self.state.applied_seq + 1:
            # The snapshot outruns everything the WAL still holds (its
            # covered segments were pruned or discarded): drop the stale
            # remainder and continue from the snapshot frontier.
            self.wal.reset_to(self.state.applied_seq + 1)
        self.replayed = replayed
        if replayed:
            METRICS.count("online.replayed", replayed)
        self.write_status(phase="recovered")
        return replayed

    # The loop ----------------------------------------------------------------

    def _apply(self, event: IngestEvent) -> None:
        """Fold one accepted event into state; poison goes to quarantine."""
        try:
            self.state.absorb(event)
        except PoisonEventError as exc:
            self.state.note_quarantined(event, exc.reason)
            self.quarantine.divert(event, exc.reason, str(exc))
            METRICS.count("online.quarantined")
            METRICS.count(f"online.quarantined.{exc.reason}")
        else:
            METRICS.count("online.absorbed")

    def run(self, source: Iterable[IngestEvent]) -> str:
        """Ingest until the source ends or stop is requested; then drain.

        Returns the final state digest (after the drain snapshot).
        """
        iterator = iter(source)
        while not self.stop_requested.is_set():
            self.idle = True
            try:
                event = next(iterator)
            except StopIteration:
                break
            self.idle = False
            self.heartbeat = time.monotonic()
            if event.seq != self.wal.next_seq:
                raise IngestError(
                    f"source is out of sync: produced seq {event.seq}, "
                    f"pipeline expects {self.wal.next_seq}"
                )
            self.wal.append(event)
            self._apply(event)
            self.heartbeat = time.monotonic()
            self._since_snapshot += 1
            self._since_status += 1
            if (
                self.config.snapshot_every
                and self._since_snapshot >= self.config.snapshot_every
            ):
                self.seal_snapshot()
            if (
                self.config.status_every
                and self._since_status >= self.config.status_every
            ):
                self.write_status(phase="running")
        return self.drain()

    def seal_snapshot(self) -> None:
        """Seal a snapshot, prune covered WAL segments, flush sidecars."""
        self.snapshots.seal(self.state)
        self._last_snapshot_seq = self.state.applied_seq
        self._prune_wal()
        self.quarantine.flush()
        self._since_snapshot = 0
        self.write_status(phase="running")

    def _prune_wal(self) -> None:
        # Prune only through the *oldest* retained snapshot: the WAL must
        # stay deep enough to replay forward from any snapshot recovery
        # might fall back to, not just the newest.
        oldest = self.snapshots.oldest_applied_seq()
        if oldest is not None:
            self.wal.prune_through(oldest)

    def drain(self) -> str:
        """Graceful shutdown: flush WAL, seal a final snapshot, status."""
        self.wal.seal_active()
        if self.state.applied_seq > self._last_snapshot_seq or not (
            self.snapshots.paths()
        ):
            self.snapshots.seal(self.state)
            self._last_snapshot_seq = self.state.applied_seq
        self._prune_wal()
        self.quarantine.flush()
        digest = self.state.digest()
        self.write_status(phase="drained", digest=digest)
        METRICS.count("online.drains")
        return digest

    def request_stop(self) -> None:
        """Ask the loop to drain after the event in flight (signal-safe)."""
        self.stop_requested.set()

    # Status ------------------------------------------------------------------

    def write_status(
        self, phase: str, digest: Optional[str] = None
    ) -> None:
        """Refresh ``status.json`` (atomic; volatile wall-clock included)."""
        payload = {
            "phase": phase,
            "pid": os.getpid(),
            "applied_seq": self.state.applied_seq,
            "events": self.state.events,
            "payments": self.state.payments,
            "validations": self.state.validations,
            "quarantined": self.state.quarantined_total,
            "forked_sequences": list(self.state.fork_watch.forked),
            "wal_segments": self.wal.segment_count(),
            "wal_next_seq": self.wal.next_seq,
            "last_snapshot_seq": self._last_snapshot_seq,
            "replayed": self.replayed,
            "restarts": self.restarts,
            "updated_at": time.time(),
        }
        if digest is not None:
            payload["digest"] = digest
        with atomic_write(self.config.path(STATUS_NAME)) as handle:
            handle.write(json.dumps(payload, sort_keys=True) + "\n")
        self._since_status = 0


def read_status(state_dir: str) -> dict:
    """The last status.json an ingest process wrote under ``state_dir``."""
    path = os.path.join(state_dir, STATUS_NAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise IngestError(f"no readable ingest status at {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise IngestError(f"malformed ingest status at {path}")
    return payload
