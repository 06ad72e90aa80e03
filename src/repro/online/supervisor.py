"""Supervised ingest: crash restarts with backoff, heartbeat watchdog.

The supervisor owns the pipeline lifecycle the way the node layer owns
consensus retries — and it reads its restart budget and backoff from the
same :class:`repro.node.RetryPolicy` (``max_retries`` restarts, delays of
base × multiplier^attempt, capped, jittered, in real seconds).
Four failure modes, four behaviours:

* **permanent input error** (one of :data:`repro.errors.PERMANENT_ERRORS`:
  a corrupt or missing archive, a malformed header): raise it on the
  first attempt — a restart would read the same bytes and fail the same
  way;
* **crash** (the pipeline raises anything else): recover from disk and
  restart, with exponential backoff and a bounded restart budget; every
  restart is counted (``online.supervisor.restarts``) and surfaced in
  status.json;
* **stall** (events in flight but the heartbeat stops advancing): raise
  :class:`SupervisorError` *loudly* instead of restarting — a wedged
  thread cannot be safely torn down in-process, and two writers on one
  WAL would be worse than an exit.  The process manager (or the crash
  drill's ``kill -9``) restarts the process, and WAL recovery does the
  rest;
* **exhaustion** (restart budget spent): raise, chaining the last error.

A stall while *idle* — blocked waiting for the source to produce — is
not a stall at all and never trips the watchdog.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Callable, Iterable, Optional, Tuple

import numpy as np

from repro.errors import PERMANENT_ERRORS, IngestError
from repro.node import RetryPolicy
from repro.obs.metrics import METRICS
from repro.online.events import IngestEvent
from repro.online.pipeline import IngestConfig, IngestPipeline
from repro.online.state import ForkWatch

#: Default restart budget and backoff: fast enough for drills, bounded for
#: services.  ``repro ingest --max-restarts`` overrides the budget.
DEFAULT_RETRY = RetryPolicy(
    max_retries=5, base_backoff=0.2, multiplier=2.0, max_backoff=10.0,
    jitter=0.25,
)


class SupervisorError(IngestError):
    """The supervisor gave up: stalled pipeline or exhausted restarts."""


class IngestSupervisor:
    """Runs one :class:`IngestPipeline` under restart/watchdog policy.

    ``source_factory(start_seq)`` must return a fresh event source that
    begins at ``start_seq`` — after a crash the pipeline recovers from
    disk and asks for exactly the events it has not yet accepted.
    """

    def __init__(
        self,
        config: IngestConfig,
        source_factory: Callable[[int], Iterable[IngestEvent]],
        heartbeat_timeout: float = 30.0,
        retry: RetryPolicy = DEFAULT_RETRY,
        fork_watch: Optional[ForkWatch] = None,
        poll_interval: float = 0.1,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if heartbeat_timeout <= 0:
            raise IngestError("heartbeat_timeout must be positive")
        self.config = config
        self.source_factory = source_factory
        self.heartbeat_timeout = heartbeat_timeout
        self.retry = retry
        self.fork_watch = fork_watch
        self.poll_interval = poll_interval
        self.sleep = sleep
        self.restarts = 0
        self.pipeline: Optional[IngestPipeline] = None
        self._rng = np.random.default_rng(0)

    def request_stop(self) -> None:
        """Ask the running pipeline to drain gracefully (signal-safe)."""
        pipeline = self.pipeline
        if pipeline is not None:
            pipeline.request_stop()

    def run(self) -> Tuple[str, IngestPipeline]:
        """Supervise until the source drains; returns (digest, pipeline)."""
        while True:
            pipeline = IngestPipeline(self.config, fork_watch=self.fork_watch)
            self.pipeline = pipeline
            pipeline.restarts = self.restarts
            pipeline.recover()
            source = self.source_factory(pipeline.state.applied_seq + 1)
            outcome: dict = {}

            def _work() -> None:
                try:
                    outcome["digest"] = pipeline.run(source)
                except BaseException as exc:  # noqa: BLE001 — relayed below
                    outcome["error"] = exc

            worker = threading.Thread(
                target=_work, name="repro-ingest", daemon=True
            )
            worker.start()
            while worker.is_alive():
                worker.join(self.poll_interval)
                silent = time.monotonic() - pipeline.heartbeat
                if (
                    worker.is_alive()
                    and not pipeline.idle
                    and silent > self.heartbeat_timeout
                ):
                    METRICS.count("online.supervisor.stalls")
                    raise SupervisorError(
                        f"heartbeat stall: pipeline silent for {silent:.1f}s "
                        f"with an event in flight at seq "
                        f"{pipeline.state.applied_seq + 1}"
                    )
            if "digest" in outcome:
                return outcome["digest"], pipeline
            error = outcome.get("error")
            if isinstance(error, PERMANENT_ERRORS):
                raise error
            self.restarts += 1
            METRICS.count("online.supervisor.restarts")
            budget = self.retry.max_retries
            if self.restarts > budget:
                raise SupervisorError(
                    f"restart budget exhausted ({budget}): {error}"
                ) from error
            delay = self.retry.backoff(self.restarts - 1, self._rng)
            print(
                f"ingest supervisor: restart {self.restarts}/"
                f"{budget} in {delay:.2f}s after: {error}",
                file=sys.stderr,
            )
            self.sleep(delay)
