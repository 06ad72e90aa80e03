"""The sharded execution engine: worker pool, retries, serial fallback.

Execution model for an artifact with a :class:`ShardedCompute` contract:

1. ``prepare(request)`` runs in the parent (dataset build, replay, …);
2. ``shards(context, jobs)`` splits the context into contiguous shards —
   for dataset artifacts, row slices sharing the parent's factorization;
3. each shard is submitted to the **persistent warm worker pool**
   (:mod:`repro.parallel.pool` — spawned lazily once per process, reused
   by every later artifact) whose worker applies ``compute_shard`` and
   returns ``(partial, seconds, perf_snapshot)``;
4. ``merge(partials, context)`` reduces in the parent, in shard order.

Failure handling reuses the PR 2 retry policy: a shard whose worker
raises — or whose pool dies underneath it — is resubmitted up to
``RetryPolicy.max_retries`` times (the policy's simulated-seconds backoff
is applied as real *milliseconds* here; resubmission needs spacing, not
ledger-scale waits).  A shard that still fails is computed in the parent
process, so a broken pool degrades to the serial path instead of losing
the artifact.

Durability extensions (PR 4):

* **Watchdog** — ``REPRO_SHARD_TIMEOUT`` (seconds) bounds each shard's
  wall time in a worker.  A shard that overruns is treated as failed: its
  worker pool is torn down (processes terminated), in-flight sibling
  shards are resubmitted without an attempt penalty, and the overrunning
  shard re-enters the normal retry → serial-fallback ladder.  A hung
  worker therefore costs one pool rebuild, not the whole run.
* **Checkpoint/resume** — pass a :class:`repro.durability.ResumeJournal`
  and every completed shard partial is checkpointed (atomic pickle +
  sha256); on a rerun, verified checkpoints are loaded and only
  missing/corrupt shards recompute.  Shard plans are deterministic, so a
  resumed run is bit-for-bit identical to a cold one.

Per-shard wall times are mirrored into :data:`repro.obs.metrics.METRICS` as
``parallel.<artifact>.shard`` timers; worker-side perf snapshots are
absorbed into the parent registry when profiling is enabled, so
``--profile fig3 --jobs 4`` still reports the familiar timer names.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.node import RetryPolicy
from repro.obs.manifest import RUN
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.parallel import pool as warm_pool

#: Per-shard watchdog timeout in (real) seconds; unset/empty/0 disables.
SHARD_TIMEOUT_ENV = "REPRO_SHARD_TIMEOUT"

#: Default bounded-resubmit policy for crashed/failed shards.  Backoff
#: fields are read as milliseconds by :func:`map_shards`.
SHARD_RETRY_POLICY = RetryPolicy(
    max_retries=2, base_backoff=20.0, multiplier=2.0, max_backoff=200.0
)


def shard_timeout() -> Optional[float]:
    """The watchdog timeout from the environment, or None when disabled.

    Unset, empty and ``0`` mean "off"; anything else must be a positive,
    finite number of seconds.  A malformed or negative value raises
    instead of reading as "off", so a typo cannot silently disable the
    watchdog the caller asked for.
    """
    raw = os.environ.get(SHARD_TIMEOUT_ENV, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        value = -1.0
    if not 0 <= value < float("inf"):  # also rejects "nan"
        raise ValueError(
            f"{SHARD_TIMEOUT_ENV} must be a number of seconds "
            f"(0 or unset disables the watchdog), got {raw!r}"
        )
    return value if value > 0 else None


def effective_jobs(
    args: Optional[Any] = None, jobs: Optional[int] = None
) -> int:
    """Worker count after applying request defaults (at least 1).

    ``args`` is any request carrier with a ``jobs`` attribute — a typed
    :class:`~repro.api.request.ArtifactRequest` on the production path,
    or any attribute bag in tests/embeddings.
    """
    if jobs is None:
        jobs = getattr(args, "jobs", None)
    if not jobs:
        return 1
    return max(1, int(jobs))


def _journal_for(artifact_name: str, args: Any, shards):
    """The resume journal for this run, when ``--resume`` asked for one."""
    if not getattr(args, "resume", False):
        return None
    from repro.durability import ResumeJournal

    return ResumeJournal.for_run(
        artifact_name,
        shards,
        seed=getattr(args, "seed", None),
        scale=getattr(args, "scale", None),
        payments=getattr(args, "payments", None),
        archive=getattr(args, "archive", None),
    )


def run_compute(artifact, args: Any) -> Any:
    """Compute an artifact's payload, sharding when possible and asked.

    The serial ``compute`` runs when the artifact has no sharded contract
    or when fewer than two workers are requested — those paths never
    touch multiprocessing at all.  With ``--resume`` the shard results
    are journaled under ``$REPRO_RESUME_DIR`` and a rerun recomputes only
    what is missing.
    """
    jobs = effective_jobs(args)
    sharded = artifact.sharded
    if sharded is None or jobs <= 1:
        return artifact.compute(args)
    with METRICS.timer(f"parallel.{artifact.name}.prepare"), \
            TRACER.span(f"parallel.{artifact.name}.prepare"):
        context = sharded.prepare(args)
    shards = sharded.shards(context, jobs)
    if not shards:
        return artifact.compute(args)
    from repro.durability.journal import plan_fingerprint

    RUN.note(
        plan_fingerprint=plan_fingerprint(shards),
        shards=len(shards),
        jobs=jobs,
    )
    journal = _journal_for(artifact.name, args, shards)
    if len(shards) == 1 and journal is None:
        partials = [sharded.compute_shard(shards[0])]
    else:
        partials = map_shards(
            artifact.name, sharded.compute_shard, shards, jobs,
            journal=journal,
        )
    with METRICS.timer(f"parallel.{artifact.name}.merge"), \
            TRACER.span(f"parallel.{artifact.name}.merge"):
        return sharded.merge(partials, context)


# Worker side ---------------------------------------------------------------


def _call_shard(
    payload: Tuple[Callable[[Any], Any], Any, bool, bool, str, int]
):
    """Apply one shard function; runs in the worker (or as the parent's
    last-resort fallback).  Returns (partial, seconds, metrics snapshot,
    trace snapshot)."""
    fn, shard, profile, trace, name, index = payload
    if profile:
        # Forked workers inherit the parent's live registry; reset it so
        # the snapshot covers exactly this shard's work and absorbing it
        # never double-counts parent-side timers (spawn starts empty, so
        # the reset makes both start methods report identically).
        METRICS.reset()
        METRICS.enable()
    if trace:
        # Same inheritance story for the tracer: reset so the shipped
        # spans cover exactly this shard, then wrap the shard in its own
        # span so the absorbed trace shows where each shard ran.
        TRACER.reset()
        TRACER.enable()
    start = time.perf_counter()
    # TRACER.span is a cheap no-op when tracing is off in this process.
    with TRACER.span(f"parallel.{name}.shard", shard=index):
        partial = fn(shard)
    elapsed = time.perf_counter() - start
    snapshot = METRICS.snapshot() if profile else None
    spans = TRACER.snapshot() if trace else None
    return partial, elapsed, snapshot, spans


def _start_method() -> str:
    """Fork when the platform has it (cheap), else spawn.

    Shard functions are module-level, so both start methods can unpickle
    them.
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


# Parent side ---------------------------------------------------------------


def map_shards(
    name: str,
    fn: Callable[[Any], Any],
    shards: Sequence[Any],
    jobs: int,
    policy: RetryPolicy = SHARD_RETRY_POLICY,
    journal=None,
    timeout: Optional[float] = None,
) -> List[Any]:
    """Run ``fn`` over every shard in a worker pool; partials in shard order.

    Each failed shard is resubmitted up to ``policy.max_retries`` times
    (fresh pool if the old one broke), then computed in the parent as the
    final fallback — an exception surviving *that* is a real bug in ``fn``
    and propagates.  A shard exceeding ``timeout`` real seconds (default:
    ``REPRO_SHARD_TIMEOUT``) counts as failed and enters the same ladder.

    With a ``journal``, previously checkpointed partials are loaded
    (hash-verified) instead of computed, and every fresh partial is
    checkpointed the moment it arrives — a killed run resumes from its
    last completed shard.
    """
    if not shards:
        return []
    if timeout is None:
        timeout = shard_timeout()
    profile = METRICS.enabled
    trace = TRACER.enabled
    #: shard index -> worker trace snapshot, absorbed in index order once
    #: the pool drains so the combined trace ordering is deterministic.
    trace_snaps: Dict[int, Any] = {}
    rng = np.random.default_rng(0)
    results: Dict[int, Any] = {}
    pending = list(range(len(shards)))
    if journal is not None:
        for index in list(pending):
            partial = journal.load(index)
            if partial is not None:
                results[index] = partial
                pending.remove(index)
                METRICS.count(f"parallel.{name}.resumed")
                RUN.count("shards_resumed")
        if not pending:
            return [results[index] for index in range(len(shards))]

    def record(index: int, partial: Any, elapsed: float) -> None:
        results[index] = partial
        METRICS.add_time(f"parallel.{name}.shard", elapsed)
        if journal is not None:
            journal.store(index, partial)

    jobs = max(1, jobs)
    attempts = [0] * len(shards)
    context = multiprocessing.get_context(_start_method())
    # The pool comes from the warm cache: within one process, startup is
    # paid on the first sharded call only.  Any pool this loop breaks
    # (crash, hang) is discarded and replaced; a healthy pool goes back
    # to the cache in the finally below.
    executor = warm_pool.acquire(jobs, context)
    try:
        while pending:
            futures = {}
            deadlines: Dict[Any, float] = {}
            broken = False
            hung = False
            for index in pending:
                try:
                    future = executor.submit(
                        _call_shard,
                        (fn, shards[index], profile, trace, name, index),
                    )
                except BrokenProcessPool:
                    broken = True
                    break
                futures[future] = index
                if timeout is not None:
                    deadlines[future] = time.monotonic() + timeout
            failed = [index for index in pending if index not in futures.values()]
            victims: List[int] = []  # shards lost to a sibling's teardown
            remaining = set(futures)
            while remaining:
                if timeout is None:
                    patience = None
                else:
                    patience = max(
                        0.0,
                        min(deadlines[f] for f in remaining) - time.monotonic(),
                    )
                done, remaining = wait(
                    remaining, timeout=patience, return_when=FIRST_COMPLETED
                )
                for future in done:
                    index = futures[future]
                    try:
                        partial, elapsed, snapshot, spans = future.result()
                    except Exception as exc:  # worker raise or pool death
                        broken = broken or isinstance(exc, BrokenProcessPool)
                        failed.append(index)
                        continue
                    record(index, partial, elapsed)
                    METRICS.count(f"parallel.{name}.shards")
                    if snapshot:
                        METRICS.absorb(snapshot)
                    if spans:
                        trace_snaps[index] = spans
                if timeout is not None and remaining:
                    now = time.monotonic()
                    expired = [f for f in remaining if now >= deadlines[f]]
                    if expired:
                        # The overrunning shards failed; everything else
                        # still in flight is a victim of the pool teardown
                        # and is requeued without an attempt penalty.
                        hung = True
                        broken = True
                        for future in expired:
                            failed.append(futures[future])
                            METRICS.count(f"parallel.{name}.timeouts")
                            RUN.count("shard_timeouts")
                        victims = [
                            futures[f] for f in remaining if f not in expired
                        ]
                        remaining = set()
            if hung:
                warm_pool.discard(executor)
                executor = warm_pool.acquire(jobs, context)
                broken = False
            pending = []
            for index in sorted(failed):
                attempts[index] += 1
                if attempts[index] > policy.max_retries:
                    # Graceful degradation: the parent computes the shard
                    # itself — same function, same partial, just serial.
                    # The shard span lands in the live parent tracer, so
                    # profile/trace stay False here.
                    METRICS.count(f"parallel.{name}.serial_fallbacks")
                    RUN.count("shard_serial_fallbacks")
                    partial, elapsed, _snapshot, _spans = _call_shard(
                        (fn, shards[index], False, False, name, index)
                    )
                    record(index, partial, elapsed)
                else:
                    METRICS.count(f"parallel.{name}.resubmits")
                    RUN.count("shard_resubmits")
                    pending.append(index)
            if pending:
                # Policy backoff is defined in simulated seconds; spacing
                # real resubmits wants milliseconds, not ledger-scale waits.
                delay_ms = policy.backoff_seconds(
                    max(attempts[index] for index in pending) - 1, rng
                )
                time.sleep(delay_ms / 1000.0)
                if broken:
                    warm_pool.discard(executor)
                    executor = warm_pool.acquire(jobs, context)
            pending.extend(victims)
    finally:
        # A pool that broke on the very last round must not go back to
        # the warm cache; everything healthy does, workers still hot.
        if getattr(executor, "_broken", False):
            warm_pool.discard(executor)
        else:
            warm_pool.release(executor, jobs, context)
    # Worker span snapshots are buffered as shards complete (arbitrary
    # order) and absorbed here in shard order: the --jobs N trace is
    # complete and its ordering deterministic.
    for index in sorted(trace_snaps):
        TRACER.absorb(trace_snaps[index])
    return [results[index] for index in range(len(shards))]
