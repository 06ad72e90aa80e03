"""The sharded execution engine: warm worker pool, retries, serial fallback.

Execution model for an artifact with a :class:`ShardedCompute` contract:

1. ``prepare(request)`` runs in the parent;
2. ``shards(context, jobs)`` splits the context into contiguous shards;
3. each shard is submitted to the **persistent warm worker pool**
   (:mod:`repro.parallel.pool` — spawned lazily once per process, reused
   by every later call) whose worker applies ``compute_shard`` and
   returns ``(partial, metrics snapshot, trace snapshot, run events)``;
4. ``merge(partials, context)`` reduces in the parent, in shard order.

Failure handling reuses the node's retry policy: a shard whose worker
raises — or whose pool dies underneath it — is resubmitted up to
``RetryPolicy.max_retries`` times (the policy's backoff is applied as
real *milliseconds* here; resubmission needs spacing, not ledger-scale
waits).  A shard that still fails is computed in the parent
process, so a broken pool degrades to the serial path instead of losing
the artifact.  A killed run is recovered by rerunning it: outputs are
written atomically and the bytes are deterministic.

Each shard runs inside a ``parallel.<artifact>.shard`` span, whose
duration lands in the worker's :data:`repro.obs.metrics.METRICS` timer
of that name; worker snapshots are absorbed into the parent registry
when profiling is enabled, so ``--profile fork_threshold --jobs 4``
reports the same timer names as a serial run.  The run events a shard
counts (a degraded close, a round retry) are folded into the parent's
``RUN``, so a sharded manifest's ``events`` equal the serial run's.
Resubmits and serial fallbacks are run events of their own
(``parallel.<artifact>.resubmits`` / ``.serial_fallbacks``).
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.node import RetryPolicy
from repro.obs.manifest import RUN
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER, span
from repro.parallel import pool as warm_pool
from repro.parallel.sharding import plan_fingerprint

#: Default bounded-resubmit policy for crashed/failed shards.  Backoff
#: fields are read as milliseconds by :func:`map_shards`.
SHARD_RETRY_POLICY = RetryPolicy(
    max_retries=2, base_backoff=20.0, multiplier=2.0, max_backoff=200.0
)


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


def run_compute(artifact, args: Any) -> Any:
    """Compute an artifact's payload, sharding when possible and asked.

    The serial ``compute`` runs when the artifact has no sharded contract
    or when fewer than two workers are requested — those paths never
    touch multiprocessing at all.
    """
    jobs = effective_jobs(args)
    sharded = artifact.sharded
    if sharded is None or jobs <= 1:
        return artifact.compute(args)
    with span(f"parallel.{artifact.name}.prepare"):
        context = sharded.prepare(args)
    shards = sharded.shards(context, jobs)
    if not shards:
        return artifact.compute(args)
    RUN.note(
        plan_fingerprint=plan_fingerprint(shards),
        shards=len(shards),
        jobs=jobs,
    )
    if len(shards) == 1:
        partials = [sharded.compute_shard(shards[0])]
    else:
        partials = map_shards(
            artifact.name, sharded.compute_shard, shards, jobs
        )
    with span(f"parallel.{artifact.name}.merge"):
        return sharded.merge(partials, context)


# Worker side ---------------------------------------------------------------


def _call_shard(
    payload: Tuple[Callable[[Any], Any], Any, bool, bool, str, int]
):
    """Apply one shard function; runs in the worker (or as the parent's
    last-resort fallback).  Returns (partial, metrics snapshot, trace
    snapshot, run events); the caller folds the events into its ``RUN``."""
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
    # Collect exactly this shard's run events: a forked worker inherits
    # the parent's, and a warm worker keeps the previous shard's.
    outer, RUN.events = RUN.events, {}
    try:
        with span(f"parallel.{name}.shard", shard=index):
            partial = fn(shard)
    finally:
        events, RUN.events = RUN.events, outer
    snapshot = METRICS.snapshot() if profile else None
    spans = TRACER.snapshot() if trace else None
    return partial, snapshot, spans, events


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
) -> List[Any]:
    """Run ``fn`` over every shard in a worker pool; partials in shard order.

    Each failed shard is resubmitted up to ``policy.max_retries`` times
    (fresh pool if the old one broke), then computed in the parent as the
    final fallback — an exception surviving *that* is a real bug in ``fn``
    and propagates.
    """
    if not shards:
        return []
    profile = METRICS.enabled
    trace = TRACER.enabled
    #: shard index -> worker trace snapshot, absorbed in index order once
    #: the pool drains so the combined trace ordering is deterministic.
    trace_snaps: Dict[int, Any] = {}
    rng = np.random.default_rng(0)
    results: Dict[int, Any] = {}
    pending = list(range(len(shards)))
    jobs = max(1, jobs)
    attempts = [0] * len(shards)
    context = multiprocessing.get_context(_start_method())
    # The pool comes from the warm cache: within one process, startup is
    # paid on the first sharded call only.  Any pool this loop breaks is
    # discarded and replaced; a healthy pool goes back to the cache in
    # the finally below.
    executor = warm_pool.acquire(jobs, context)
    try:
        while pending:
            futures = {}
            broken = False
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
            failed = [index for index in pending if index not in futures.values()]
            wait(futures)
            for future, index in futures.items():
                try:
                    partial, snapshot, spans, events = future.result()
                except Exception as exc:  # worker raise or pool death
                    broken = broken or isinstance(exc, BrokenProcessPool)
                    failed.append(index)
                    continue
                results[index] = partial
                RUN.absorb(events)
                METRICS.count(f"parallel.{name}.shards")
                if snapshot:
                    METRICS.absorb(snapshot)
                if spans:
                    trace_snaps[index] = spans
            pending = []
            for index in sorted(failed):
                attempts[index] += 1
                if attempts[index] > policy.max_retries:
                    # Graceful degradation: the parent computes the shard
                    # itself — same function, same partial, just serial.
                    # The shard span lands in the live parent tracer and
                    # registry, so profile/trace stay False here.
                    RUN.count(f"parallel.{name}.serial_fallbacks")
                    results[index], _, _, events = _call_shard(
                        (fn, shards[index], False, False, name, index)
                    )
                    RUN.absorb(events)
                else:
                    RUN.count(f"parallel.{name}.resubmits")
                    pending.append(index)
            if pending:
                # The policy's delay is read as milliseconds: spacing real
                # resubmits wants milliseconds, not ledger-scale waits.
                delay_ms = policy.backoff(
                    max(attempts[index] for index in pending) - 1, rng
                )
                time.sleep(delay_ms / 1000.0)
                if broken:
                    warm_pool.discard(executor)
                    executor = warm_pool.acquire(jobs, context)
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
