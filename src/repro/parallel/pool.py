"""A persistent warm worker pool, reused across artifact invocations.

Spawning a ``ProcessPoolExecutor`` costs fork/exec, interpreter start
(under spawn), and importing the repro package in every worker — for the
small shard counts our artifacts use, pool startup dominated the parallel
path (`figure3_parallel_x` ~0.1x).  This module keeps **one** pool alive
per process and hands it to every :func:`repro.parallel.engine.map_shards`
call:

* :func:`acquire` returns the warm pool when the requested ``(start
  method, jobs)`` matches, else tears the old one down and spawns fresh;
* :func:`release` returns the pool to the warm cache — workers stay up,
  the next artifact pays zero startup;
* :func:`discard` destroys a pool the caller saw break (crashed or hung
  worker).  Teardown is atomic with respect to the cache — the cache is
  emptied *before* any process is signalled, so no later ``acquire`` can
  see a dying pool.

An ``atexit`` hook shuts the warm pool down on interpreter exit; a
``kill -9`` of the whole process is covered by the OS reaping the worker
children.
"""

from __future__ import annotations

import atexit
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Optional, Tuple

from repro.obs.metrics import METRICS

#: (start method, max workers) -> live executor; at most one entry.
_WARM: Optional[Tuple[Tuple[str, int], ProcessPoolExecutor]] = None

#: Serializes cache mutations: the serve daemon acquires/releases from
#: concurrent request threads, and the check-then-take in :func:`acquire`
#: must be atomic (two threads must never both take the same executor).
_CACHE_LOCK = threading.Lock()

_ATEXIT_INSTALLED = False


def _install_atexit() -> None:
    global _ATEXIT_INSTALLED
    if not _ATEXIT_INSTALLED:
        _ATEXIT_INSTALLED = True
        atexit.register(shutdown)


def acquire(jobs: int, mp_context) -> ProcessPoolExecutor:
    """The warm pool for ``jobs`` workers, spawning only on a miss.

    A pool with a different worker count or start method is not reusable
    (determinism and capacity both key on the request); it is shut down
    and replaced.  The returned executor stays owned by this module —
    callers must hand it back through :func:`release` or :func:`discard`,
    never ``shutdown()`` it themselves.
    """
    global _WARM
    key = (mp_context.get_start_method(), jobs)
    with _CACHE_LOCK:
        if _WARM is not None:
            warm_key, executor = _WARM
            if warm_key == key:
                _WARM = None
                METRICS.count("parallel.pool.reused")
                return executor
    shutdown()
    _install_atexit()
    METRICS.count("parallel.pool.spawned")
    with METRICS.timer("parallel.pool.spawn"):
        return ProcessPoolExecutor(max_workers=jobs, mp_context=mp_context)


def release(executor: ProcessPoolExecutor, jobs: int, mp_context) -> None:
    """Return a healthy pool to the warm cache for the next artifact."""
    global _WARM
    with _CACHE_LOCK:
        if _WARM is None:
            _WARM = ((mp_context.get_start_method(), jobs), executor)
            return
    # Another pool was cached while this one was out (nested or
    # concurrent use); keep the cached one, retire this one.
    executor.shutdown(wait=True, cancel_futures=True)


def discard(executor: ProcessPoolExecutor) -> None:
    """Destroy a broken or hung pool.

    Hung workers never join, so the processes are terminated first
    (best effort over CPython's ``_processes`` bookkeeping), then reaped.
    """
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except OSError:  # pragma: no cover - already dead
            pass
    executor.shutdown(wait=True, cancel_futures=True)
    METRICS.count("parallel.pool.discarded")


def shutdown() -> None:
    """Tear down the warm pool (idempotent; used by atexit and tests)."""
    global _WARM
    with _CACHE_LOCK:
        if _WARM is None:
            return
        _warm, _WARM = _WARM, None
    _warm[1].shutdown(wait=True, cancel_futures=True)


def warm_pool_alive() -> bool:
    """Whether a warm pool is currently cached (introspection/tests)."""
    return _WARM is not None
