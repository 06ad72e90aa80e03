"""repro.parallel — deterministic sharded execution of registered artifacts.

An artifact that registers a :class:`repro.api.registry.ShardedCompute`
contract can run across a ``multiprocessing`` worker pool: its input is
split into *contiguous* shards, each worker computes a mergeable partial,
and the reduce is bit-for-bit identical to the serial path — ``--jobs 4``
and ``--jobs 1`` print the same bytes.

Only ``fork_threshold`` registers one: each sweep point is a full
consensus simulation, so a shard carries real work.  Every other artifact
accepts ``--jobs`` and runs serially; their per-shard work measured below
the cost of shipping it to a worker.

The serial path runs for ``--jobs 1`` / no ``--jobs`` flag and for an
artifact without a sharded contract.  Worker crashes resubmit the failed
shard a bounded number of times (:class:`repro.node.RetryPolicy`) before
the parent computes the shard itself.
"""

from repro.parallel.engine import (
    effective_jobs,
    map_shards,
    run_compute,
)
from repro.parallel.sharding import plan_fingerprint, shard_ranges

__all__ = [
    "effective_jobs",
    "map_shards",
    "plan_fingerprint",
    "run_compute",
    "shard_ranges",
]
