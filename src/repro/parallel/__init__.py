"""repro.parallel — deterministic sharded execution of registered artifacts.

The paper's headline sweep (23M payments at many feature resolutions) is
embarrassingly parallel; this package runs any artifact that registers a
:class:`repro.api.registry.ShardedCompute` contract across a
``multiprocessing`` worker pool.  Datasets are split into *contiguous*
record shards, each worker computes an order-independently mergeable
partial, and the reduce is bit-for-bit identical to the serial path —
``--jobs 4`` and ``--jobs 1`` print the same bytes.

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
from repro.parallel.sharding import shard_ranges

__all__ = [
    "effective_jobs",
    "map_shards",
    "run_compute",
    "shard_ranges",
]
