"""Deterministic contiguous shard partitioning.

A shard plan depends only on ``(n, n_shards)``: the first ``n % n_shards``
shards take one extra record, so every partition is reproducible across
runs, machines, and worker counts — the precondition for the engine's
bit-for-bit guarantee (merges are order-independent, but identical shard
boundaries make per-shard partials themselves reproducible artifacts).
:func:`plan_fingerprint` names a plan's shape in the run manifest.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, List, Optional, Sequence, Tuple


def shard_ranges(n: int, n_shards: int) -> List[Tuple[int, int]]:
    """Contiguous, non-empty ``[start, stop)`` ranges covering ``range(n)``.

    At most ``n_shards`` ranges are returned (fewer when ``n < n_shards``);
    sizes differ by at most one record, larger shards first.
    """
    if n <= 0 or n_shards <= 0:
        return []
    n_shards = min(n_shards, n)
    base, extra = divmod(n, n_shards)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for index in range(n_shards):
        stop = start + base + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def _shard_size(shard: Any) -> Optional[int]:
    try:
        return len(shard)
    except TypeError:
        return None


def plan_fingerprint(shards: Sequence[Any]) -> str:
    """A stable digest of the shard plan's shape (count + per-shard sizes).

    Shard payloads themselves are not hashed — they can be large and are
    already determined by (seed, scale, input, jobs); the shape is what
    distinguishes one deterministic plan from another.
    """
    shape = [len(shards)] + [_shard_size(shard) for shard in shards]
    return hashlib.sha256(json.dumps(shape).encode()).hexdigest()
