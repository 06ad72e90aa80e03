"""Engine tests: shard plans, the worker pool, retries, and fallbacks.

The crash/retry tests tell workers apart from the parent by pid: a shard
carries the parent's pid, and the shard function misbehaves only when it
finds itself in a different process.  That way the engine's last-resort
"compute it in the parent" path runs the very same function safely.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os

import pytest

from repro.cli import main
from repro.node import RetryPolicy
from repro.obs.manifest import RUN
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.parallel import pool
from repro.parallel.engine import (
    effective_jobs,
    map_shards,
    run_compute,
)
from repro.parallel.sharding import plan_fingerprint, shard_ranges

#: Fast policy for the failure tests — real sleeps stay ~1 ms.
FAST_POLICY = RetryPolicy(
    max_retries=2, base_backoff=1.0, multiplier=1.0, max_backoff=1.0, jitter=0.0
)


class TestShardRanges:
    @pytest.mark.parametrize("n,n_shards", [
        (1, 1), (7, 1), (7, 3), (8, 4), (100, 7), (3, 8), (4096, 16),
    ])
    def test_partition_covers_range_exactly(self, n, n_shards):
        ranges = shard_ranges(n, n_shards)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == n
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start  # contiguous, no gap, no overlap

    @pytest.mark.parametrize("n,n_shards", [(7, 3), (100, 7), (4096, 16)])
    def test_sizes_differ_by_at_most_one(self, n, n_shards):
        sizes = [stop - start for start, stop in shard_ranges(n, n_shards)]
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)  # larger shards first

    def test_never_more_shards_than_records(self):
        assert len(shard_ranges(3, 8)) == 3
        assert all(stop - start == 1 for start, stop in shard_ranges(3, 8))

    def test_degenerate_inputs_yield_no_shards(self):
        assert shard_ranges(0, 4) == []
        assert shard_ranges(10, 0) == []
        assert shard_ranges(-1, 4) == []

    def test_plan_is_deterministic(self):
        assert shard_ranges(1234, 7) == shard_ranges(1234, 7)


class TestPlanFingerprint:
    def test_depends_on_shape(self):
        assert plan_fingerprint([[1, 2], [3]]) == plan_fingerprint([[9, 9], [9]])
        assert plan_fingerprint([[1, 2], [3]]) != plan_fingerprint([[1], [2, 3]])
        assert plan_fingerprint([]) != plan_fingerprint([[1]])

    def test_tolerates_unsized_shards(self):
        assert plan_fingerprint([7, 8]) == plan_fingerprint([1, 2])


class TestEffectiveJobs:
    def test_defaults_to_serial(self):
        assert effective_jobs() == 1
        assert effective_jobs(argparse.Namespace()) == 1
        assert effective_jobs(argparse.Namespace(jobs=None)) == 1

    def test_reads_args_or_explicit_jobs(self):
        assert effective_jobs(argparse.Namespace(jobs=4)) == 4
        assert effective_jobs(jobs=3) == 3
        assert effective_jobs(jobs=0) == 1
        assert effective_jobs(jobs=-2) == 1


# Shard functions must live at module level so workers unpickle them by
# reference.


def _square(value):
    return value * value


def _fail_until_marked(shard):
    """Raise on the first attempt; a marker file makes retries succeed."""
    value, marker = shard
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write("tried\n")
        raise ValueError("first attempt always fails")
    return value * value


def _fail_in_workers(shard):
    """Raise in any worker process; compute only in the parent."""
    value, parent_pid = shard
    if os.getpid() != parent_pid:
        raise ValueError("worker refuses")
    return value * value


def _crash_in_workers(shard):
    """Kill any worker process outright; compute only in the parent."""
    value, parent_pid = shard
    if os.getpid() != parent_pid:
        os._exit(13)
    return value * value


def _count_event(value):
    RUN.count("shard.event", value)
    return value


class TestMapShards:
    def test_results_come_back_in_shard_order(self):
        values = list(range(11))
        assert map_shards("t", _square, values, 4) == [v * v for v in values]

    def test_empty_shard_list(self):
        assert map_shards("t", _square, [], 4) == []

    def test_failed_shard_is_resubmitted(self, tmp_path):
        shards = [(v, str(tmp_path / f"marker-{v}")) for v in range(3)]
        results = map_shards("t", _fail_until_marked, shards, 2, FAST_POLICY)
        assert results == [0, 1, 4]

    def test_persistent_failure_falls_back_to_parent(self):
        was_enabled = METRICS.enabled
        METRICS.reset()
        METRICS.enable()
        RUN.reset()
        try:
            shards = [(v, os.getpid()) for v in range(3)]
            results = map_shards("t", _fail_in_workers, shards, 2, FAST_POLICY)
            assert results == [0, 1, 4]
            # Two resubmits per shard, then one serial fallback each: one
            # run event per degradation, counted in METRICS by name.
            expected = {"parallel.t.resubmits": 6,
                        "parallel.t.serial_fallbacks": 3}
            assert RUN.events == expected
            for name, count in expected.items():
                assert METRICS.counters[name] == count
        finally:
            RUN.reset()
            METRICS.reset()
            METRICS.enabled = was_enabled

    def test_worker_events_reach_the_parent_once(self):
        was_enabled = METRICS.enabled
        METRICS.reset()
        METRICS.enable()
        RUN.reset()
        try:
            assert map_shards("t", _count_event, [1, 2, 3], 2) == [1, 2, 3]
            # The absorbed snapshots carry the counter; folding the events
            # into RUN must not count it in METRICS a second time.
            assert RUN.events == {"shard.event": 6}
            assert METRICS.counters["shard.event"] == 6
        finally:
            RUN.reset()
            METRICS.reset()
            METRICS.enabled = was_enabled

    def test_worker_crash_falls_back_to_parent(self):
        # os._exit kills the worker mid-task: the pool breaks, is rebuilt
        # for the retries, and the shards ultimately compute in the parent.
        shards = [(v, os.getpid()) for v in range(2)]
        results = map_shards("t", _crash_in_workers, shards, 2, FAST_POLICY)
        assert results == [0, 1]

    def test_genuine_bug_propagates(self):
        # A function that fails everywhere (marker path is unwritable) must
        # surface its exception from the parent fallback, not vanish.
        shards = [(1, "/nonexistent-dir/marker")]
        with pytest.raises((ValueError, OSError)):
            map_shards("t", _fail_until_marked, shards, 2, FAST_POLICY)


class _FakeArtifact:
    """Minimal duck-typed artifact for run_compute routing tests."""

    name = "fake"

    def __init__(self, sharded):
        self.sharded = sharded
        self.compute_calls = 0

    def compute(self, _args):
        self.compute_calls += 1
        return "serial"


class _Contract:
    def __init__(self):
        self.prepare = lambda args: list(range(10))
        self.shards = lambda items, jobs: [
            items[start:stop]
            for start, stop in shard_ranges(len(items), jobs)
        ]
        self.compute_shard = sum
        self.merge = lambda partials, items: sum(partials)


class TestRunCompute:
    def test_serial_when_no_contract(self):
        fake = _FakeArtifact(sharded=None)
        args = argparse.Namespace(jobs=4)
        assert run_compute(fake, args) == "serial"
        assert fake.compute_calls == 1

    def test_serial_when_one_job(self):
        fake = _FakeArtifact(sharded=_Contract())
        assert run_compute(fake, argparse.Namespace(jobs=1)) == "serial"
        assert run_compute(fake, argparse.Namespace(jobs=None)) == "serial"
        assert fake.compute_calls == 2

    def test_sharded_path_merges_partials(self):
        fake = _FakeArtifact(sharded=_Contract())
        assert run_compute(fake, argparse.Namespace(jobs=3)) == sum(range(10))
        assert fake.compute_calls == 0

    def test_single_shard_skips_the_pool(self):
        fake = _FakeArtifact(sharded=_Contract())
        fake.sharded.shards = lambda items, jobs: [items]
        assert run_compute(fake, argparse.Namespace(jobs=4)) == sum(range(10))


def test_warm_pool_persists_and_reshapes():
    context = multiprocessing.get_context("fork")
    pool.shutdown()
    assert not pool.warm_pool_alive()

    first = pool.acquire(2, context)
    pool.release(first, 2, context)
    assert pool.warm_pool_alive()

    # Same shape: the exact executor comes back, workers and all.
    again = pool.acquire(2, context)
    assert again is first
    pool.release(again, 2, context)

    # Different worker count: not reusable, replaced by a fresh pool.
    reshaped = pool.acquire(3, context)
    assert reshaped is not first
    pool.discard(reshaped)
    assert not pool.warm_pool_alive()
    pool.shutdown()  # idempotent


class TestShardedManifest:
    def test_jobs_manifest_events_equal_serial(self, tmp_path):
        """A degraded sweep records the same events and counters whether
        it runs serially or on two workers; only the execution counters
        (``parallel.*``) differ."""
        def cold():
            TRACER.disable()
            TRACER.reset()
            METRICS.disable()
            METRICS.reset()

        manifests = []
        try:
            for jobs in ("1", "2"):
                cold()
                out = tmp_path / f"sweep-{jobs}.txt"
                assert main(["fork_threshold", "--rounds", "30", "--seed", "3",
                             "--trace", "--jobs", jobs, "--out", str(out)]) == 0
                with open(f"{out}.manifest.json", encoding="utf-8") as handle:
                    manifests.append(json.load(handle))
        finally:
            cold()
        serial, sharded = manifests
        assert serial["events"]["node.degraded_closes"] > 0
        assert sharded["events"] == serial["events"]

        def counters(manifest):
            return {name: count
                    for name, count in manifest["metrics"]["counters"].items()
                    if not name.startswith("parallel.")}

        assert counters(sharded) == counters(serial)
