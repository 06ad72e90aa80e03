"""Benchmark harness: machine-readable node- and pipeline-level timings.

Two scopes, matching how the system is consumed:

* **node** (:func:`bench_node`) — payment-engine and path-finder
  throughput on a dense star world: the per-payment hot path;
* **pipeline** (:func:`bench_pipeline`) — the end-to-end analysis chain
  the paper's figures ride on: synthetic generation → columnar ETL →
  Fig. 3 information gain.

Results are written as JSON with schema ``repro-bench/1``::

    {"schema": "repro-bench/1", "kind": "node", "config": {...},
     "baseline": {...}, "current": {...}, "speedup": {...}}

When the output file already exists with the same ``kind`` and
``config``, its ``baseline`` section is preserved and only ``current``
(and the derived ``speedup``) is replaced — committed files therefore
document before/after numbers across optimization work.  Metric naming
carries the direction: ``*_ops`` is throughput (higher is better,
speedup = current/baseline), ``*_s`` is wall-clock (lower is better,
speedup = baseline/current).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, Optional

SCHEMA = "repro-bench/1"

#: Default pipeline economy: big enough that the hot paths dominate,
#: small enough for a sub-minute smoke run.
PIPELINE_CONFIG: Dict[str, int] = {
    "seed": 20170652,
    "n_payments": 12_000,
    "n_users": 360,
    "n_gateways": 20,
    "n_market_makers": 120,
    "n_offers": 48_000,
}

NODE_CONFIG: Dict[str, int] = {"n_users": 200, "iterations": 2000}

#: Node-bench throughput metrics gated against the committed baseline.
GATED_NODE_METRICS = ("engine_submit_ops", "plan_payment_ops")

#: Allowed fractional drop below a baseline before the gate fails.
GATE_TOLERANCE = 0.10


def gate_payload(
    payload: Dict[str, object], tolerance: float = GATE_TOLERANCE
) -> list:
    """Regression failures for one bench payload (empty list = pass).

    Node throughput metrics must stay within ``tolerance`` of the file's
    baseline.  The pipeline's parallel-speedup ratio is gated **only when
    the host that produced the current numbers has more than one core**:
    on a 1-core container the worker pool is pure overhead and ~0.1x is
    the honest measurement, not a regression — gating it there would turn
    every CI run on a small runner into a false alarm, and *trusting* it
    there would let those misleading numbers become baseline truth.
    """
    baseline = payload.get("baseline") or {}
    current = payload.get("current") or {}
    cpu_count = payload.get("cpu_count") or 1
    kind = payload.get("kind")
    if kind == "node":
        keys = GATED_NODE_METRICS
    elif kind == "pipeline":
        keys = ("figure3_parallel_x",) if cpu_count > 1 else ()
    else:
        keys = ()
    failures = []
    for key in keys:
        then = baseline.get(key)
        now = current.get(key)
        if not isinstance(then, (int, float)) or not isinstance(now, (int, float)):
            continue
        floor = (1.0 - tolerance) * then
        if now < floor:
            failures.append(
                f"{key}: {now:g} below gate {floor:g} "
                f"(baseline {then:g}, tolerance {tolerance:.0%})"
            )
    return failures


def _speedups(
    baseline: Dict[str, float], current: Dict[str, float]
) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for key, now in current.items():
        then = baseline.get(key)
        if not isinstance(then, (int, float)) or not isinstance(now, (int, float)):
            continue
        if then <= 0 or now <= 0:
            continue
        if key.endswith("_ops"):
            out[key] = round(now / then, 4)
        elif key.endswith("_s"):
            out[key] = round(then / now, 4)
    return out


def write_result(
    path: Path, kind: str, config: Dict[str, int], current: Dict[str, float]
) -> Dict[str, object]:
    """Write (or update) a benchmark JSON file, keeping its baseline.

    The baseline is carried over only when the existing file measured the
    same ``kind`` with the same ``config`` — numbers from a different
    workload are not comparable and are discarded.
    """
    from repro.durability import atomic_write
    from repro.obs.metrics import METRICS

    path = Path(path)
    baseline: Dict[str, float] = dict(current)
    if path.exists():
        # A corrupt result file (truncated JSON, a crash mid-write before
        # writes were atomic, …) is a cold cache, never a crash: the
        # baseline restarts from the current numbers and the file is
        # rewritten whole below.  Only load failures degrade — anything
        # else (a logic error here) must still propagate.
        try:
            previous = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            previous = None
            METRICS.count("bench.history_load_failures")
            print(
                f"bench: discarding unreadable history {path}: {exc}",
                file=sys.stderr,
            )
        if (
            isinstance(previous, dict)
            and previous.get("kind") == kind
            and previous.get("config") == config
            and isinstance(previous.get("baseline"), dict)
        ):
            baseline = previous["baseline"]
    payload: Dict[str, object] = {
        "schema": SCHEMA,
        "kind": kind,
        "config": config,
        # The host that produced ``current``: regression gates use this to
        # skip parallel-speedup checks on single-core machines, where a
        # worker pool is pure overhead and 0.1x is the honest number.
        "cpu_count": os.cpu_count() or 1,
        "baseline": baseline,
        "current": current,
        "speedup": _speedups(baseline, current),
    }
    with atomic_write(str(path)) as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


# Node-level --------------------------------------------------------------------


def bench_node(
    n_users: int = NODE_CONFIG["n_users"],
    iterations: int = NODE_CONFIG["iterations"],
) -> Dict[str, float]:
    """Engine-submit and plan-payment throughput on a star world.

    Every user holds USD at one gateway, so every payment routes
    user → gateway → user: two hops through the single hub the BFS must
    expand — the worst case for successor recomputation and exactly what
    the incremental trust-graph index accelerates.
    """
    from repro.ledger.accounts import account_from_name
    from repro.ledger.amounts import Amount
    from repro.ledger.currency import USD
    from repro.ledger.state import LedgerState
    from repro.payments.engine import PaymentEngine
    from repro.payments.graph import TrustGraph
    from repro.payments.pathfinding import plan_payment

    state = LedgerState()
    gateway = account_from_name("bench-gateway", namespace="bench-node")
    state.create_account(gateway, 10**12)
    users = []
    for index in range(n_users):
        account = account_from_name(f"bench-user-{index}", namespace="bench-node")
        state.create_account(account, 10**10)
        state.set_trust(account, gateway, Amount.from_value(USD, 10**7))
        state.apply_hop(gateway, account, Amount.from_value(USD, 10**5))
        users.append(account)

    engine = PaymentEngine(state)
    # The batch entry point is what the replay loops use; building the
    # request tuples is enqueue work, not submit work, so it stays outside
    # the timed region.
    batch = [
        (
            users[i % n_users],
            users[(i + 7) % n_users],
            Amount.from_value(USD, 3),
        )
        for i in range(iterations)
    ]
    start = time.perf_counter()
    results = engine.submit_batch(batch)
    submit_ops = iterations / (time.perf_counter() - start)
    for result in results:
        if not result.success:  # pragma: no cover - world is always liquid
            raise RuntimeError(f"bench payment failed: {result.error}")

    graph = TrustGraph(state, USD)
    start = time.perf_counter()
    for i in range(iterations):
        plan_payment(graph, users[i % n_users], users[(i + 13) % n_users], 3.0)
    plan_ops = iterations / (time.perf_counter() - start)

    return {
        "engine_submit_ops": round(submit_ops, 2),
        "plan_payment_ops": round(plan_ops, 2),
    }


# Pipeline-level ----------------------------------------------------------------


def bench_pipeline(
    config: Optional[Dict[str, int]] = None,
    jobs: int = 4,
) -> Dict[str, float]:
    """Generation → ETL → Fig. 3 wall-clock on a reduced economy.

    Fig. 3 is measured twice — serial and sharded across ``jobs`` worker
    processes via the same map/reduce contract the CLI's ``--jobs`` flag
    uses — and the results are asserted identical before timings are
    reported.  ``figure3_parallel_x`` is the recorded serial/parallel
    speedup (>1 means sharding won; expect ~1 or below on a single-core
    host, where the worker pool is pure overhead).
    """
    from repro.analysis.dataset import TransactionDataset
    from repro.api.artifacts import dataset_shards
    from repro.core.deanonymizer import (
        Deanonymizer,
        figure3_shard_partial,
        merge_figure3_partials,
    )
    from repro.parallel.engine import effective_jobs, map_shards
    from repro.synthetic.config import EconomyConfig
    from repro.synthetic.generator import LedgerHistoryGenerator

    economy = EconomyConfig(**(config or PIPELINE_CONFIG))

    start = time.perf_counter()
    history = LedgerHistoryGenerator(economy).generate()
    generation_s = time.perf_counter() - start

    start = time.perf_counter()
    dataset = TransactionDataset.from_records(history.records)
    etl_s = time.perf_counter() - start

    start = time.perf_counter()
    gains = Deanonymizer(dataset).figure3()
    fig3_s = time.perf_counter() - start

    jobs = effective_jobs(jobs=jobs)

    def parallel_fig3() -> tuple:
        """One production-path sharded run: slice -> map -> merge."""
        start = time.perf_counter()
        shards = dataset_shards(dataset, jobs)
        partials = map_shards("fig3", figure3_shard_partial, shards, jobs)
        merged = merge_figure3_partials(partials)
        return merged, time.perf_counter() - start

    # Cold first: pays the pool spawn.  Warm second: what every artifact
    # after the first sees in a run — the number the speedup gate
    # reasons about.
    merged, fig3_cold_s = parallel_fig3()
    merged_warm, fig3_parallel_s = parallel_fig3()
    if merged_warm != merged:  # pragma: no cover - determinism guard
        raise RuntimeError("warm sharded fig3 diverged from cold run")
    if merged != gains:  # pragma: no cover - determinism regression guard
        raise RuntimeError("sharded fig3 diverged from the serial result")

    return {
        "generation_s": round(generation_s, 4),
        "etl_s": round(etl_s, 5),
        "figure3_s": round(fig3_s, 5),
        "figure3_parallel_cold_s": round(fig3_cold_s, 5),
        "figure3_parallel_s": round(fig3_parallel_s, 5),
        "figure3_parallel_x": round(fig3_s / fig3_parallel_s, 4),
        "parallel_jobs": jobs,
        "rows": len(dataset),
        "failed_payments": history.failed_payments,
        "fig3_first_identified": gains[0].identified,
    }


def run_node(out_path: Path) -> Dict[str, object]:
    return write_result(out_path, "node", dict(NODE_CONFIG), bench_node())


def run_pipeline(out_path: Path, jobs: int = 4) -> Dict[str, object]:
    return write_result(
        out_path, "pipeline", dict(PIPELINE_CONFIG), bench_pipeline(jobs=jobs)
    )
