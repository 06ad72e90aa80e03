"""The repo's benchmark: two closed-loop workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload batch --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures half the time untraced, then replays the same ops
with the layer wrappers recording spans, and reports per-layer self time
and call counts per op plus the tracing overhead.  Human-readable lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload in its own process and prints each one's lines.
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3

#: Artifacts whose compute time is reported per artifact.
ARTIFACT_NAMES = (
    "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "table2",
    "health", "cascade", "fork_threshold",
)

#: Layers measured as spans: self time and calls, per op.
SPAN_LAYERS = (
    "synthetic.generate",
    "ledger.apply_hop", "ledger.place_offer", "ledger.set_trust",
    "ledger.snapshot",
    "payments.submit", "payments.plan_payment", "payments.forced_plan",
    "analysis.etl", "analysis.table2_replay", "analysis.replay_with_state",
    "analysis.settlability",
    "core.figure3",
    "consensus.run_period",
    "chaos.simulate_cascade",
    "parallel.map",
    *(f"api.compute.{name}" for name in ARTIFACT_NAMES),
    "api.render",
    "serve.decode", "serve.encode", "obs.fingerprint",
    "serve.store.get", "serve.store.put", "serve.compute",
    "online.wal.append", "online.state.absorb", "online.snapshot.seal",
    "online.status", "online.wal.recover", "online.snapshot.latest_verified",
)

#: Pure work counts per op: name -> (source, key).
COUNT_LAYERS = {
    "ledger.amount.constructions": ("recorder", "ledger.amount.constructions"),
    "payments.bfs_runs": ("metrics", "pathfinding.bfs_runs"),
    "consensus.rounds": ("metrics", "consensus.rounds"),
    "shm.bytes": ("metrics", "shm.bytes"),
    "serve.singleflight.shared": ("metrics", "serve.singleflight.shared"),
    "online.replayed": ("metrics", "online.replayed"),
}

def calibrate() -> float:
    """A fixed pure-Python loop, median of five, in ms (host speed)."""
    samples = []
    for _ in range(5):
        began = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value % 7
        samples.append(1000.0 * (time.perf_counter() - began))
    samples.sort()
    return samples[2]


def layer_metrics(
    summary: Dict, ops: int, setup_timers: Dict, calib_ms: float,
    overhead_pct: float,
) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric from one traced phase of ``ops`` ops."""
    spans = summary["spans"]
    counters = summary["metrics"]["counters"]
    timers = summary["metrics"]["timers"]
    out: Dict[str, Dict[str, object]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    for layer in SPAN_LAYERS:
        span = spans.get(layer, {"self_s": 0.0, "calls": 0})
        put(f"{layer}.ms", 1000.0 * span["self_s"] / ops, "ms/op")
        put(f"{layer}.calls", span["calls"] / ops, "calls/op")
    for layer, (source, key) in COUNT_LAYERS.items():
        table = summary["counts"] if source == "recorder" else counters
        put(layer, table.get(key, 0) / ops, "B/op" if layer == "shm.bytes"
            else "count/op")
    # The engine's own timers give prepare and merge (totals, including
    # the layers they call); map is the span around ``map_shards``.
    for layer in ("prepare", "merge"):
        seconds, calls = 0.0, 0
        for name in ARTIFACT_NAMES:
            timer = timers.get(f"parallel.{name}.{layer}")
            if timer:
                seconds += timer["seconds"]
                calls += timer["calls"]
        put(f"parallel.{layer}.ms", 1000.0 * seconds / ops, "ms/op")
        put(f"parallel.{layer}.calls", calls / ops, "calls/op")
    spawn = setup_timers.get("parallel.pool.spawn", {"seconds": 0.0, "calls": 0})
    put(
        "parallel.pool.spawn.ms",
        1000.0 * spawn["seconds"] / spawn["calls"] if spawn["calls"] else 0.0,
        "ms",
    )
    put("parallel.pool.spawn.calls", spawn["calls"], "count")
    put("host.calib_ms", calib_ms, "ms")
    put("trace.overhead_pct", overhead_pct, "%")
    return out


def run_workload(args) -> int:
    sys.path.insert(0, SRC)
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, bool(args.trace))
    os.makedirs(workloads.OUT, exist_ok=True)
    spans_path = os.path.join(
        workloads.OUT, f"spans-{args.workload}-seed{args.seed}.npz"
    )
    for part in wl.serve_parts():
        part.spans_path = spans_path.replace(".npz", "-daemon.npz")
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} size={args.size}")
    try:
        calib_start = calibrate()
        setup_timers: Dict = {}
        if args.trace:
            import tracing
            from repro.obs.metrics import METRICS

            wl.recorder = tracing.Recorder()
            tracing.install(wl.recorder)
            METRICS.enable()
            before = METRICS.snapshot()
        began = time.perf_counter()
        wl.make_inputs()
        inputs_s = time.perf_counter() - began
        setup_times: List[float] = []
        for rep in range(SETUP_REPS):
            began = time.perf_counter()
            wl.setup_step(rep, SETUP_REPS)
            setup_times.append(time.perf_counter() - began)
        began = time.perf_counter()
        wl.prepare()
        prepare_s = time.perf_counter() - began
        if args.trace:
            setup_timers = workloads.metrics_delta(
                before, METRICS.snapshot()
            )["timers"]
            METRICS.disable()
        seconds = args.seconds / 2 if args.trace else args.seconds
        first = wl.measure(seconds, count=args.ops)
        phases = [first]
        if args.trace:
            wl.between_phases()
            wl.start_trace()
            second = wl.measure(seconds, count=first.attempted, phase=1)
            summary = wl.stop_trace(spans_path)
            phases.append(second)
            for index, digest in second.digests.items():
                if first.digests.get(index, digest) != digest:
                    workloads.fail(f"op {index}: traced digest differs")
                    second.ok[index] = False
        calib_end = calibrate()
        peak_rss = wl.peak_rss_mb()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return 1
    finally:
        wl.close()

    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    setup_s = workloads.median(setup_times)
    print(f"  host.calib_ms         start {calib_start:.2f}  end {calib_end:.2f}")
    print(f"  setup_s               {setup_s:.4f} s  (median of "
        f"{SETUP_REPS}: {', '.join(f'{t:.3f}' for t in setup_times)})")
    print(f"  inputs_s              {inputs_s:.4f} s  (seeded inputs, once)")
    print(f"  prepare_s             {prepare_s:.4f} s  (references and warm-up)")
    for label, phase in zip(("untraced", "traced"), phases):
        for name, value, unit, n in wl.named_metrics(phase):
            print(f"  {name:21s} {value:.4f} {unit}  (n={n}, {label})")
        print(f"  {'op_ms':21s} {wl.op_ms(phase):.4f} ms  "
            f"(median, n={phase.attempted}, {label})")
        print(f"  {'work_per_s':21s} {wl.work_per_s(phase):.4f} 1/s  "
            f"({wl.unit} per second, {phase.elapsed:.2f} s, {label})")
        if len(phase.latencies) <= 100:
            print("  op latencies ms       " + " ".join(
                f"{1000.0 * t:.1f}" for t in phase.latencies))
    print(f"  peak_rss_mb           {peak_rss:.2f} MB")
    print(f"  ops                   attempted {attempted}  failed {failed}")
    if args.trace:
        overhead = sum(phases[1].latencies) / sum(phases[0].latencies)
        metrics = layer_metrics(
            summary, max(1, phases[1].attempted), setup_timers,
            (calib_start + calib_end) / 2, 100.0 * (overhead - 1.0),
        )
        print(f"  trace.overhead_pct    {100.0 * (overhead - 1.0):.2f} %  "
            f"(traced vs untraced, same ops)")
        print("  layer self time per op (traced phase):")
        rows = sorted(
            (name for name in metrics if name.endswith(".ms")),
            key=lambda name: -metrics[name]["value"],
        )
        for name in rows:
            calls = metrics.get(name[:-3] + ".calls", {}).get("value", "")
            print(f"    {name:40s} {metrics[name]['value']:12.4f} "
                f"{metrics[name]['unit']:6s} calls/op {calls}")
        for name in COUNT_LAYERS:
            print(f"    {name:40s} {metrics[name]['value']:12.2f} "
                f"{metrics[name]['unit']}")
        print(f"  spans written to {spans_path}")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_ms": {"value": wl.op_ms(first), "unit": "ms"},
            "work_per_s": {"value": wl.work_per_s(first), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process; their lines, then one summary."""
    results = {}
    status = 0
    for name in ("batch", "live"):
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
        ]
        if args.ops is not None:
            command += ["--ops", str(args.ops)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"perfbench {name}: exit {done.returncode}", file=sys.stderr)
            status = 1
            continue
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results), flush=True)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("batch", "live", "all"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input sizes; tiny is for the benchmark's own tests",
    )
    parser.add_argument(
        "--ops", type=int, default=None,
        help="run exactly this many ops per phase instead of --seconds",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # SIGTERM unwinds like an exception, so the daemon and the warm pool
    # are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
