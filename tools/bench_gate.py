"""Throughput regression gate — the CI benchmark check.

Runs (or is handed) a fresh node benchmark and fails if either gated
metric (``engine_submit_ops``, ``plan_payment_ops``) drops more than the
tolerance below its reference.  The reference resolves in two steps:

1. **durable history** (``--history``, a JSONL file kept in the CI bench
   cache): once at least ``--history-min`` prior entries exist, the
   reference is the *median* of the most recent ``--history-window``
   runs.  CI runners differ in absolute speed; comparing against the
   median of recent same-pool runs makes a 10% gate meaningful instead
   of flaky.
2. **committed baseline** (``--committed BENCH_node.json``): while the
   history is still cold, the gate falls back to the committed file's
   ``current`` numbers, *scaled* by ``--committed-scale`` (default 0.5)
   — the committed numbers come from a developer machine whose absolute
   speed a CI runner cannot be held to; the scaled floor still catches
   order-of-magnitude regressions (an accidentally quadratic hot path)
   on day one.

Every invocation appends the fresh numbers to the history, so the gate
sharpens itself as the cache warms.  Exit code 0 = pass, 1 = regression,
2 = usage/IO error.

Only ``node`` payloads (``repro bench-node``) are gated; a payload of
any other kind passes, as :func:`repro.bench.gate_payload` gates nothing
in it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.bench import GATED_NODE_METRICS, GATE_TOLERANCE, gate_payload


def load_payload(path: Path) -> Dict[str, object]:
    payload = json.loads(path.read_text())
    if not isinstance(payload, dict) or "current" not in payload:
        raise ValueError(f"{path} is not a repro-bench payload")
    return payload


def read_history(path: Path) -> List[Dict[str, float]]:
    """Prior runs from the durable history JSONL (corrupt lines skipped)."""
    entries: List[Dict[str, float]] = []
    if not path.exists():
        return entries
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(entry, dict):
            entries.append(entry)
    return entries


def append_history(path: Path, current: Dict[str, float]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as handle:
        handle.write(json.dumps(current, sort_keys=True) + "\n")


def resolve_references(
    history: List[Dict[str, float]],
    committed: Optional[Dict[str, object]],
    history_min: int,
    history_window: int,
    committed_scale: float,
) -> Dict[str, Dict[str, float]]:
    """metric -> {"value": floor-reference, "source": where it came from}."""
    references: Dict[str, Dict[str, float]] = {}
    for metric in GATED_NODE_METRICS:
        samples = [
            entry[metric]
            for entry in history[-history_window:]
            if isinstance(entry.get(metric), (int, float))
        ]
        if len(samples) >= history_min:
            references[metric] = {
                "value": statistics.median(samples),
                "source": f"history median of {len(samples)} runs",
            }
            continue
        committed_current = (committed or {}).get("current") or {}
        value = committed_current.get(metric)
        if isinstance(value, (int, float)):
            references[metric] = {
                "value": value * committed_scale,
                "source": f"committed baseline x{committed_scale:g}",
            }
    return references


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("result", type=Path, help="fresh bench JSON to gate")
    parser.add_argument(
        "--committed", type=Path, default=None,
        help="committed baseline JSON (e.g. BENCH_node.json)",
    )
    parser.add_argument(
        "--history", type=Path, default=None,
        help="durable JSONL history (CI bench cache); appended to on success"
        " and failure alike",
    )
    parser.add_argument(
        "--tolerance", type=float, default=GATE_TOLERANCE,
        help="allowed fractional drop below the reference (default %(default)s)",
    )
    parser.add_argument("--history-min", type=int, default=3)
    parser.add_argument("--history-window", type=int, default=10)
    parser.add_argument(
        "--committed-scale", type=float, default=0.5,
        help="fraction of the committed numbers a cold-history runner is"
        " held to (default %(default)s)",
    )
    args = parser.parse_args(argv)

    try:
        payload = load_payload(args.result)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"bench-gate: cannot read result: {exc}", file=sys.stderr)
        return 2

    failures = list(gate_payload(payload, args.tolerance))

    current = payload.get("current") or {}
    if payload.get("kind") == "node":
        committed = None
        if args.committed is not None:
            try:
                committed = load_payload(args.committed)
            except (OSError, ValueError, json.JSONDecodeError) as exc:
                print(
                    f"bench-gate: cannot read committed baseline: {exc}",
                    file=sys.stderr,
                )
                return 2
        history = read_history(args.history) if args.history else []
        references = resolve_references(
            history, committed, args.history_min,
            args.history_window, args.committed_scale,
        )
        for metric, reference in sorted(references.items()):
            now = current.get(metric)
            if not isinstance(now, (int, float)):
                failures.append(f"{metric}: missing from fresh result")
                continue
            floor = (1.0 - args.tolerance) * reference["value"]
            verdict = "ok" if now >= floor else "FAILED"
            print(
                f"bench-gate: {metric} {now:g} vs floor {floor:g} "
                f"[{reference['source']}] {verdict}"
            )
            if now < floor:
                failures.append(
                    f"{metric}: {now:g} below gate {floor:g} "
                    f"({reference['source']}, tolerance {args.tolerance:.0%})"
                )
        if args.history:
            append_history(args.history, {
                key: value for key, value in current.items()
                if isinstance(value, (int, float))
            })

    if failures:
        for failure in failures:
            print(f"bench-gate: FAILED: {failure}", file=sys.stderr)
        return 1
    print("bench-gate: pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
