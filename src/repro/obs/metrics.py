"""The unified metrics registry: counters, gauges, timers, histograms.

One process-wide :data:`METRICS` registry holds every counter, gauge,
timer and histogram a run records: the hot-path counters, the node's
degradation events, the parallel per-shard timers and the durability
ingest tallies.  Timed regions reach it through
:func:`repro.obs.trace.span`, which adds each span's duration to the
timer of the same name.

Design constraints:

* **disabled by default** — every method is a no-op behind one attribute
  check while ``enabled`` is False, so instrumentation never taxes the
  hot paths it observes;
* **absorbable** — :meth:`MetricsRegistry.absorb` merges a worker
  process's :meth:`~MetricsRegistry.snapshot` into the parent, keeping
  ``--jobs N`` reports shaped like serial ones.

The registry renders as Prometheus-style text
(:meth:`MetricsRegistry.to_prom`) or JSON (:meth:`MetricsRegistry.to_json`),
surfaced by ``python -m repro metrics --format prom|json``.

Enable with ``REPRO_PROFILE=1`` or the CLI's ``--profile`` flag; the CLI
prints :meth:`MetricsRegistry.report` to stderr when profiling was
requested.
"""

from __future__ import annotations

import json
import os
import re
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List


def _format_value(value: float) -> str:
    """Deterministic numeric formatting for the text exposition."""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def prom_name(name: str, suffix: str = "") -> str:
    """A metric name as Prometheus accepts it: ``repro_`` + [a-zA-Z0-9_:]."""
    return "repro_" + _INVALID_CHARS.sub("_", name) + suffix


class MetricsRegistry:
    """Accumulates named counters, gauges, wall timers, and histograms.

    Counters are plain integer sums; gauges hold the last value set;
    timers accumulate total seconds and call counts; histograms track
    count/sum/min/max of observed values.  All recording methods are
    no-ops while ``enabled`` is False.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        #: name -> [total_seconds, calls]
        self._timers: Dict[str, List[float]] = {}
        #: name -> [count, sum, min, max]
        self._histograms: Dict[str, List[float]] = {}

    # Control ----------------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self._timers.clear()
        self._histograms.clear()

    # Recording --------------------------------------------------------------------

    def count(self, name: str, delta: int = 1) -> None:
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        slot = self._histograms.get(name)
        if slot is None:
            self._histograms[name] = [1, value, value, value]
        else:
            slot[0] += 1
            slot[1] += value
            slot[2] = min(slot[2], value)
            slot[3] = max(slot[3], value)

    def add_time(self, name: str, seconds: float) -> None:
        if not self.enabled:
            return
        slot = self._timers.get(name)
        if slot is None:
            self._timers[name] = [seconds, 1]
        else:
            slot[0] += seconds
            slot[1] += 1

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time a block; free (single boolean check) when disabled."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    def absorb(self, snapshot: Dict[str, object]) -> None:
        """Merge a :meth:`snapshot` from another process into this registry.

        The parallel engine ships each worker's snapshot back with its
        shard partial; absorbing them keeps ``--profile --jobs 4`` reports
        shaped like the serial ones.  Counter sums, timer totals/calls and
        histogram count/sum accumulate; histogram min/max widen; gauges
        take the absorbed value (last write wins).
        """
        if not self.enabled or not isinstance(snapshot, dict):
            return
        for name, delta in snapshot.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + int(delta)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauges[name] = float(value)
        for name, info in snapshot.get("timers", {}).items():
            slot = self._timers.get(name)
            if slot is None:
                slot = self._timers[name] = [0.0, 0]
            slot[0] += float(info["seconds"])
            slot[1] += int(info["calls"])
        for name, info in snapshot.get("histograms", {}).items():
            slot = self._histograms.get(name)
            if slot is None:
                self._histograms[name] = [
                    int(info["count"]), float(info["sum"]),
                    float(info["min"]), float(info["max"]),
                ]
            else:
                slot[0] += int(info["count"])
                slot[1] += float(info["sum"])
                slot[2] = min(slot[2], float(info["min"]))
                slot[3] = max(slot[3], float(info["max"]))

    # Reporting --------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Machine-readable dump of everything recorded so far."""
        snap: Dict[str, object] = {
            "counters": dict(self.counters),
            "timers": {
                name: {
                    "seconds": total,
                    "calls": int(calls),
                    "per_call": total / calls if calls else 0.0,
                }
                for name, (total, calls) in self._timers.items()
            },
        }
        if self.gauges:
            snap["gauges"] = dict(self.gauges)
        if self._histograms:
            snap["histograms"] = {
                name: {
                    "count": int(count), "sum": total,
                    "min": low, "max": high,
                }
                for name, (count, total, low, high) in self._histograms.items()
            }
        return snap

    def report(self) -> str:
        """Human-readable table, one line per metric."""
        lines = ["-- metrics report --"]
        for name in sorted(self._timers):
            total, calls = self._timers[name]
            per_call = total / calls if calls else 0.0
            lines.append(
                f"  {name:32s} {total:10.4f} s  {int(calls):>9d} calls"
                f"  {per_call * 1e6:12.2f} us/call"
            )
        for name in sorted(self.counters):
            lines.append(f"  {name:32s} {self.counters[name]:>12d}")
        for name in sorted(self.gauges):
            lines.append(f"  {name:32s} {self.gauges[name]:>12g}")
        for name in sorted(self._histograms):
            count, total, low, high = self._histograms[name]
            lines.append(
                f"  {name:32s} n={int(count)} sum={total:g} "
                f"min={low:g} max={high:g}"
            )
        if len(lines) == 1:
            lines.append("  (nothing recorded)")
        return "\n".join(lines)

    def to_json(self) -> str:
        """The snapshot as deterministic (sorted-keys) JSON."""
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)

    def to_prom(self) -> str:
        """Prometheus text exposition of everything recorded.

        Counters become ``repro_<name>_total``; timers and histograms
        become summaries (``_count``/``_sum``, histograms additionally
        ``_min``/``_max`` gauges); gauges pass through.  Names are
        sanitized (``.`` and other invalid characters to ``_``) and
        emitted in sorted order, so the exposition is deterministic for a
        deterministic run.
        """
        lines: List[str] = []
        for name in sorted(self.counters):
            metric = prom_name(name, "_total")
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_format_value(self.counters[name])}")
        for name in sorted(self.gauges):
            metric = prom_name(name)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_format_value(self.gauges[name])}")
        for name in sorted(self._timers):
            total, calls = self._timers[name]
            metric = prom_name(name, "_seconds")
            lines.append(f"# TYPE {metric} summary")
            lines.append(f"{metric}_count {_format_value(int(calls))}")
            lines.append(f"{metric}_sum {_format_value(total)}")
        for name in sorted(self._histograms):
            count, total, low, high = self._histograms[name]
            metric = prom_name(name)
            lines.append(f"# TYPE {metric} summary")
            lines.append(f"{metric}_count {_format_value(int(count))}")
            lines.append(f"{metric}_sum {_format_value(total)}")
            lines.append(f"{metric}_min {_format_value(low)}")
            lines.append(f"{metric}_max {_format_value(high)}")
        return "\n".join(lines) + ("\n" if lines else "")


#: Process-wide registry; ``REPRO_PROFILE=1`` enables it at import.
METRICS = MetricsRegistry(
    enabled=os.environ.get("REPRO_PROFILE", "") not in ("", "0")
)
