"""Structured span tracing with deterministic ordering.

A *span* is one named, attributed, possibly-nested region of a run::

    from repro.obs.trace import span

    with span("fig3.compute", kind="phase", artifact="fig3"):
        ...

Spans are recorded in **start order** with monotonically increasing
sequence numbers, so a deterministic computation yields a deterministic
span sequence.  Timing is recorded on every span — it is what makes a
trace useful — but it is segregated into the ``VOLATILE_KEYS`` fields so
golden comparisons can strip it: :meth:`Tracer.lines` with
``strip_timing=True`` is byte-stable across runs of the same
computation.  ``wall_ts`` (wall clock at span start) is a pure transport
annotation for humans correlating traces with logs; ``start_s`` and
``duration_s`` come from the monotonic clock, offset from the tracer's
origin, so the deterministic view never depends on the wall clock.

Span *kinds* split the determinism contract:

* ``"phase"`` — logical lifecycle points emitted by parent-side
  orchestration code (the CLI, the artifact registry, ``dataset_for``).
  Phase spans are **execution-strategy independent**: a serial run and a
  ``--jobs 4`` run of the same artifact produce the identical
  :meth:`Tracer.rollup`.  The run manifest records this rollup.
* ``"detail"`` — everything else: engine internals, per-shard worker
  spans, retries.  Complete in the trace file, excluded from the
  deterministic rollup because they legitimately differ by strategy.

Worker processes carry their own tracer; the parallel engine ships each
worker's :meth:`Tracer.snapshot` back with its shard partial and the
parent :meth:`Tracer.absorb`\\ s them *in shard order* after the pool
drains — so a ``--jobs N`` trace is complete and deterministically
ordered even though shards finish in arbitrary order.

A span is also the one way to time a region: its duration goes to the
:data:`~repro.obs.metrics.METRICS` timer of the same name whenever
metrics are on, traced or not, so no site opens a separate timer.

With tracing and metrics both off a span costs two attribute checks and
returns a shared no-op context manager — nothing is allocated, nothing
recorded.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional

from repro.obs.metrics import METRICS

#: Span fields that are clock dependent and excluded from golden hashes.
VOLATILE_KEYS = ("wall_ts", "start_s", "duration_s")


class _NullSpan:
    """Shared no-op context manager returned while tracing and metrics are off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager for one live span; records on enter, seals on exit."""

    __slots__ = ("_tracer", "_record", "_t0")

    def __init__(self, tracer: "Tracer", record: Dict[str, Any]):
        self._tracer = tracer
        self._record = record

    def __enter__(self) -> Dict[str, Any]:
        self._t0 = time.perf_counter()
        return self._record

    def __exit__(self, *exc: object) -> bool:
        duration = time.perf_counter() - self._t0
        self._record["duration_s"] = duration
        METRICS.add_time(self._record["name"], duration)
        stack = self._tracer._stack
        if stack and stack[-1] == self._record["seq"]:
            stack.pop()
        return False


class Tracer:
    """Collects spans for one process; see the module docstring."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._next_seq = 0
        #: Monotonic origin for ``start_s`` offsets.
        self._origin = time.perf_counter()

    # Control ----------------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self._next_seq = 0
        self._origin = time.perf_counter()

    # Recording --------------------------------------------------------------------

    def span(self, name: str, kind: str = "detail", **attrs: Any):
        """Open a span; returns a context manager.

        While disabled, the region is still timed into :data:`METRICS`
        when metrics are on; with both off the span is a no-op.
        """
        if not self.enabled:
            return METRICS.timer(name) if METRICS.enabled else _NULL_SPAN
        seq = self._next_seq
        self._next_seq += 1
        record: Dict[str, Any] = {
            "seq": seq,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "kind": kind,
            "attrs": attrs,
            # Transport annotation only — never part of any golden view.
            "wall_ts": time.time(),
            # Monotonic offset from the tracer origin: orders spans on a
            # timeline without importing wall-clock nondeterminism.
            "start_s": time.perf_counter() - self._origin,
            "duration_s": None,
        }
        self.spans.append(record)
        self._stack.append(seq)
        return _SpanContext(self, record)

    # Merging ----------------------------------------------------------------------

    def snapshot(self) -> List[Dict[str, Any]]:
        """This process's spans, for shipping to an absorbing parent."""
        return [dict(record) for record in self.spans]

    def absorb(self, snapshot: Optional[List[Dict[str, Any]]]) -> None:
        """Append another process's spans, re-sequenced into this tracer.

        Relative order and nesting inside the snapshot are preserved;
        snapshot roots are re-parented under the currently open span (or
        become roots).  Call in a deterministic order — the parallel
        engine absorbs buffered worker snapshots in shard-index order —
        and the combined trace ordering is deterministic.
        """
        if not self.enabled or not snapshot:
            return
        base_parent = self._stack[-1] if self._stack else None
        remap: Dict[int, int] = {}
        for record in snapshot:
            if not isinstance(record, dict) or "name" not in record:
                continue
            seq = self._next_seq
            self._next_seq += 1
            remap[record.get("seq")] = seq
            parent = record.get("parent")
            self.spans.append(
                {
                    "seq": seq,
                    "parent": remap.get(parent, base_parent),
                    "name": record["name"],
                    "kind": record.get("kind", "detail"),
                    "attrs": dict(record.get("attrs", {})),
                    "wall_ts": record.get("wall_ts"),
                    # Worker offsets are from the *worker's* origin; they
                    # stay meaningful per process and volatile everywhere.
                    "start_s": record.get("start_s"),
                    "duration_s": record.get("duration_s"),
                }
            )

    # Reporting --------------------------------------------------------------------

    def rollup(self, kind: str = "phase") -> Dict[str, int]:
        """Span count per name for one kind, sorted by name.

        The ``"phase"`` rollup is the deterministic digest the run
        manifest records: identical for serial and ``--jobs N`` runs of
        the same artifact.
        """
        counts: Dict[str, int] = {}
        for record in self.spans:
            if record["kind"] == kind:
                counts[record["name"]] = counts.get(record["name"], 0) + 1
        return dict(sorted(counts.items()))

    def phase_seconds(self) -> Dict[str, float]:
        """Total wall seconds per phase-span name (informational only)."""
        seconds: Dict[str, float] = {}
        for record in self.spans:
            if record["kind"] == "phase" and record["duration_s"] is not None:
                seconds[record["name"]] = (
                    seconds.get(record["name"], 0.0) + record["duration_s"]
                )
        return {name: round(value, 6) for name, value in sorted(seconds.items())}

    def lines(self, strip_timing: bool = False) -> List[str]:
        """One sorted-keys JSON line per span, in deterministic order.

        With ``strip_timing`` the volatile wall-clock fields are dropped —
        this is the form golden tests hash.
        """
        out = []
        for record in self.spans:
            if strip_timing:
                record = {
                    key: value for key, value in record.items()
                    if key not in VOLATILE_KEYS
                }
            out.append(json.dumps(record, sort_keys=True))
        return out

    def write(self, path: str) -> int:
        """Atomically write the JSONL trace (with sha256 sidecar).

        Returns the number of spans written.
        """
        from repro.durability.atomic import atomic_write

        with atomic_write(
            path, manifest=True, records=len(self.spans), fmt="repro-trace/1"
        ) as handle:
            for line in self.lines():
                handle.write(line + "\n")
        return len(self.spans)


#: Process-wide tracer; ``REPRO_TRACE=1`` enables collection at import
#: (the CLI's ``--trace`` flag is the usual entry point).
TRACER = Tracer(enabled=os.environ.get("REPRO_TRACE", "") not in ("", "0"))


def span(name: str, kind: str = "detail", **attrs: Any):
    """Open a span on the process-wide :data:`TRACER`; see :meth:`Tracer.span`."""
    return TRACER.span(name, kind=kind, **attrs)
