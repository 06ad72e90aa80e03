"""Span recording for the traced benchmark run.

The benchmark traces the program from the outside: :func:`install`
replaces each layer's public function with a wrapper that records one
span (name, start, end, parent) per call.  Modules import names
directly, so a function is patched at every module that looks it up,
not only where it is defined.  While the recorder is disabled a wrapper
costs one attribute check.

Spans live in per-thread append-only arrays (the serve daemon handles
each request on its own thread) and are written once, at the end of the
run.  A layer's self time is its span time minus the time of its direct
child spans.  Forked worker processes stop recording: the warm pool
forks from a traced parent, and nothing a child records would reach it.
"""

from __future__ import annotations

import copy
import functools
import json
import os
import threading
import time
import types
from array import array
from typing import Callable, Dict, List, Tuple, Union

import numpy as np

Name = Union[str, Callable[[tuple, object], str]]


class _Buffer:
    """One thread's spans, in call-start order, plus its plain counts."""

    def __init__(self) -> None:
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: List[int] = []
        self.counts: Dict[str, int] = {}


class Recorder:
    """Collects spans from the installed wrappers while enabled."""

    def __init__(self) -> None:
        self.enabled = False
        self._names: Dict[str, int] = {}
        self._name_list: List[str] = []
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._wrappers: Dict[int, Callable] = {}
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        with self._lock:
            self._buffers = []
            self._local = threading.local()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _name_id(self, name: str) -> int:
        found = self._names.get(name)
        if found is None:
            with self._lock:
                found = self._names.setdefault(name, len(self._name_list))
                if found == len(self._name_list):
                    self._name_list.append(name)
        return found

    # Wrappers -------------------------------------------------------------

    def traced(self, fn: Callable, name: Name) -> Callable:
        """``fn`` wrapped to record one span per call.

        ``name`` is a string, or a callable of ``(args, result)`` that
        names the span once the call returns (``result`` is None when it
        raised).
        """
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        recorder = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            buf = recorder._buffer()
            index = len(buf.starts)
            buf.names.append(-1)
            buf.parents.append(buf.stack[-1] if buf.stack else -1)
            buf.starts.append(0.0)
            buf.ends.append(0.0)
            buf.stack.append(index)
            result = None
            buf.starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                buf.ends[index] = clock()
                buf.stack.pop()
                label = name if isinstance(name, str) else name(args, result)
                buf.names[index] = recorder._name_id(label)

        self._wrappers[key] = wrapper
        self._wrappers[id(wrapper)] = wrapper
        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        """``fn`` wrapped to count its calls under ``name`` (no span)."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if recorder.enabled:
                counts = recorder._buffer().counts
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, name: Name) -> None:
        """Replace ``owner.attr`` (function, method or classmethod)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.traced(raw.__func__, name)))
        else:
            setattr(owner, attr, self.traced(raw, name))

    # Results --------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Per span name: total seconds, self seconds and calls; counts."""
        totals: Dict[str, List[float]] = {}
        counts: Dict[str, int] = {}
        for names, parents, duration in self._arrays():
            if len(names) == 0:
                continue
            # Spans still open (name -1) carry no end time: drop them
            # and their children's share.
            done = names >= 0
            has_parent = (parents >= 0) & done
            child = np.bincount(
                parents[has_parent], weights=duration[has_parent],
                minlength=len(names),
            )
            own = (duration - child)[done]
            names, duration = names[done], duration[done]
            width = len(self._name_list)
            total_by = np.bincount(names, weights=duration, minlength=width)
            self_by = np.bincount(names, weights=own, minlength=width)
            calls_by = np.bincount(names, minlength=width)
            for name_id in np.nonzero(calls_by)[0]:
                slot = totals.setdefault(self._name_list[name_id], [0.0, 0.0, 0])
                slot[0] += float(total_by[name_id])
                slot[1] += float(self_by[name_id])
                slot[2] += int(calls_by[name_id])
        for buf in self._buffers:
            for name, value in buf.counts.items():
                counts[name] = counts.get(name, 0) + value
        return {
            "spans": {
                name: {"total_s": t, "self_s": s, "calls": c}
                for name, (t, s, c) in sorted(totals.items())
            },
            "counts": counts,
        }

    def _arrays(self) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        out = []
        for buf in list(self._buffers):
            names = np.frombuffer(buf.names, dtype=np.int32)
            parents = np.frombuffer(buf.parents, dtype=np.int32)
            duration = np.frombuffer(buf.ends, dtype=np.float64) - np.frombuffer(
                buf.starts, dtype=np.float64
            )
            out.append((names, parents, duration))
        return out

    def write(self, path: str) -> None:
        """Write every recorded span once: one ``.npz`` of flat arrays."""
        names, parents, starts, ends, threads = [], [], [], [], []
        offset = 0
        for thread, buf in enumerate(list(self._buffers)):
            count = len(buf.names)
            parent = np.frombuffer(buf.parents, dtype=np.int32)
            names.append(np.frombuffer(buf.names, dtype=np.int32))
            parents.append(np.where(parent >= 0, parent + offset, -1))
            starts.append(np.frombuffer(buf.starts, dtype=np.float64))
            ends.append(np.frombuffer(buf.ends, dtype=np.float64))
            threads.append(np.full(count, thread, dtype=np.int32))
            offset += count

        def joined(parts, dtype):
            return np.concatenate(parts) if parts else np.zeros(0, dtype)

        np.savez(
            path,
            name_table=np.array(json.dumps(self._name_list)),
            name=joined(names, np.int32),
            parent=joined(parents, np.int32),
            start=joined(starts, np.float64),
            end=joined(ends, np.float64),
            thread=joined(threads, np.int32),
        )


# Where each layer is looked up ---------------------------------------------


def _compute_name(args, _result) -> str:
    return f"api.compute.{args[0].name}"


def _request_name(_args, result) -> str:
    if isinstance(result, dict) and result.get("cache") == "miss":
        return "serve.compute"
    return "serve.handle"


def _snapshot_name(args, _result) -> str:
    from repro.ledger.state import LedgerState

    return "ledger.snapshot" if isinstance(args[0], LedgerState) else (
        "copy.deepcopy"
    )


def install(recorder: Recorder) -> None:
    """Patch every traced layer; the recorder starts disabled."""
    import repro.analysis.health as health
    import repro.analysis.market_makers as market_makers
    import repro.api.artifacts as artifacts
    import repro.chaos.cascade as cascade
    import repro.chaos.report  # noqa: F401  (registers fork_threshold)
    import repro.core.robustness as robustness
    import repro.online.pipeline as pipeline
    import repro.parallel.engine as parallel_engine
    import repro.payments.engine as engine
    import repro.payments.pathfinding as pathfinding
    import repro.serve.daemon as daemon
    import repro.synthetic.generator as generator
    from repro.analysis.dataset import TransactionDataset
    from repro.api.registry import Artifact
    from repro.core.deanonymizer import Deanonymizer
    from repro.ledger.amounts import Amount
    from repro.ledger.state import LedgerState
    from repro.online.snapshots import SnapshotStore
    from repro.online.state import OnlineState
    from repro.online.wal import WriteAheadLog
    from repro.serve.store import ResultStore

    patch = recorder.patch
    patch(generator.LedgerHistoryGenerator, "generate", "synthetic.generate")
    for method in ("apply_hop", "place_offer", "set_trust"):
        patch(LedgerState, method, f"ledger.{method}")
    Amount.__post_init__ = recorder.counted(
        Amount.__dict__["__post_init__"], "ledger.amount.constructions"
    )
    snapshot = types.ModuleType("copy")
    snapshot.__dict__.update(vars(copy))
    snapshot.deepcopy = recorder.traced(copy.deepcopy, _snapshot_name)
    for module in (generator, market_makers, cascade):
        module.copy = snapshot
    patch(engine.PaymentEngine, "submit", "payments.submit")
    for module in (engine, pathfinding, health):
        patch(module, "plan_payment", "payments.plan_payment")
    for module in (engine, pathfinding):
        patch(module, "forced_plan", "payments.forced_plan")
    patch(TransactionDataset, "from_records", "analysis.etl")
    for module in (market_makers, artifacts):
        patch(module, "replay_outcomes", "analysis.table2_replay")
    for module in (market_makers, cascade):
        patch(module, "replay_with_state", "analysis.replay_with_state")
    for module in (health, artifacts, cascade):
        patch(module, "settlability_outcomes", "analysis.settlability")
    patch(Deanonymizer, "figure3", "core.figure3")
    for module in (robustness, artifacts):
        patch(module, "run_period", "consensus.run_period")
    patch(cascade, "simulate_cascade", "chaos.simulate_cascade")
    patch(parallel_engine, "map_shards", "parallel.map")
    patch(Artifact, "compute_payload", _compute_name)
    patch(Artifact, "render_text", "api.render")
    patch(daemon, "decode_request", "serve.decode")
    patch(daemon, "encode_response", "serve.encode")
    patch(daemon, "request_fingerprint", "obs.fingerprint")
    patch(ResultStore, "get", "serve.store.get")
    patch(ResultStore, "put", "serve.store.put")
    patch(daemon.ArtifactServer, "handle_request", _request_name)
    patch(WriteAheadLog, "append", "online.wal.append")
    patch(WriteAheadLog, "recover", "online.wal.recover")
    patch(OnlineState, "absorb", "online.state.absorb")
    patch(SnapshotStore, "seal", "online.snapshot.seal")
    patch(SnapshotStore, "latest_verified", "online.snapshot.latest_verified")
    patch(pipeline.IngestPipeline, "write_status", "online.status")
