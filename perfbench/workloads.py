"""The benchmark's two closed-loop workloads, built from four parts.

``batch`` is the paper's path plus the extension artifacts: each op
reproduces fig2-fig7 and table2 on a fresh economy, then runs health,
cascade and fork_threshold at jobs=2 on one economy generated in set-up.
``live`` is the long-running service: each op ingests an archive with
fsync on, crashes, recovers and drains, then sends a burst of requests
to a ``repro serve`` daemon over two connections.

Every part calls the program only through its public functions, makes
its inputs from the bench seed and checks its output; an op whose check
fails is a failed op.  A workload reports:

* ``setup_step(rep)``: one repetition of its set-up; the runner times
  several and reports the median as ``setup_s``;
* ``measure(seconds, count)``: a closed loop, each op waiting for the
  previous one, for ``seconds`` or for exactly ``count`` ops;
* ``named_metrics(m)``: the parts' own metrics, by name;
* ``op_ms``/``work_per_s``: the metrics every workload shares.

Run state lives in a fresh directory under ``.perfbench-out`` in the
checkout, removed by ``close``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = ".perfbench-out"

#: Input sizes: "full" is what the benchmark measures, "tiny" keeps the
#: benchmark's own tests fast.
SIZES = {
    "full": {
        "reproduce_payments": 1500, "reproduce_scale": 2400,
        "stress_payments": 1000, "stress_pairs": 40, "stress_waves": 2,
        "stress_rounds": 60,
        "serve_payments": 60, "serve_seeds": 4, "serve_miss_every": 40,
        "serve_requests": 40,
        "ingest_payments": 1800,
    },
    "tiny": {
        "reproduce_payments": 150, "reproduce_scale": 24000,
        "stress_payments": 150, "stress_pairs": 6, "stress_waves": 1,
        "stress_rounds": 12,
        "serve_payments": 60, "serve_seeds": 2, "serve_miss_every": 5,
        "serve_requests": 10,
        "ingest_payments": 300,
    },
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def median(values: List[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return float("nan")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def fail(message: str) -> None:
    print(f"check failed: {message}", file=sys.stderr)


@dataclass
class Measurement:
    """What one closed loop did."""

    latencies: List[float] = field(default_factory=list)  # seconds per op
    ok: List[bool] = field(default_factory=list)
    units: float = 0.0  # primary work completed (payments, events)
    elapsed: float = 0.0
    #: op index -> digest of its outputs, for ops that passed their checks.
    digests: Dict[int, str] = field(default_factory=dict)
    #: part timings and counts, by name.
    extra: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return sum(1 for good in self.ok if not good)

    def add(self, key: str, value: float) -> None:
        self.extra.setdefault(key, []).append(value)

    def get(self, key: str) -> List[float]:
        return self.extra.get(key, [])


def metrics_delta(before: Dict, after: Dict) -> Dict[str, Dict]:
    """Counter and timer growth between two ``METRICS.snapshot()`` dicts."""
    counters = {
        name: value - before.get("counters", {}).get(name, 0)
        for name, value in after.get("counters", {}).items()
    }
    timers = {}
    for name, info in after.get("timers", {}).items():
        old = before.get("timers", {}).get(name, {"seconds": 0.0, "calls": 0})
        timers[name] = {
            "seconds": info["seconds"] - old["seconds"],
            "calls": info["calls"] - old["calls"],
        }
    return {"counters": counters, "timers": timers}


def merge_summaries(a: Dict, b: Dict) -> Dict:
    """Sum two trace summaries (this process and the daemon)."""
    spans = {name: dict(span) for name, span in a["spans"].items()}
    for name, span in b["spans"].items():
        slot = spans.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        for key in slot:
            slot[key] += span[key]
    counts = dict(a["counts"])
    for name, value in b["counts"].items():
        counts[name] = counts.get(name, 0) + value
    counters = dict(a["metrics"]["counters"])
    for name, value in b["metrics"]["counters"].items():
        counters[name] = counters.get(name, 0) + value
    timers = {name: dict(t) for name, t in a["metrics"]["timers"].items()}
    for name, timer in b["metrics"]["timers"].items():
        slot = timers.setdefault(name, {"seconds": 0.0, "calls": 0})
        slot["seconds"] += timer["seconds"]
        slot["calls"] += timer["calls"]
    return {
        "spans": spans, "counts": counts,
        "metrics": {"counters": counters, "timers": timers},
    }


class CheckFailed(Exception):
    """An op's output failed its check."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Part:
    """One subsystem's share of a workload op."""

    def __init__(self, seed: int, size: Dict, directory: str, trace: bool):
        self.seed = seed
        self.size = size
        self.dir = directory
        self.trace = trace

    def inputs(self) -> None:
        """Seeded inputs set-up consumes (timed once, not in setup_s)."""

    def setup_step(self, rep: int, reps: int) -> None:
        """One repetition of set-up."""

    def prepare(self) -> None:
        """References and warm-up after set-up."""

    def op(self, index: int, phase: int, m: Measurement) -> Tuple[float, str]:
        """Run this part of op ``index``: (primary units, output digest).

        Raises :class:`CheckFailed` when the output is wrong.
        """
        raise NotImplementedError

    def reprime(self) -> None:
        """Restore caches after a phase, so a replay redoes the same work."""

    def named_metrics(self, m: Measurement) -> List[Tuple[str, float, str, int]]:
        return []

    def close(self) -> None:
        """Stop whatever the part started."""


# reproduce -------------------------------------------------------------------

REPRODUCE_ARTIFACTS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "table2")


class Reproduce(Part):
    """A fresh economy (seed + op index); fig2-fig7, table2 serially."""

    def setup_step(self, rep: int, reps: int) -> None:
        # A cold start of the CLI: a fresh interpreter imports the
        # program and lists its artifacts.
        env = dict(os.environ, PYTHONPATH=SRC)
        subprocess.run(
            [sys.executable, "-m", "repro", "figures"],
            env=env, check=True, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=120,
        )

    def op(self, index: int, phase: int, m: Measurement) -> Tuple[float, str]:
        from repro.api import ARTIFACTS
        from repro.api.request import ArtifactRequest

        payments = self.size["reproduce_payments"]
        began = time.perf_counter()
        texts = []
        for name in REPRODUCE_ARTIFACTS:
            entry = ARTIFACTS[name]
            request = ArtifactRequest(
                name=name, seed=self.seed + index, payments=payments,
                scale=self.size["reproduce_scale"],
            )
            result = entry.compute_payload(request)
            texts.append(entry.render_text(result, request))
            if name == "table2":
                for row in result.data.rows():
                    check(0 <= row.delivered <= row.submitted,
                          f"table2 {row.delivered}/{row.submitted}")
            if name == "fig3":
                for gain in result.data:
                    check(0 <= gain.identified <= gain.total,
                          f"fig3 {gain.identified}/{gain.total}")
        m.add("economy", time.perf_counter() - began)
        return float(payments), sha256("\x00".join(texts))

    def named_metrics(self, m: Measurement):
        economy = m.get("economy")
        payments = self.size["reproduce_payments"] * len(economy)
        return [
            ("economy_ms", 1000.0 * median(economy), "ms", len(economy)),
            ("payments_per_s", payments / sum(economy), "1/s", len(economy)),
        ]


# stress ----------------------------------------------------------------------

STRESS_ARTIFACTS = ("health", "cascade", "fork_threshold")


class Stress(Part):
    """health, cascade (outage), fork_threshold at jobs=2 on one economy."""

    jobs = 2

    def _requests(self, jobs: Optional[int]):
        from repro.api.request import ArtifactRequest

        size = self.size
        options = {
            "health": {"pairs": size["stress_pairs"]},
            "cascade": {
                "pairs": size["stress_pairs"], "waves": size["stress_waves"],
            },
            "fork_threshold": {"rounds": size["stress_rounds"]},
        }
        return [
            ArtifactRequest(
                name=name, seed=self.seed, payments=size["stress_payments"],
                jobs=jobs, options=options[name],
            )
            for name in STRESS_ARTIFACTS
        ]

    def _config(self):
        from repro.api.artifacts import economy_config

        return economy_config(self._requests(None)[0])

    def setup_step(self, rep: int, reps: int) -> None:
        # Generate the economy and spawn the warm pool.  The last
        # repetition goes through the memoized generator, so the suite
        # reads the economy from the program's own cache.  Each batch op
        # touches it, so the fresh reproduce economies never evict it.
        import repro.chaos.cascade  # noqa: F401  (registers cascade)
        import repro.chaos.report  # noqa: F401  (registers fork_threshold)
        from repro.api.artifacts import tally_settlability
        from repro.parallel import pool
        from repro.parallel.engine import map_shards
        from repro.synthetic.generator import (
            LedgerHistoryGenerator,
            generate_history,
        )

        if rep == reps - 1:
            generate_history(self._config())
        else:
            LedgerHistoryGenerator(self._config()).generate()
        pool.shutdown()
        map_shards("warmup", tally_settlability, [[True], [False]], self.jobs)

    def prepare(self) -> None:
        from repro.api import ARTIFACTS

        # The serial bytes every jobs=2 suite must reproduce.
        self.expected = [
            sha256(ARTIFACTS[request.name].run(request))
            for request in self._requests(None)
        ]

    def op(self, index: int, phase: int, m: Measurement) -> Tuple[float, str]:
        from repro.api import ARTIFACTS

        began = time.perf_counter()
        for request, expected in zip(self._requests(self.jobs), self.expected):
            started = time.perf_counter()
            text = ARTIFACTS[request.name].run(request)
            m.add(request.name, time.perf_counter() - started)
            check(sha256(text) == expected,
                  f"{request.name} jobs={self.jobs} differs from serial")
        m.add("suite", time.perf_counter() - began)
        return 0.0, ""

    def reprime(self) -> None:
        from repro.synthetic.generator import generate_history

        generate_history.cache_clear()
        generate_history(self._config())

    def named_metrics(self, m: Measurement):
        suite = m.get("suite")
        out = [("suite_ms", 1000.0 * median(suite), "ms", len(suite))]
        for name in STRESS_ARTIFACTS:
            values = m.get(name)
            out.append((f"{name}_ms", 1000.0 * median(values), "ms", len(values)))
        return out

    def close(self) -> None:
        from repro.parallel import pool

        pool.shutdown()


# ingest ----------------------------------------------------------------------


class _Crash(Exception):
    """Ends an event source abruptly, as a killed process would."""


def _crash_after(events):
    yield from events
    raise _Crash()


class Ingest(Part):
    """Ingest an exported archive with fsync on, crash, recover, drain."""

    def inputs(self) -> None:
        from repro.api.artifacts import economy_config
        from repro.api.request import ArtifactRequest
        from repro.synthetic.generator import LedgerHistoryGenerator

        request = ArtifactRequest(
            name="ingest", seed=self.seed,
            payments=self.size["ingest_payments"],
        )
        self.records = LedgerHistoryGenerator(
            economy_config(request)
        ).generate().records

    def setup_step(self, rep: int, reps: int) -> None:
        # Export the archive and open a pipeline on an empty state dir.
        from repro.analysis.archive import dump_archive
        from repro.online.pipeline import IngestConfig, IngestPipeline

        self.archive = os.path.join(self.dir, f"archive-{rep}.jsonl")
        dump_archive(self.records, self.archive)
        state_dir = os.path.join(self.dir, f"cold-{rep}")
        IngestPipeline(IngestConfig(state_dir=state_dir, fsync=True)).recover()
        shutil.rmtree(state_dir)

    def prepare(self) -> None:
        from repro.analysis.dataset import TransactionDataset
        from repro.core.deanonymizer import Deanonymizer

        self.batch_fig3 = Deanonymizer(
            TransactionDataset.from_records(self.records)
        ).figure3()

    def op(self, index: int, phase: int, m: Measurement) -> Tuple[float, str]:
        from repro.online.pipeline import (
            IngestConfig,
            IngestPipeline,
            archive_event_source,
        )

        config = IngestConfig(
            state_dir=os.path.join(self.dir, f"state-{phase}-{index}"),
            fsync=True,
        )
        began = time.perf_counter()
        pipeline = IngestPipeline(config)
        pipeline.recover()
        try:
            pipeline.run(_crash_after(archive_event_source(self.archive)))
        except _Crash:
            pipeline.wal.close()
        else:
            raise RuntimeError("the event source ended without the crash")
        crashed = pipeline.state.digest()
        ingested = time.perf_counter()
        restarted = IngestPipeline(config)
        restarted.recover()
        recovered = time.perf_counter()
        check(restarted.state.digest() == crashed, "recovered digest differs")
        check(restarted.drain() == crashed, "drained digest differs")
        rows = restarted.state.figure3_rows()
        check(len(rows) == len(self.batch_fig3), "fig3 row count differs")
        for batch, (label, identified, gain) in zip(self.batch_fig3, rows):
            check(batch.feature_list.label() == label
                  and batch.identified == identified
                  and abs(batch.percent - gain) <= 1e-9,
                  f"online fig3 {label} differs from the batch Deanonymizer")
        m.add("ingest", ingested - began)
        m.add("recover", recovered - ingested)
        m.add("events", pipeline.state.events)
        shutil.rmtree(config.state_dir)
        return float(pipeline.state.events), crashed

    def named_metrics(self, m: Measurement):
        ingest = m.get("ingest")
        recover = m.get("recover")
        return [
            ("events_per_s", sum(m.get("events")) / sum(ingest), "1/s",
             len(ingest)),
            ("recover_ms", 1000.0 * median(recover), "ms", len(recover)),
        ]


# serve -----------------------------------------------------------------------

SERVE_ARTIFACTS = ("fig3", "fig4", "fig5", "fig6")
CLIENTS = 2


class _MissGate:
    """Hits run concurrently; a miss waits for in-flight hits, runs alone.

    A miss computes for hundreds of ms holding the daemon's interpreter
    lock.  Hits that overlapped one waited anywhere from 1 to 40 ms,
    depending on lock hand-off luck, which made the hit median
    unrepeatable.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._hits = 0
        self._miss = False

    def enter(self, kind: str) -> None:
        with self._cond:
            self._cond.wait_for(lambda: not self._miss)
            if kind == "hit":
                self._hits += 1
            else:
                self._miss = True
                self._cond.wait_for(lambda: self._hits == 0)

    def leave(self, kind: str) -> None:
        with self._cond:
            if kind == "hit":
                self._hits -= 1
            else:
                self._miss = False
            self._cond.notify_all()


class Serve(Part):
    """A ``repro serve`` daemon on a unix socket, two client connections.

    Each op sends a burst of requests on each connection: every
    ``serve_miss_every``-th is a miss for a new small-economy
    fingerprint, the rest are hits on a working set warmed in set-up.
    """

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.socket = os.path.join(self.dir, "serve.sock")
        self.cache = os.path.join(self.dir, "cache")
        self.spans_path = os.path.join(self.dir, "daemon-spans.npz")
        self.proc: Optional[subprocess.Popen] = None
        self.client = None

    def _launch(self) -> None:
        from repro.serve.client import ServeClient

        command = [
            sys.executable, os.path.join(ROOT, "perfbench", "serve_launcher.py"),
            "--socket", self.socket, "--cache-dir", self.cache,
        ]
        if self.trace:
            command += ["--trace-dir", self.dir, "--spans", self.spans_path]
        self.proc = subprocess.Popen(
            command, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        self.client = ServeClient(socket_path=self.socket)
        self.client.wait_ready(attempts=6000, delay=0.005)

    def close(self) -> None:
        if self.proc is None:
            return
        try:
            self.client.shutdown()
            self.proc.wait(timeout=30)
        except Exception:  # an unresponsive daemon is killed, not leaked
            self.proc.kill()
            self.proc.wait(timeout=30)
        self.proc = None

    def setup_step(self, rep: int, reps: int) -> None:
        # A daemon cold start, until it answers a ping; every repetition
        # but the last is shut down again.
        self._launch()
        if rep < reps - 1:
            self.close()

    def _request(self, name: str, seed: int) -> Dict[str, object]:
        return {
            "artifact": name, "seed": seed,
            "payments": self.size["serve_payments"],
        }

    def _ask(self, body: Dict[str, object]) -> Dict[str, object]:
        return self.client.call(dict(body, op="artifact"))

    def _local_text(self, body: Dict[str, object]) -> str:
        from repro.api import ARTIFACTS
        from repro.api.request import ArtifactRequest

        return ARTIFACTS[body["artifact"]].run(ArtifactRequest.from_dict(body))

    def prepare(self) -> None:
        # Warm the working set; each entry's bytes must equal the
        # in-process Artifact.run text.
        self.working_set = []
        self.expected = {}
        for k in range(self.size["serve_seeds"]):
            for name in SERVE_ARTIFACTS:
                body = self._request(name, 10_000 * self.seed + k)
                reply = self._ask(body)
                text = self._local_text(body)
                check(reply.get("status") == "ok"
                      and reply.get("rendered_text") == text,
                      f"working-set entry {body} differs")
                self.working_set.append(body)
                self.expected[(name, body["seed"])] = sha256(text)

    def op(self, index: int, phase: int, m: Measurement) -> Tuple[float, str]:
        gate = _MissGate()
        lock = threading.Lock()
        misses: List[Tuple[int, Dict[str, object], str]] = []
        errors: List[str] = []
        every = self.size["serve_miss_every"]

        def connection(thread: int) -> None:
            rng = random.Random(f"{self.seed}-{phase}-{index}-{thread}")
            for sent in range(1, self.size["serve_requests"] + 1):
                if sent % every == 0:
                    turn = CLIENTS * (sent // every) + thread
                    name = SERVE_ARTIFACTS[turn % len(SERVE_ARTIFACTS)]
                    miss_seed = (
                        1_000_000 * (self.seed + 1) + 100_000 * phase
                        + 1000 * index + 100 * thread + sent // every
                    )
                    body, kind = self._request(name, miss_seed), "miss"
                else:
                    body = self.working_set[rng.randrange(len(self.working_set))]
                    kind = "hit"
                gate.enter(kind)
                began = time.perf_counter()
                try:
                    reply = self._ask(body)
                except Exception as exc:  # a refused request fails the op
                    reply = {"status": f"error: {exc}"}
                finally:
                    took = time.perf_counter() - began
                    gate.leave(kind)
                good = reply.get("status") == "ok" and reply.get("cache") == kind
                digest = reply.get("rendered_sha256")
                if good and kind == "hit":
                    good = digest == self.expected[(body["artifact"], body["seed"])]
                with lock:
                    m.add(kind, took)
                    if not good:
                        errors.append(f"{kind} {body} answered {reply.get('status')}")
                    elif kind == "miss":
                        misses.append((thread, body, digest))

        began = time.perf_counter()
        threads = [
            threading.Thread(target=connection, args=(t,)) for t in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        m.add("burst", time.perf_counter() - began)
        m.add("requests", CLIENTS * self.size["serve_requests"])
        check(not errors, "; ".join(errors))
        # Every miss must come back as a hit with the same bytes.  In the
        # untraced phase's first op, the first miss of each connection
        # must also equal the in-process Artifact.run text (only there,
        # so the traced phase records no benchmark-side compute).
        recomputed = set()
        for thread, body, digest in misses:
            reply = self._ask(body)
            check(reply.get("cache") == "hit"
                  and reply.get("rendered_sha256") == digest,
                  f"miss {body} is not served again as the same hit")
            if index == 0 and phase == 0 and thread not in recomputed:
                recomputed.add(thread)
                check(sha256(self._local_text(body)) == digest,
                      f"miss {body} differs from Artifact.run")
        return 0.0, ""

    def named_metrics(self, m: Measurement):
        hits, misses = m.get("hit"), m.get("miss")
        requests = sum(m.get("requests"))
        return [
            ("requests_per_s", requests / sum(m.get("burst")), "1/s",
             int(requests)),
            ("hit_ms", 1000.0 * median(hits), "ms", len(hits)),
            ("hit_p99_ms", 1000.0 * percentile(hits, 99), "ms", len(hits)),
            ("miss_ms", 1000.0 * median(misses), "ms", len(misses)),
        ]

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def start_trace(self) -> None:
        self.client.stats("perfbench.trace.on")

    def stop_trace(self) -> Dict:
        self.client.stats("perfbench.trace.off")
        with open(os.path.join(self.dir, "trace.json"), encoding="utf-8") as f:
            return json.load(f)


# workloads -------------------------------------------------------------------


class Workload:
    """A closed loop whose op runs each of its parts in turn."""

    name = ""
    part_types: Tuple[type, ...] = ()
    unit = ""  # what work_per_s counts

    def __init__(self, seed: int, size: str, trace: bool) -> None:
        os.makedirs(OUT, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=f"{self.name}-", dir=OUT)
        self.parts = [
            cls(seed, SIZES[size], self.dir, trace) for cls in self.part_types
        ]
        self.recorder = None  # installed by the runner for traced runs

    def serve_parts(self) -> List[Serve]:
        return [part for part in self.parts if isinstance(part, Serve)]

    def make_inputs(self) -> None:
        for part in self.parts:
            part.inputs()

    def setup_step(self, rep: int, reps: int) -> None:
        for part in self.parts:
            part.setup_step(rep, reps)

    def prepare(self) -> None:
        for part in self.parts:
            part.prepare()

    def between_phases(self) -> None:
        for part in self.parts:
            part.reprime()

    def measure(
        self, seconds: float, count: Optional[int] = None, phase: int = 0
    ) -> Measurement:
        m = Measurement()
        start = time.perf_counter()
        index = 0
        while (count is None and time.perf_counter() - start < seconds) or (
            count is not None and index < count
        ):
            began = time.perf_counter()
            digests = []
            try:
                for part in self.parts:
                    units, digest = part.op(index, phase, m)
                    m.units += units
                    digests.append(digest)
                m.digests[index] = sha256("|".join(digests))
                good = True
            except CheckFailed as exc:
                fail(f"op {index}: {exc}")
                good = False
            except Exception:  # a crashed op is a failed op; keep measuring
                traceback.print_exc(file=sys.stderr)
                good = False
            m.latencies.append(time.perf_counter() - began)
            m.ok.append(good)
            index += 1
        m.elapsed = time.perf_counter() - start
        return m

    def op_ms(self, m: Measurement) -> float:
        return 1000.0 * median(m.latencies)

    def work_per_s(self, m: Measurement) -> float:
        return m.units / m.elapsed

    def named_metrics(self, m: Measurement) -> List[Tuple[str, float, str, int]]:
        return [row for part in self.parts for row in part.named_metrics(m)]

    def peak_rss_mb(self) -> float:
        """Peak resident set of this process plus the daemon's, if any."""
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return peak + sum(part.peak_rss_mb() for part in self.serve_parts())

    def start_trace(self) -> None:
        from repro.obs.metrics import METRICS

        METRICS.enable()
        self._metrics_before = METRICS.snapshot()
        self.recorder.reset()
        self.recorder.enabled = True
        for part in self.serve_parts():
            part.start_trace()

    def stop_trace(self, spans_path: str) -> Dict:
        from repro.obs.metrics import METRICS

        self.recorder.enabled = False
        summary = self.recorder.summary()
        summary["metrics"] = metrics_delta(
            self._metrics_before, METRICS.snapshot()
        )
        self.recorder.write(spans_path)
        for part in self.serve_parts():
            summary = merge_summaries(summary, part.stop_trace())
        return summary

    def close(self) -> None:
        for part in self.parts:
            try:
                part.close()
            except Exception:  # keep closing the rest, then the directory
                traceback.print_exc(file=sys.stderr)
        shutil.rmtree(self.dir, ignore_errors=True)


class Batch(Workload):
    name = "batch"
    part_types = (Reproduce, Stress)
    unit = "payments reproduced"


class Live(Workload):
    name = "live"
    part_types = (Ingest, Serve)
    unit = "events ingested"


WORKLOADS = {cls.name: cls for cls in (Batch, Live)}
