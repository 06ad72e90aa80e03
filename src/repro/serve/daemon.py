"""The ``repro serve`` daemon: many tenants, one registry, one cache.

A long-running process that accepts concurrent artifact requests over a
Unix or TCP socket and serves each one through a fixed pipeline:

1. **decode** the JSON line into a typed
   :class:`~repro.api.request.ArtifactRequest` (:mod:`repro.serve.codec`);
2. **fingerprint** it *before* computing anything —
   :func:`repro.obs.manifest.request_fingerprint` over the canonical
   invocation plus input-archive content hashes;
3. **cache lookup** in the durable :class:`~repro.serve.store.ResultStore`
   — a hit returns the sealed envelope without touching the worker pool;
4. **single-flight** on a miss — concurrent identical requests collapse
   onto one computation (:mod:`repro.serve.singleflight`);
5. **compute** through the same :data:`repro.api.ARTIFACTS` registry the
   CLI uses — a ``jobs > 1`` request for a sharded artifact
   (``fork_threshold``) schedules shards onto the persistent warm worker
   pool (:mod:`repro.parallel.pool`), which stays warm *across requests*;
6. **seal** the envelope core into the store and respond.

Request handling runs on a thread per connection
(``socketserver.ThreadingMixIn``); a sharded computation fans out to
worker processes, every other one runs on its request thread.  Every stage ticks a ``serve.*`` metrics counter and logs a
progress line, so ``{"op": "stats"}`` exposes hits/misses/computes for
drills and dashboards.
"""

from __future__ import annotations

import os
import socket
import socketserver
import stat
import sys
import threading
import time
from typing import Any, Dict, Optional, Tuple

import repro.chaos.cascade  # noqa: F401  (registers the 'cascade' artifact)
import repro.chaos.report  # noqa: F401  (registers chaos + fork_threshold)
from repro.api import artifact
from repro.api.registry import ResultEnvelope
from repro.api.request import ArtifactRequest
from repro.errors import AnalysisError
from repro.obs.manifest import file_sha256, request_fingerprint
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.serve.codec import (
    MAX_LINE_BYTES,
    CodecError,
    ControlRequest,
    decode_request,
    encode_response,
)
from repro.serve.singleflight import SingleFlight
from repro.serve.store import ResultStore


class ArtifactServer:
    """The request pipeline, independent of any transport.

    Owns the durable store and the single-flight table; the socket
    layer (:func:`make_server`) feeds it decoded lines and writes back
    whatever it returns.  Tests drive :meth:`handle_request` directly.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        store: Optional[ResultStore] = None,
        default_jobs: Optional[int] = None,
        ingest_state_dir: Optional[str] = None,
        log=None,
    ):
        self.store = store if store is not None else ResultStore(cache_dir)
        self.flights = SingleFlight()
        self.default_jobs = default_jobs
        self.ingest_state_dir = ingest_state_dir
        self._log = log if log is not None else sys.stderr
        self._active = 0
        self._active_lock = threading.Lock()
        self._idle = threading.Condition(self._active_lock)
        METRICS.enable()
        swept = self.store.sweep()
        if swept:
            self.log(f"swept {swept} stale temp file(s) from the store")

    def log(self, message: str) -> None:
        if self._log is not None:
            print(f"serve: {message}", file=self._log, flush=True)

    # Request pipeline --------------------------------------------------------

    def handle_request(self, request: ArtifactRequest) -> Dict[str, Any]:
        """One artifact request end to end; always returns an envelope dict."""
        METRICS.count("serve.requests")
        if self.default_jobs and request.jobs is None:
            request = request.replace(jobs=self.default_jobs)
        try:
            fingerprint = request_fingerprint(request)
        except AnalysisError as exc:
            METRICS.count("serve.errors")
            self.log(f"{request.name} rejected: {exc}")
            return ResultEnvelope.failure(
                request.name, None, str(exc)
            ).to_dict()
        cached = self._lookup(fingerprint)
        if cached is not None:
            METRICS.count("serve.cache.hits")
            self.log(f"{request.name} {fingerprint[:12]} hit")
            cached.cache = "hit"
            return cached.to_dict()
        METRICS.count("serve.cache.misses")
        try:
            core, shared = self.flights.do(
                fingerprint, lambda: self._compute(request, fingerprint)
            )
        except Exception as exc:  # an error is a response, not a crash
            METRICS.count("serve.errors")
            self.log(f"{request.name} {fingerprint[:12]} failed: {exc}")
            return ResultEnvelope.failure(
                request.name, fingerprint, str(exc)
            ).to_dict()
        if shared:
            METRICS.count("serve.singleflight.shared")
        envelope = ResultEnvelope.from_dict(core)
        envelope.cache = "miss"
        return envelope.to_dict()

    def _lookup(self, fingerprint: str) -> Optional[ResultEnvelope]:
        """The cached envelope, or None; a malformed entry degrades to a miss."""
        cached = self.store.get(fingerprint)
        if cached is None:
            return None
        try:
            return ResultEnvelope.from_dict(cached)
        except AnalysisError:
            METRICS.count("serve.store.corrupt")
            self.store.evict(fingerprint)
            return None

    def _compute(
        self, request: ArtifactRequest, fingerprint: str
    ) -> Dict[str, Any]:
        """Leader path: compute, render, seal.  Returns the envelope core."""
        METRICS.count("serve.computes")
        self.log(
            f"{request.name} {fingerprint[:12]} miss — computing "
            f"(jobs={request.jobs or 1})"
        )
        started = time.perf_counter()
        entry = artifact(request.name)
        with TRACER.span(f"serve.{request.name}", fingerprint=fingerprint[:12]):
            result = entry.compute_payload(request)
            text = entry.render_text(result, request)
        output_hashes = [
            file_sha256(path)[0]
            for path in result.output_paths
            if os.path.exists(path)
        ]
        envelope = ResultEnvelope.ok(
            artifact=request.name,
            fingerprint=fingerprint,
            rendered_text=text,
            output_sha256s=output_hashes,
        )
        core = envelope.core()
        self.store.put(fingerprint, core)
        elapsed = time.perf_counter() - started
        METRICS.add_time("serve.compute", elapsed)
        self.log(
            f"{request.name} {fingerprint[:12]} computed in {elapsed:.2f}s "
            f"-> {envelope.rendered_sha256[:12]}"
        )
        return core

    # Control operations ------------------------------------------------------

    #: Metric namespaces ``{"op": "stats"}`` surfaces by default; the
    #: cascade gauges make long-running collapse curves watchable live.
    STATS_PREFIXES = ("serve.", "parallel.", "cascade.", "health.")

    def stats(self, prefix: Optional[str] = None) -> Dict[str, Any]:
        """Counters and gauges, filtered to ``prefix`` when one is given."""
        wanted = (str(prefix),) if prefix else self.STATS_PREFIXES
        snapshot = METRICS.snapshot()
        counters = {
            name: value
            for name, value in snapshot.get("counters", {}).items()
            if name.startswith(wanted)
        }
        gauges = {
            name: value
            for name, value in snapshot.get("gauges", {}).items()
            if name.startswith(wanted)
        }
        return {
            "status": "ok",
            "op": "stats",
            "pid": os.getpid(),
            "counters": counters,
            "gauges": gauges,
            "cache_entries": len(self.store),
            "in_flight": self.flights.in_flight(),
        }

    def live_status(self, request: ControlRequest) -> Dict[str, Any]:
        """The newest status an ingest pipeline wrote under a state dir.

        ``state_dir`` comes from the request, falling back to the
        daemon's ``--ingest-state-dir``; the response is the pipeline's
        own atomic ``status.json`` payload (applied_seq, lag counters,
        restarts, snapshot frontier) passed through verbatim.
        """
        from repro.errors import IngestError
        from repro.online.pipeline import read_status

        state_dir = request.param("state_dir") or self.ingest_state_dir
        if not state_dir:
            return {
                "status": "error",
                "op": "live_status",
                "error": "no state_dir: pass one in the request or start "
                         "the daemon with --ingest-state-dir",
            }
        try:
            payload = read_status(str(state_dir))
        except IngestError as exc:
            METRICS.count("serve.live_status.misses")
            return {"status": "error", "op": "live_status", "error": str(exc)}
        METRICS.count("serve.live_status.reads")
        return {
            "status": "ok",
            "op": "live_status",
            "state_dir": str(state_dir),
            "ingest": payload,
        }

    def ping(self) -> Dict[str, Any]:
        from repro.api import names

        return {
            "status": "ok",
            "op": "ping",
            "pid": os.getpid(),
            "artifacts": names(),
        }

    # Drain accounting --------------------------------------------------------

    def track(self):
        """Context manager counting one in-flight connection (drain waits)."""
        return _Tracked(self)

    def drain(self, timeout: float = 30.0) -> bool:
        """Wait for in-flight requests to finish; True when fully idle.

        Called after the listener stops accepting: single-flight leaders
        (and the followers waiting on them) run to completion instead of
        dying mid-compute with the process.
        """
        deadline = time.monotonic() + timeout
        with self._idle:
            while self._active > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    METRICS.count("serve.drain.timeouts")
                    return False
                self._idle.wait(remaining)
        return True

    # Wire dispatch -----------------------------------------------------------

    def respond(self, line: str) -> Tuple[bytes, bool]:
        """(response bytes, shutdown?) for one decoded wire line."""
        try:
            request = decode_request(line)
        except (CodecError, AnalysisError) as exc:
            METRICS.count("serve.errors")
            return encode_response({"status": "error", "error": str(exc)}), False
        if isinstance(request, ControlRequest):
            if request.op == "ping":
                return encode_response(self.ping()), False
            if request.op == "stats":
                return encode_response(
                    self.stats(request.param("prefix"))
                ), False
            if request.op == "live_status":
                return encode_response(self.live_status(request)), False
            self.log("shutdown requested")
            return (
                encode_response({"status": "ok", "op": "shutdown"}),
                True,
            )
        return encode_response(self.handle_request(request)), False


class _Tracked:
    """RAII in-flight counter for :meth:`ArtifactServer.track`."""

    def __init__(self, app: ArtifactServer):
        self.app = app

    def __enter__(self) -> "_Tracked":
        with self.app._idle:
            self.app._active += 1
        return self

    def __exit__(self, *_exc) -> None:
        with self.app._idle:
            self.app._active -= 1
            if self.app._active == 0:
                self.app._idle.notify_all()


# Socket layer ---------------------------------------------------------------


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        line = self.rfile.readline(MAX_LINE_BYTES + 2)
        if not line:
            return
        with self.server.app.track():
            response, shutdown = self.server.app.respond(
                line.decode("utf-8", errors="replace").strip()
            )
            self.wfile.write(response)
            self.wfile.flush()
        if shutdown:
            # shutdown() blocks until serve_forever exits; calling it from
            # the handler thread directly would deadlock the accept loop.
            threading.Thread(target=self.server.shutdown, daemon=True).start()


class _ThreadingTCPServer(socketserver.ThreadingMixIn, socketserver.TCPServer):
    allow_reuse_address = True
    daemon_threads = True


if hasattr(socketserver, "UnixStreamServer"):

    class _ThreadingUnixServer(
        socketserver.ThreadingMixIn, socketserver.UnixStreamServer
    ):
        daemon_threads = True


def _reclaim_socket(socket_path: str, app: ArtifactServer) -> None:
    """Unlink ``socket_path`` only when it is a *dead* daemon's socket.

    A ``kill -9`` leaves the previous daemon's socket file behind; binding
    must reclaim it.  But an unconditional unlink would also steal the
    socket out from under a *live* daemon — its listener keeps serving the
    now-unlinked inode while new clients silently talk to us, and the two
    daemons race on the cache.  So: probe first.  A refused connection
    proves nothing is accepting, and only then is the path removed.
    """
    try:
        mode = os.stat(socket_path).st_mode
    except FileNotFoundError:
        return
    if not stat.S_ISSOCK(mode):
        raise AnalysisError(
            f"refusing to bind {socket_path}: exists and is not a socket"
        )
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.settimeout(1.0)
        probe.connect(socket_path)
    except ConnectionRefusedError:
        # Nothing is accepting: the previous daemon died without cleanup.
        METRICS.count("serve.stale_socket_reclaimed")
        app.log(f"reclaiming stale socket {socket_path}")
        try:
            os.remove(socket_path)
        except FileNotFoundError:
            pass
    except FileNotFoundError:
        pass  # unlinked between stat and connect — already reclaimed
    except OSError as exc:
        # Timeouts land here too: a full backlog is a *live* busy daemon.
        raise AnalysisError(
            f"refusing to bind {socket_path}: probe failed ({exc})"
        ) from None
    else:
        raise AnalysisError(
            f"refusing to bind {socket_path}: another daemon is listening"
        )
    finally:
        probe.close()


def make_server(
    app: ArtifactServer,
    socket_path: Optional[str] = None,
    host: str = "127.0.0.1",
    port: int = 0,
):
    """A threading socket server bound to a Unix socket or TCP port.

    A listener that cannot be bound (missing directory, port in use, no
    permission) raises :class:`AnalysisError` naming the address.
    """
    if socket_path:
        if not hasattr(socketserver, "UnixStreamServer"):
            raise AnalysisError("unix sockets are unavailable on this platform")
        _reclaim_socket(socket_path, app)
        address, server_class = socket_path, _ThreadingUnixServer
    else:
        address, server_class = (host, port), _ThreadingTCPServer
    try:
        server = server_class(address, _Handler)
    except OSError as exc:
        where = socket_path or f"{host}:{port}"
        raise AnalysisError(f"cannot bind {where}: {exc.strerror or exc}") from None
    server.app = app
    return server


def run_server(
    app: ArtifactServer,
    socket_path: Optional[str] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    drain_timeout: float = 30.0,
) -> int:
    """Serve until shutdown (op, SIGTERM, or Ctrl-C); returns exit status.

    Shutdown is a *graceful drain*: the listener stops accepting first,
    then in-flight requests — including single-flight compute leaders —
    run to completion (bounded by ``drain_timeout``) before the process
    exits 0.
    """
    import signal

    server = make_server(app, socket_path=socket_path, host=host, port=port)
    where = socket_path or "%s:%d" % server.server_address[:2]
    app.log(f"listening on {where} (cache {app.store.root})")

    def _term(_signum, _frame):  # pragma: no cover - exercised via drill
        app.log("SIGTERM — draining")
        # shutdown() blocks until serve_forever acknowledges; the signal
        # handler runs *in* serve_forever's thread, so hand it off.
        threading.Thread(target=server.shutdown, daemon=True).start()

    registered = False
    if threading.current_thread() is threading.main_thread():
        previous = signal.signal(signal.SIGTERM, _term)
        registered = True
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        app.log("interrupted")
    finally:
        if registered:
            signal.signal(signal.SIGTERM, previous)
        # Close the listener before draining: no new connections are
        # accepted while in-flight ones finish.
        server.server_close()
        if not app.drain(timeout=drain_timeout):
            app.log(
                f"drain timed out after {drain_timeout:.0f}s with "
                f"{app._active} request(s) still in flight"
            )
        if socket_path and os.path.exists(socket_path):
            try:
                os.remove(socket_path)
            except OSError:
                pass
    app.log("stopped")
    return 0
