"""Serve drill — the CI check for the multi-tenant artifact daemon.

Exercises the serve contract end to end against a real daemon process:

1. **cold CLI reference** — ``python -m repro fig3 …`` writes the
   artifact the ordinary way; its bytes are the ground truth the daemon
   must reproduce;
2. **concurrent duplicates** — several identical fig3 requests fired at
   once (plus one distinct fig4 request) must yield byte-identical
   deterministic envelopes, exactly one computation per distinct
   fingerprint (``serve.computes == 2``), and rendered text matching the
   CLI reference byte for byte;
3. **warm pool** — a sharded ``fork_threshold`` request at ``jobs=2``
   is a cache miss computed on the daemon's warm worker pool (its
   ``parallel.pool.*`` counters tick);
4. **durable restart** — a freshly started daemon on the same cache dir
   must serve fig3 and that ``fork_threshold`` request as cache **hits**
   with identical bytes, without computing anything and without ever
   touching the warm worker pool (no ``serve.computes``, no
   ``parallel.pool.*`` counters in the new process).

Exit code 0 = pass, 1 = contract violation, 2 = setup failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from typing import Any, Dict, List, Optional

from repro.serve.client import ServeClient, ServeError

ARTIFACT_ARGS = {"payments": 4000, "seed": 7}
#: The one sharded artifact, small enough to compute in a few seconds.
SHARDED_ARGS = {"rounds": 12, "jobs": 2}

_failures: List[str] = []


def check(condition: bool, message: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {message}")
    if not condition:
        _failures.append(message)


def deterministic_sha(envelope: Dict[str, Any]) -> str:
    """sha256 of the envelope core: the transport annotations stripped."""
    core = {k: v for k, v in envelope.items() if k not in ("cache", "detail")}
    return hashlib.sha256(
        json.dumps(core, sort_keys=True).encode("utf-8")
    ).hexdigest()


def start_daemon(socket_path: str, cache_dir: str) -> subprocess.Popen:
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--socket", socket_path, "--cache-dir", cache_dir,
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    client = ServeClient(socket_path=socket_path, timeout=120)
    try:
        client.wait_ready(attempts=100, delay=0.1)
    except ServeError:
        process.terminate()
        stderr = process.communicate(timeout=10)[1]
        print(f"daemon never came up; stderr:\n{stderr}", file=sys.stderr)
        raise
    return process


def stop_daemon(process: subprocess.Popen, client: ServeClient) -> None:
    try:
        client.shutdown()
        process.wait(timeout=10)
    except (ServeError, subprocess.TimeoutExpired):
        process.kill()
        process.wait(timeout=10)


def pool_counters(stats: Dict[str, Any]) -> List[str]:
    return sorted(name for name in stats if name.startswith("parallel.pool."))


def cold_cli_reference(workdir: str) -> bytes:
    out = os.path.join(workdir, "fig3-cold.txt")
    subprocess.run(
        [
            sys.executable, "-m", "repro", "fig3",
            "--payments", str(ARTIFACT_ARGS["payments"]),
            "--seed", str(ARTIFACT_ARGS["seed"]),
            "--out", out,
        ],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    with open(out, "rb") as handle:
        return handle.read()


def fire_concurrently(client: ServeClient, duplicates: int) -> List[Dict[str, Any]]:
    """``duplicates`` identical fig3 requests plus one distinct fig4."""
    responses: List[Optional[Dict[str, Any]]] = [None] * (duplicates + 1)

    def fig3(slot: int) -> None:
        responses[slot] = client.artifact("fig3", jobs=2, **ARTIFACT_ARGS)

    def fig4(slot: int) -> None:
        responses[slot] = client.artifact("fig4", **ARTIFACT_ARGS)

    threads = [
        threading.Thread(target=fig3, args=(slot,)) for slot in range(duplicates)
    ]
    threads.append(threading.Thread(target=fig4, args=(duplicates,)))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [response for response in responses if response is not None]


def drill(duplicates: int) -> int:
    workdir = tempfile.mkdtemp(prefix="repro-serve-drill-")
    socket_path = os.path.join(workdir, "serve.sock")
    cache_dir = os.path.join(workdir, "cache")
    client = ServeClient(socket_path=socket_path, timeout=300)
    try:
        print("== cold CLI reference ==")
        reference = cold_cli_reference(workdir)
        print(f"  fig3 via CLI: {len(reference)} bytes")

        print("== daemon round 1: concurrent duplicates ==")
        daemon = start_daemon(socket_path, cache_dir)
        try:
            responses = fire_concurrently(client, duplicates)
            check(
                len(responses) == duplicates + 1,
                f"all {duplicates + 1} concurrent requests answered",
            )
            check(
                all(r["status"] == "ok" for r in responses),
                "every response has status ok",
            )
            fig3_responses = [r for r in responses if r["artifact"] == "fig3"]
            shas = {deterministic_sha(r) for r in fig3_responses}
            check(
                len(shas) == 1,
                f"{len(fig3_responses)} duplicate responses are sha256-identical",
            )
            served = fig3_responses[0]["rendered_text"] + "\n"
            check(
                served.encode("utf-8") == reference,
                "served fig3 matches the cold CLI bytes exactly",
            )
            stats = client.stats()["counters"]
            check(
                stats.get("serve.computes") == 2,
                f"exactly one compute per distinct fingerprint "
                f"(serve.computes={stats.get('serve.computes')})",
            )
            check(
                stats.get("serve.requests") == duplicates + 1,
                "every request was counted",
            )

            print("== daemon round 1: sharded miss on the warm pool ==")
            sharded = client.artifact("fork_threshold", **SHARDED_ARGS)
            check(sharded["status"] == "ok", "daemon answers fork_threshold")
            check(
                sharded.get("cache") == "miss",
                f"first fork_threshold is computed "
                f"(cache={sharded.get('cache')!r})",
            )
            pool = pool_counters(client.stats()["counters"])
            check(
                bool(pool),
                f"jobs=2 miss ran on the warm worker pool (counters: {pool})",
            )
        finally:
            stop_daemon(daemon, client)

        print("== daemon round 2: restart, durable cache hit ==")
        daemon = start_daemon(socket_path, cache_dir)
        try:
            warm = client.artifact("fig3", **ARTIFACT_ARGS)
            check(warm["status"] == "ok", "restarted daemon answers fig3")
            check(
                warm.get("cache") == "hit",
                f"restarted daemon serves from the durable store "
                f"(cache={warm.get('cache')!r})",
            )
            check(
                warm["rendered_text"] + "\n" == reference.decode("utf-8"),
                "cached bytes still match the cold CLI reference",
            )
            warm_sharded = client.artifact("fork_threshold", **SHARDED_ARGS)
            check(
                warm_sharded.get("cache") == "hit",
                f"restarted daemon serves fork_threshold from the durable "
                f"store (cache={warm_sharded.get('cache')!r})",
            )
            check(
                deterministic_sha(warm_sharded) == deterministic_sha(sharded),
                "cached fork_threshold bytes match the pool-computed miss",
            )
            stats = client.stats()["counters"]
            check(
                not stats.get("serve.computes"),
                "cache hits computed nothing in the new process",
            )
            check(
                not pool_counters(stats),
                f"cache hits never touched the warm worker pool "
                f"(counters: {pool_counters(stats)})",
            )
            check(
                stats.get("serve.cache.hits", 0) >= 2,
                "hit counter ticked for both requests",
            )
        finally:
            stop_daemon(daemon, client)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if _failures:
        print(f"\nserve drill FAILED ({len(_failures)} violation(s)):")
        for failure in _failures:
            print(f"  - {failure}")
        return 1
    print("\nserve drill passed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--duplicates", type=int, default=3,
        help="concurrent identical fig3 requests to fire (default 3)",
    )
    args = parser.parse_args(argv)
    try:
        return drill(args.duplicates)
    except (ServeError, subprocess.CalledProcessError) as exc:
        print(f"serve drill setup failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
