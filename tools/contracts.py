"""Contract runner — every golden, claim and serial-vs-jobs check in one table.

Each row of :data:`CASES` is one CLI invocation whose serial output is
computed once, then held to what the case declares: a committed
**golden** under ``examples/`` (byte-equal), **claims** (regex
predicates for what DESIGN §15 and §17 assert: a recorded fork, a
violation-free halt, Table II's point at the end of the outage
cascade, ...), and **jobs** (each ``--jobs N`` rerun prints the serial
bytes: sharding is an execution strategy, not an answer).

Two contracts need live processes and run as procedures after the table:

* **serve** — concurrent duplicate requests to a real ``repro serve``
  daemon collapse onto one compute per fingerprint and equal the fig3
  case's CLI bytes; a sharded ``fork_threshold`` miss runs on the warm
  worker pool; a restarted daemon serves both as durable cache hits
  without computing or touching the pool;
* **live** — a ``repro ingest`` over a poison-seeded archive, SIGKILLed
  twice mid-stream and resumed, ends at a never-killed run's state
  digest; a SIGTERM mid-stream drains to exit 0.

Run ``python tools/contracts.py`` (or ``make contracts``).  After an
intentional behaviour change, ``--update`` rewrites the goldens from
this run's output (say why in the commit message).

Exit code 0 = pass, 1 = contract violation, 2 = setup failure.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.serve.client import ServeClient, ServeError  # noqa: E402

#: Child ``python -m repro`` processes import the same source tree.
ENV = {**os.environ, "PYTHONPATH": SRC}

#: A claim: what it asserts, and the predicate over the rendered report.
Claim = Tuple[str, Callable[[str], bool]]


@dataclass(frozen=True)
class Case:
    name: str
    #: ``python -m repro`` arguments of the serial run.
    argv: Tuple[str, ...]
    #: Committed golden, relative to the repository root.
    golden: Optional[str] = None
    claims: Tuple[Claim, ...] = ()
    #: ``--jobs`` values whose output must equal the serial run's.
    jobs: Tuple[int, ...] = ()


def final_wave(report: str, noun: str) -> Tuple[float, float, bool]:
    """(intact rate, final-wave rate, every ``noun`` removed) off a cascade
    table; a table that does not parse reads (0, 0, False), failing every
    claim made of it."""
    intact = re.search(r"^\s*0\s+intact\s+\d+/\d+\s+(\d+\.\d)%",
                       report, re.MULTILINE)
    waves = re.findall(
        rf"^\s*\d+\s+(\d+)/(\d+) {noun} out\s+\d+/\d+\s+(\d+\.\d)%",
        report, re.MULTILINE,
    )
    if not intact or not waves:
        return 0.0, 0.0, False
    removed, population, rate = waves[-1]
    return float(intact.group(1)), float(rate), removed == population


def all_removed(noun: str) -> Callable[[str], bool]:
    return lambda report: final_wave(report, noun)[2]


def collapses(noun: str) -> Callable[[str], bool]:
    def holds(report: str) -> bool:
        intact, final, _ = final_wave(report, noun)
        return final < intact
    return holds


def unwinds_every_round(report: str) -> bool:
    unwound = re.findall(r"round \d+: (\d+) lines unwound", report)
    return bool(unwound) and all(int(n) > 0 for n in unwound)


def pays_in_liveness(report: str) -> bool:
    liveness = re.search(r"liveness violations\s+(\d+)", report)
    return liveness is not None and int(liveness.group(1)) > 0


HEALTH_DIMENSIONS = (
    "Wallet liquidity",
    "IOU issuer concentration",
    "Trust-limit utilization",
    "Settlability",
)

#: The paper-artifact smoke scale; the serve contract reuses it so the
#: fig3 case's serial output is the daemon's cold-CLI reference.
PAPER_PAYMENTS, PAPER_SEED = 4000, 7
PAPER = ("--payments", str(PAPER_PAYMENTS), "--seed", str(PAPER_SEED))
CASCADE = ("--payments", "2000", "--seed", "7")

CASES: Tuple[Case, ...] = (
    Case(
        "amores-cachin-delay",
        ("chaos", "--plan", "amores-cachin-delay", "--seed", "7",
         "--rounds", "60"),
        golden="examples/scenarios/amores-cachin-delay.txt",
        claims=(
            ("records conflicting validated pages (FORK events)",
             lambda r: re.search(r"FORK sequence \d+", r) is not None),
            ("safety count is nonzero",
             lambda r: re.search(r"safety violations\s+0", r) is None),
        ),
    ),
    Case(
        "sissle-fixed",
        ("chaos", "--plan", "sissle-fixed", "--seed", "7", "--rounds", "60"),
        golden="examples/scenarios/sissle-fixed.txt",
        claims=(
            ("completes violation-free",
             lambda r: re.search(r"safety violations\s+0", r) is not None
             and "FORK" not in r),
            ("pays in liveness instead", pays_in_liveness),
        ),
    ),
    Case(
        "fork_threshold",
        ("fork_threshold", "--rounds", "60"),
        golden="examples/scenarios/fork_threshold.txt",
        claims=(
            ("the sweep locates an empirical fork threshold",
             lambda r: "empirical fork threshold" in r),
        ),
        jobs=(2, 4),
    ),
    Case(
        "outage",
        ("cascade", "--kind", "outage", *CASCADE, "--waves", "2",
         "--pairs", "40"),
        golden="examples/cascades/outage.txt",
        claims=(
            ("the final wave removes every market maker (Table II's point)",
             all_removed("makers")),
            ("delivery collapses below the intact control",
             collapses("makers")),
            ("the report cites the Table II counterfactual",
             lambda r: "Table II" in r),
        ),
        jobs=(2,),
    ),
    Case(
        "gateway-default",
        ("cascade", "--kind", "gateway-default", *CASCADE, "--waves", "2",
         "--pairs", "40"),
        golden="examples/cascades/gateway-default.txt",
        claims=(
            ("the final wave defaults every gateway",
             all_removed("gateways")),
            ("delivery collapses below the intact control",
             collapses("gateways")),
        ),
    ),
    Case(
        "unwind",
        ("cascade", "--kind", "unwind", *CASCADE, "--waves", "3",
         "--pairs", "40"),
        golden="examples/cascades/unwind.txt",
        claims=(
            ("lines are liquidated every round", unwinds_every_round),
            ("no delivery replay (em-dashed column)",
             lambda r: re.search(r"lines unwound\s+—\s+—", r) is not None),
        ),
    ),
    Case(
        "health",
        ("health", *CASCADE, "--pairs", "80"),
        golden="examples/cascades/health.txt",
        claims=(
            ("the report renders all four dimensions",
             lambda r: all(h in r for h in HEALTH_DIMENSIONS)),
        ),
        jobs=(2,),
    ),
    Case(
        "fig2",
        ("fig2", "--seed", "7"),
        golden="examples/figures/fig2.txt",
        claims=(
            ("some validators sign pages that never reach the main ledger",
             lambda r: re.search(r"^\s+\S+\s+[1-9]\d*\s+0$", r,
                                 re.MULTILINE) is not None),
        ),
    ),
    Case("fig3", ("fig3", *PAPER), jobs=(4,)),
    Case("fig5", ("fig5", *PAPER), jobs=(4,)),
    Case("table2", ("table2", *PAPER), jobs=(4,)),
    Case("population", ("population", *PAPER), jobs=(4,)),
)


class Runner:
    """Prints one line per check and remembers which case each failure hit."""

    def __init__(self) -> None:
        self.case = ""
        self.failures: List[str] = []

    def begin(self, case: str) -> None:
        self.case = case
        print(f"== {case} ==")

    def check(self, condition: bool, message: str) -> None:
        print(f"  [{'ok' if condition else 'FAIL'}] {message}")
        if not condition:
            self.failures.append(f"{self.case}: {message}")


def repro(argv: Tuple[str, ...]) -> List[str]:
    return [sys.executable, "-m", "repro", *argv]


def run_cli(argv: Tuple[str, ...]) -> str:
    return subprocess.run(
        repro(argv), check=True, capture_output=True, text=True,
        env=ENV,
    ).stdout


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_golden(runner: Runner, text: str, golden: str) -> None:
    with open(os.path.join(ROOT, golden), encoding="utf-8") as handle:
        expected = handle.read()
    runner.check(
        text == expected,
        f"matches {golden} (sha256 {sha(expected)[:12]}"
        + ("" if text == expected else f", got {sha(text)[:12]}") + ")",
    )


def run_case(runner: Runner, case: Case, runs: Dict[Tuple[str, ...], Future],
             update: bool) -> str:
    """Check one case against its CLI runs, already started in ``runs``."""
    runner.begin(case.name)
    text = runs[case.argv].result()
    if case.golden and update:
        with open(os.path.join(ROOT, case.golden), "w",
                  encoding="utf-8") as handle:
            handle.write(text)
        print(f"  [updated] {case.golden}")
    elif case.golden:
        check_golden(runner, text, case.golden)
    for message, holds in case.claims:
        runner.check(holds(text), message)
    for jobs in case.jobs:
        runner.check(
            runs[jobs_argv(case, jobs)].result() == text,
            f"--jobs {jobs} is byte-identical to serial",
        )
    return text


def jobs_argv(case: Case, jobs: int) -> Tuple[str, ...]:
    return (*case.argv, "--jobs", str(jobs))


# serve -----------------------------------------------------------------------

#: Concurrent identical fig3 requests fired at the daemon.
DUPLICATES = 3
PAPER_REQUEST = {"payments": PAPER_PAYMENTS, "seed": PAPER_SEED}
#: The one sharded artifact, small enough to compute in a few seconds.
SHARDED_REQUEST = {"rounds": 12, "jobs": 2}


def deterministic_sha(envelope: Dict[str, Any]) -> str:
    """sha256 of the envelope core: the transport annotations stripped."""
    core = {k: v for k, v in envelope.items() if k not in ("cache", "detail")}
    return sha(json.dumps(core, sort_keys=True))


def pool_counters(stats: Dict[str, Any]) -> List[str]:
    return sorted(name for name in stats if name.startswith("parallel.pool."))


def start_daemon(socket_path: str, cache_dir: str) -> subprocess.Popen:
    process = subprocess.Popen(
        repro(("serve", "--socket", socket_path, "--cache-dir", cache_dir)),
        env=ENV, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        ServeClient(socket_path=socket_path).wait_ready(attempts=100,
                                                        delay=0.1)
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


def fire_concurrently(client: ServeClient) -> List[Dict[str, Any]]:
    """``DUPLICATES`` identical fig3 requests plus one distinct fig4, at once.

    A request that raised is left out, so the answered count falls short.
    """
    with ThreadPoolExecutor(DUPLICATES + 1) as pool:
        futures = [
            pool.submit(client.artifact, "fig3", jobs=2, **PAPER_REQUEST)
            for _ in range(DUPLICATES)
        ]
        futures.append(pool.submit(client.artifact, "fig4", **PAPER_REQUEST))
        return [f.result() for f in futures if f.exception() is None]


def serve_contract(runner: Runner, workdir: str, reference: str) -> None:
    """The daemon against ``reference``, the fig3 case's CLI bytes."""
    socket_path = os.path.join(workdir, "serve.sock")
    cache_dir = os.path.join(workdir, "cache")
    client = ServeClient(socket_path=socket_path, timeout=300)

    runner.begin("serve: concurrent duplicates")
    daemon = start_daemon(socket_path, cache_dir)
    try:
        responses = fire_concurrently(client)
        runner.check(len(responses) == DUPLICATES + 1,
                     f"all {DUPLICATES + 1} concurrent requests answered")
        runner.check(all(r["status"] == "ok" for r in responses),
                     "every response has status ok")
        fig3 = [r for r in responses if r["artifact"] == "fig3"]
        runner.check(len({deterministic_sha(r) for r in fig3}) == 1,
                     f"{len(fig3)} duplicate responses are sha256-identical")
        runner.check(fig3[0]["rendered_text"] + "\n" == reference,
                     "served fig3 matches the CLI bytes exactly")
        stats = client.stats()["counters"]
        runner.check(stats.get("serve.computes") == 2,
                     f"exactly one compute per distinct fingerprint "
                     f"(serve.computes={stats.get('serve.computes')})")
        runner.check(stats.get("serve.requests") == DUPLICATES + 1,
                     "every request was counted")

        runner.begin("serve: sharded miss on the warm pool")
        sharded = client.artifact("fork_threshold", **SHARDED_REQUEST)
        runner.check(sharded["status"] == "ok", "daemon answers fork_threshold")
        runner.check(sharded.get("cache") == "miss",
                     f"first fork_threshold is computed "
                     f"(cache={sharded.get('cache')!r})")
        pool = pool_counters(client.stats()["counters"])
        runner.check(bool(pool), f"jobs=2 miss ran on the warm worker pool "
                                 f"(counters: {pool})")
    finally:
        stop_daemon(daemon, client)

    runner.begin("serve: restart, durable cache hits")
    daemon = start_daemon(socket_path, cache_dir)
    try:
        warm = client.artifact("fig3", **PAPER_REQUEST)
        runner.check(warm["status"] == "ok", "restarted daemon answers fig3")
        runner.check(warm.get("cache") == "hit",
                     f"restarted daemon serves from the durable store "
                     f"(cache={warm.get('cache')!r})")
        runner.check(warm["rendered_text"] + "\n" == reference,
                     "cached bytes still match the CLI bytes")
        warm_sharded = client.artifact("fork_threshold", **SHARDED_REQUEST)
        runner.check(warm_sharded.get("cache") == "hit",
                     f"restarted daemon serves fork_threshold from the "
                     f"durable store (cache={warm_sharded.get('cache')!r})")
        runner.check(
            deterministic_sha(warm_sharded) == deterministic_sha(sharded),
            "cached fork_threshold bytes match the pool-computed miss",
        )
        stats = client.stats()["counters"]
        runner.check(not stats.get("serve.computes"),
                     "cache hits computed nothing in the new process")
        runner.check(not pool_counters(stats),
                     f"cache hits never touched the warm worker pool "
                     f"(counters: {pool_counters(stats)})")
        runner.check(stats.get("serve.cache.hits", 0) >= 2,
                     "hit counter ticked for both requests")
    finally:
        stop_daemon(daemon, client)


# live ------------------------------------------------------------------------

#: Payments in the poison-seeded archive the live contract ingests.
LIVE_PAYMENTS = 2000
DIGEST_RE = re.compile(r"^state digest ([0-9a-f]{64})$", re.MULTILINE)


def ingest_argv(archive: str, state_dir: str) -> Tuple[str, ...]:
    return (
        "ingest", "--archive", archive, "--state-dir", state_dir,
        "--snapshot-every", "150", "--wal-segment-events", "64",
        "--status-every", "25",
    )


def make_poisoned_archive(workdir: str) -> str:
    """A synthetic archive with two poison lines spliced into the body."""
    clean = os.path.join(workdir, "clean.jsonl.gz")
    subprocess.run(
        repro(("generate", "--payments", str(LIVE_PAYMENTS), "--seed", "7",
               "--out", clean)),
        check=True, env=ENV, stdout=subprocess.DEVNULL,
    )
    poisoned = os.path.join(workdir, "poisoned.jsonl.gz")
    with gzip.open(clean, "rt") as src, gzip.open(poisoned, "wt") as dst:
        dst.write(src.readline())  # header
        for number, line in enumerate(src):
            if number == 40:
                dst.write("{torn json never completed\n")
            if number == 200:
                dst.write('{"i": 0, "mystery": true}\n')
            dst.write(line)
    return poisoned


def ingest_to_completion(archive: str, state_dir: str) -> Tuple[int, str]:
    """(exit code, final digest) of an uninterrupted ingest."""
    result = subprocess.run(
        repro(ingest_argv(archive, state_dir)),
        env=ENV, capture_output=True, text=True,
    )
    if result.returncode != 0:
        print(result.stderr, file=sys.stderr)
        return result.returncode, ""
    match = DIGEST_RE.search(result.stdout)
    return 0, match.group(1) if match else ""


def read_status(state_dir: str) -> Optional[dict]:
    try:
        with open(os.path.join(state_dir, "status.json")) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def start_ingest(archive: str, state_dir: str, beyond_seq: int
                 ) -> Tuple[subprocess.Popen, int]:
    """Start an ingest and wait until its applied_seq passes ``beyond_seq``."""
    process = subprocess.Popen(
        repro(ingest_argv(archive, state_dir)),
        env=ENV, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline and process.poll() is None:
        status = read_status(state_dir)
        if status and status.get("applied_seq", -1) >= beyond_seq:
            return process, status["applied_seq"]
        time.sleep(0.02)
    if process.poll() is None:
        process.kill()
        process.wait(10)
    raise RuntimeError(
        f"ingest never reached seq {beyond_seq} "
        f"(exit code {process.returncode})"
    )


def live_contract(runner: Runner, workdir: str) -> None:
    runner.begin("live: never-killed reference")
    archive = make_poisoned_archive(workdir)
    total_events = LIVE_PAYMENTS + 2
    code, reference = ingest_to_completion(
        archive, os.path.join(workdir, "reference")
    )
    runner.check(code == 0 and len(reference) == 64,
                 f"reference ingest drained (digest {reference[:12]}…)")
    status = read_status(os.path.join(workdir, "reference"))
    runner.check(status is not None and status["events"] == total_events,
                 f"reference absorbed all {total_events} events")
    runner.check(status is not None and status["quarantined"] == 2,
                 "reference quarantined both poison lines")

    runner.begin("live: kill -9 twice, resume, finish")
    killed_dir = os.path.join(workdir, "killed")
    reached = []
    for beyond in (total_events // 4, total_events // 2):
        process, seq = start_ingest(archive, killed_dir, beyond)
        process.send_signal(signal.SIGKILL)
        process.wait(10)
        print(f"  SIGKILL at applied_seq {seq}")
        reached.append(seq)
    runner.check(reached[1] > reached[0],
                 "the resumed run made progress before the second kill")
    code, survived = ingest_to_completion(archive, killed_dir)
    runner.check(code == 0, "final resume ran to completion")
    runner.check(survived == reference,
                 f"killed-twice digest equals the never-killed digest "
                 f"({survived[:12]}… vs {reference[:12]}…)")
    status = read_status(killed_dir)
    runner.check(status is not None and status["events"] == total_events,
                 "no accepted event was lost or double-applied")
    runner.check(status is not None and status["quarantined"] == 2,
                 "poison quarantined exactly once despite replays")
    runner.check(status is not None and status["replayed"] > 0,
                 f"recovery actually replayed the WAL tail "
                 f"(replayed={status and status['replayed']})")

    runner.begin("live: SIGTERM drains gracefully")
    drain_dir = os.path.join(workdir, "drained")
    process, _ = start_ingest(archive, drain_dir, total_events // 4)
    process.send_signal(signal.SIGTERM)
    code = process.wait(30)
    runner.check(code == 0, f"SIGTERM exit status is 0 (got {code})")
    status = read_status(drain_dir)
    runner.check(status is not None and status["phase"] == "drained",
                 "status file records a clean drain")
    runner.check(status is not None and "digest" in status,
                 "drain sealed a final digest")


#: CLI runs in flight at once.  The table's invocations are independent
#: processes; two keep a two-core host busy while checks print in order.
CONCURRENT_RUNS = 2


def run(runner: Runner, update: bool) -> None:
    invocations = [
        argv for case in CASES
        for argv in (case.argv, *(jobs_argv(case, n) for n in case.jobs))
    ]
    pool = ThreadPoolExecutor(CONCURRENT_RUNS)
    try:
        runs = {argv: pool.submit(run_cli, argv) for argv in invocations}
        serial = {case.name: run_case(runner, case, runs, update)
                  for case in CASES}
    finally:
        pool.shutdown(cancel_futures=True)
    workdir = tempfile.mkdtemp(prefix="repro-contracts-")
    try:
        serve_contract(runner, workdir, serial["fig3"])
        live_contract(runner, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the committed goldens from this run's output",
    )
    args = parser.parse_args(argv)
    runner = Runner()
    try:
        run(runner, args.update)
    except (subprocess.CalledProcessError, OSError, RuntimeError,
            ServeError) as exc:
        print(f"contracts: setup failed in {runner.case}: {exc}",
              file=sys.stderr)
        if isinstance(exc, subprocess.CalledProcessError) and exc.stderr:
            print(exc.stderr, file=sys.stderr)
        return 2
    if runner.failures:
        print(f"\ncontracts FAILED ({len(runner.failures)} violation(s)):")
        for failure in runner.failures:
            print(f"  - {failure}")
        return 1
    print("\ncontracts passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
