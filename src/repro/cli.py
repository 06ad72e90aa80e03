"""Command-line interface: regenerate any paper artifact from a terminal.

::

    python -m repro figures            # list the artifacts
    python -m repro fig3               # information gain (Fig. 3)
    python -m repro fig2 --period jul2016 --scale 600
    python -m repro table2
    python -m repro chaos --plan partition --seed 3
    python -m repro generate --out ledger.jsonl.gz --payments 20000
    python -m repro attack --seed 3    # run one latte attack
    python -m repro artifact fig3 --out fig3.txt --trace
    python -m repro metrics --artifact fig3 --format prom
    python -m repro manifest fig3.txt.manifest.json
    python -m repro serve --socket /tmp/repro.sock   # artifact daemon

Artifact commands (``fig2``–``fig7``, ``table2``, ``chaos``) dispatch
through the :data:`repro.api.ARTIFACTS` registry — the CLI has no
per-artifact logic of its own.  Every subcommand shares one flag set
(``--seed/--scale/--out/--profile/--trace`` plus ``--payments/
--archive``) via a common parent parser.  The parsed namespace never
crosses the API boundary: each dispatch builds a typed
:class:`~repro.api.request.ArtifactRequest` — the same object the
``serve`` daemon decodes from a JSON body — and hands that to the
registry.

Observability (:mod:`repro.obs`) hangs off two flags: ``--trace [PATH]``
collects a structured span trace and enables the metrics registry, and
any run that writes a file (``--out`` or ``--trace``) seals a
``*.manifest.json`` run manifest next to it.  With both flags absent the
artifact bytes are identical to a build without the observability layer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

import repro.chaos.report  # noqa: F401  (registers the 'chaos' artifact)
from repro.api import ARTIFACTS, ArtifactRequest, artifact, economy_config
from repro.chaos.cascade import CASCADE_KINDS  # registers 'cascade'
from repro.durability import atomic_write
from repro.errors import AnalysisError
from repro.api.artifacts import dataset_for as _dataset_for  # noqa: F401
from repro.chaos.plan import PLANS
from repro.chaos.scenarios import SCENARIOS
from repro.obs.manifest import (
    RUN,
    build_manifest,
    deterministic_view,
    manifest_destination,
    output_entry,
    request_fingerprint,
    validate_manifest,
    write_run_manifest,
)
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.stream.periods import PERIODS
from repro.synthetic.generator import generate_history


def cmd_figures(_args: argparse.Namespace) -> int:
    for name, entry in ARTIFACTS.items():
        print(f"  {name:7s} {entry.description}")
    return 0


def _trace_destination(args: argparse.Namespace, name: str) -> Optional[str]:
    """Where ``--trace`` goes: explicit path, or derived from ``--out``."""
    trace = getattr(args, "trace", None)
    if trace is None:
        return None
    if trace != "auto":
        return trace
    if getattr(args, "out", None):
        return f"{args.out}.trace.jsonl"
    return f"{name}.trace.jsonl"


def cmd_artifact(args: argparse.Namespace) -> int:
    """Dispatch any registered artifact: compute, render, print, maybe save.

    A run that writes anything (``--out`` and/or ``--trace``) is sealed
    with a run manifest — ``<out>.manifest.json`` (anchored on the trace
    path when there is no ``--out``) recording the invocation, the
    deterministic phase-span rollup, ingest/degradation events, and the
    sha256 of every output.
    """
    name = getattr(args, "name", None) or args.command
    trace_path = _trace_destination(args, name)
    out_path = getattr(args, "out", None)
    observing = bool(trace_path or out_path)
    # Restore the prior enablement on exit: main() is re-entrant (tests,
    # embedding), so one --trace run must not leave the process-wide
    # registries hot for the next caller.
    tracer_was_enabled = TRACER.enabled
    metrics_were_enabled = METRICS.enabled
    if observing:
        RUN.reset()
        TRACER.reset()
        TRACER.enable()
    if trace_path:
        METRICS.reset()
        METRICS.enable()
    try:
        started_at = time.time()
        t0 = time.perf_counter()
        try:
            # The parsed namespace stops here: computation and rendering
            # run on the typed request — the same currency the serve
            # daemon builds from a JSON body — and the manifest
            # fingerprint is computed *before* any work starts.
            request = ArtifactRequest.from_namespace(args, name=name)
            fingerprint = request_fingerprint(request)
            entry = artifact(name)
            result = entry.compute_payload(request)
            text = entry.render_text(result, request)
        except AnalysisError as exc:  # ArtifactError/IntegrityError included
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        duration = time.perf_counter() - t0
        print(text)
        outputs = []
        if out_path:
            # Atomic + manifest-sealed: a crash mid-save never leaves a
            # half-rendered figure where a complete one used to be.
            with atomic_write(
                out_path, manifest=True, fmt="repro-artifact/1"
            ) as handle:
                handle.write(text + "\n")
            print(f"wrote {out_path}", file=sys.stderr)
            outputs.append(output_entry(out_path, kind="artifact"))
        for extra in result.output_paths:
            if os.path.exists(extra):
                outputs.append(output_entry(extra, kind="aux"))
        if trace_path:
            spans = TRACER.write(trace_path)
            print(f"wrote {trace_path} ({spans} spans)", file=sys.stderr)
            outputs.append(
                output_entry(trace_path, kind="trace", volatile=True)
            )
        if observing:
            payload = build_manifest(
                name, request, text, outputs, started_at, duration,
                result=result, fingerprint=fingerprint,
            )
            destination = manifest_destination(out_path or trace_path)
            write_run_manifest(destination, payload)
            print(f"wrote {destination}", file=sys.stderr)
        return 0
    finally:
        TRACER.enabled = tracer_was_enabled
        METRICS.enabled = metrics_were_enabled


def cmd_metrics(args: argparse.Namespace) -> int:
    """Expose the metrics registry, optionally after computing an artifact."""
    METRICS.enable()
    name = getattr(args, "artifact", None)
    if name:
        try:
            request = ArtifactRequest.from_namespace(args, name=name)
            artifact(name).compute_payload(request)
        except AnalysisError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
    if args.format == "json":
        print(METRICS.to_json())
    else:
        print(METRICS.to_prom(), end="")
    return 0


def cmd_manifest(args: argparse.Namespace) -> int:
    """Validate a run manifest against the shipped schema."""
    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"manifest: {exc}", file=sys.stderr)
        return 2
    errors = validate_manifest(payload)
    if errors:
        for error in errors:
            print(f"manifest: {error}", file=sys.stderr)
        return 1
    if getattr(args, "deterministic", False):
        print(json.dumps(deterministic_view(payload), indent=2, sort_keys=True))
    else:
        print(f"{args.path}: valid "
              f"(manifest_version {payload['manifest_version']}, "
              f"artifact {payload['artifact']})")
    return 0


def _checked(command):
    """Give a non-artifact command a checked :class:`ArtifactRequest`.

    The command reads its economy and dataset parameters from the
    request, so the request's range checks (``--payments 0``,
    ``--scale 0`` …) reach it; a failed check, like any
    :class:`AnalysisError` the command raises, is one line on stderr and
    exit 2.
    """

    def run(args: argparse.Namespace) -> int:
        try:
            return command(args, ArtifactRequest.from_namespace(args))
        except AnalysisError as exc:
            print(f"{args.command}: {exc}", file=sys.stderr)
            return 2

    return run


@_checked
def cmd_generate(args: argparse.Namespace, request: ArtifactRequest) -> int:
    from repro.analysis.archive import dump_archive

    if not args.out:
        print("generate: --out is required", file=sys.stderr)
        return 2
    history = generate_history(economy_config(request))
    written = dump_archive(history.records, args.out)
    print(f"wrote {written} payments to {args.out}")
    return 0


@_checked
def cmd_defenses(_args: argparse.Namespace, request: ArtifactRequest) -> int:
    from repro.core.defenses import standard_defense_suite
    from repro.core.resolution import FIGURE3_FEATURE_LISTS

    _, dataset = _dataset_for(request)
    label = FIGURE3_FEATURE_LISTS[0].label()
    print("De-anonymization countermeasures (IG at full resolution):")
    for report in standard_defense_suite(dataset):
        print(f"  {report.name:22s} {report.ig_before[label]:6.2f}% -> "
              f"{report.ig_after[label]:6.2f}%")
        for cost, value in report.costs.items():
            print(f"      {cost}: {value:,.2f}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant artifact daemon until shutdown.

    Binds a Unix socket (``--socket``) or TCP port (``--port``); each
    connection carries one JSON request line and receives one envelope
    line back.  Results are cached by manifest fingerprint in the
    durable store (``--cache-dir``, default ``.repro-serve-cache``) and
    identical in-flight requests share one computation.
    """
    from repro.serve.daemon import ArtifactServer, run_server

    if not args.socket and not args.port:
        print("serve: need --socket PATH or --port N", file=sys.stderr)
        return 2
    app = ArtifactServer(
        cache_dir=getattr(args, "cache_dir", None),
        default_jobs=getattr(args, "jobs", None),
        ingest_state_dir=getattr(args, "ingest_state_dir", None),
    )
    try:
        return run_server(
            app,
            socket_path=args.socket,
            host=args.host,
            port=args.port or 0,
            drain_timeout=getattr(args, "drain_timeout", 30.0),
        )
    except AnalysisError as exc:  # the listener could not be bound
        print(f"serve: {exc}", file=sys.stderr)
        return 2


def cmd_ingest(args: argparse.Namespace) -> int:
    """Run the event-sourced live ingest pipeline until the source drains.

    Tails a replayed archive (``--archive``) through the WAL →
    OnlineState → snapshot loop under the supervisor: accepted events
    are fsynced before they are applied, snapshots seal on a cadence,
    and a ``kill -9`` at any instant resumes — from the same state dir —
    to a state digest identical to an uninterrupted run.  SIGTERM/SIGINT
    request a graceful drain: the WAL is flushed, a final snapshot
    sealed, and the process exits 0.
    """
    import itertools
    import signal
    from dataclasses import replace

    from repro.errors import IngestError
    from repro.online import IngestConfig, archive_event_source
    from repro.online.supervisor import DEFAULT_RETRY, IngestSupervisor

    if not args.archive:
        print("ingest: --archive PATH is required", file=sys.stderr)
        return 2
    config = IngestConfig(
        state_dir=args.state_dir,
        snapshot_every=args.snapshot_every,
        wal_segment_events=args.wal_segment_events,
        keep_snapshots=args.keep_snapshots,
        status_every=args.status_every,
        fsync=not args.no_fsync,
    )

    def source(start_seq: int):
        events = archive_event_source(args.archive, start_seq)
        if args.events is not None:
            remaining = max(0, args.events - start_seq)
            events = itertools.islice(events, remaining)
        return events

    supervisor = IngestSupervisor(
        config,
        source,
        heartbeat_timeout=args.heartbeat_timeout,
        retry=replace(DEFAULT_RETRY, max_retries=args.max_restarts),
    )

    def _drain(_signum, _frame):
        supervisor.request_stop()

    previous = {
        sig: signal.signal(sig, _drain)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        digest, pipeline = supervisor.run()
    except (IngestError, AnalysisError) as exc:
        print(f"ingest: {exc}", file=sys.stderr)
        return 1
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    print(pipeline.state.summary())
    print(f"state digest {digest}")
    print(f"state dir {config.state_dir} "
          f"(wal segments {pipeline.wal.segment_count()}, "
          f"replayed {pipeline.replayed}, restarts {supervisor.restarts})",
          file=sys.stderr)
    return 0


@_checked
def cmd_rewards(_args: argparse.Namespace, request: ArtifactRequest) -> int:
    from repro.consensus.rewards import compare_policies

    print("Validator reward proposal (Section IV): tax sweep")
    for tax, validators, exposure in compare_policies(
        [0.0, 0.01, 0.05, 0.2], seed=request.seed, epochs=40
    ):
        print(f"  tax {tax:5.2f}/tx -> equilibrium validators {validators:4d}, "
              f"top-3 signature share {exposure:.1%}")
    return 0


@_checked
def cmd_attack(_args: argparse.Namespace, request: ArtifactRequest) -> int:
    import numpy as np

    from repro.core.attack import Observation, SideChannelAttack

    history, dataset = _dataset_for(request)
    attack = SideChannelAttack(dataset, history.state if history else None)
    rng = np.random.default_rng(request.seed)
    rows = np.flatnonzero(dataset.kinds == "fiat")
    row = int(rng.choice(rows))
    observation = Observation(
        destination=dataset.accounts[int(dataset.destination_ids[row])],
        currency=dataset.currency_code(int(dataset.currency_ids[row])),
        amount=float(dataset.amounts[row]),
        timestamp=int(dataset.timestamps[row]),
    )
    result = attack.run(observation)
    print(f"observed: {observation.amount:g} {observation.currency} "
          f"-> {observation.destination.short()} @ t={observation.timestamp}")
    if not result.succeeded:
        print(f"ambiguous: {len(result.candidates)} candidate senders")
        return 1
    print(f"identified sender: {result.sender.address}")
    if result.profile is not None:
        profile = result.profile
        print(f"  payments sent/received: {profile.payments_sent}/"
              f"{profile.payments_received}")
        print(f"  total spent (EUR): {profile.total_spent_eur:,.2f}")
    return 0


def _common_parent() -> argparse.ArgumentParser:
    """The flag set every subcommand shares (the unified CLI surface).

    ``--profile`` uses ``SUPPRESS`` so a subcommand parse never clobbers
    the top-level ``--profile`` already recorded in the namespace
    (``python -m repro --profile fig3`` and ``python -m repro fig3
    --profile`` are both accepted).
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--seed", type=int, default=20170652,
                        help="master RNG seed (default 20170652)")
    parent.add_argument("--scale", type=int, default=600,
                        help="simulate 1/SCALE of a collection period")
    parent.add_argument("--out", type=str, default=None,
                        help="also write the output to this path")
    parent.add_argument("--payments", type=int, default=12_000,
                        help="synthetic history size (default 12000)")
    parent.add_argument("--archive", type=str, default=None,
                        help="read payments from a dumped archive instead")
    parent.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for sharded artifacts; only "
                             "fork_threshold shards, every other artifact "
                             "runs serially (default 1 = serial; output is "
                             "bit-identical either way)")
    parent.add_argument("--quarantine", action="store_true", default=False,
                        help="lenient ingest: schema-validate each archive "
                             "line, divert bad ones to "
                             "<archive>.quarantine.jsonl with the reason, "
                             "abort past a 1%% bad-line fraction")
    parent.add_argument("--profile", action="store_true",
                        default=argparse.SUPPRESS,
                        help="collect perf counters/timers and report on exit")
    parent.add_argument("--trace", nargs="?", const="auto", default=None,
                        metavar="PATH",
                        help="write a structured span trace (JSONL) and "
                             "enable metrics; without PATH the trace lands "
                             "next to --out (or ./<artifact>.trace.jsonl)")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the ICDCS'17 Ripple study's tables and figures.",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        default=False,
        help="collect perf counters/timers and print a report on exit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    parent = _common_parent()

    sub = subparsers.add_parser("figures", parents=[parent],
                                help="list reproducible artifacts")
    sub.set_defaults(func=cmd_figures)

    # Every registered artifact becomes a subcommand dispatching through
    # the registry; only artifact-specific flags are declared here.
    for name, entry in ARTIFACTS.items():
        sub = subparsers.add_parser(name, parents=[parent],
                                    help=entry.description)
        if name == "fig2":
            sub.add_argument("--period", default=None,
                             choices=[s.key for s in PERIODS])
        elif name == "fig4":
            # Default None, not 25: an explicit default would key the
            # request fingerprint differently from an omitted flag.
            # The renderer applies the paper's top-25 when unset.
            sub.add_argument("--top", type=int, default=None)
        elif name == "fig7":
            sub.add_argument("--top", type=int, default=None)
        elif name == "chaos":
            sub.add_argument("--plan", default="partition",
                             choices=sorted(set(PLANS) | set(SCENARIOS)),
                             help="named fault plan or scenario pack")
            sub.add_argument("--rounds", type=int, default=240,
                             help="ledger-close attempts to drive")
        elif name == "fork_threshold":
            sub.add_argument("--rounds", type=int, default=240,
                             help="ledger-close attempts per sweep point")
        elif name == "health":
            # Defaults stay None (the fig4 --top rule): an explicit
            # default must fingerprint identically to an omitted flag.
            sub.add_argument("--pairs", type=int, default=None,
                             help="settlability probe pair sample size")
            sub.add_argument("--amount", type=float, default=None,
                             help="settlability target amount")
        elif name == "cascade":
            sub.add_argument("--kind", default=None, choices=CASCADE_KINDS,
                             help="cascade scenario kind")
            sub.add_argument("--waves", type=int, default=None,
                             help="removal waves / unwind rounds")
            sub.add_argument("--pairs", type=int, default=None,
                             help="settlability probe pair sample size")
            sub.add_argument("--amount", type=float, default=None,
                             help="settlability target amount")
        sub.set_defaults(func=cmd_artifact)

    sub = subparsers.add_parser("generate", parents=[parent],
                                help="dump a synthetic ledger archive")
    sub.set_defaults(func=cmd_generate)

    sub = subparsers.add_parser("attack", parents=[parent],
                                help="run one latte attack")
    sub.set_defaults(func=cmd_attack)

    sub = subparsers.add_parser(
        "defenses", parents=[parent],
        help="evaluate de-anonymization countermeasures",
    )
    sub.set_defaults(func=cmd_defenses)

    sub = subparsers.add_parser(
        "rewards", parents=[parent],
        help="simulate the Section IV validator-reward proposal",
    )
    sub.set_defaults(func=cmd_rewards)

    sub = subparsers.add_parser(
        "artifact", parents=[parent],
        help="run any registered artifact by name (scripting/CI form)",
    )
    sub.add_argument("name", help="registered artifact name (see 'figures')")
    sub.set_defaults(func=cmd_artifact)

    sub = subparsers.add_parser(
        "serve", parents=[parent],
        help="run the multi-tenant artifact daemon (manifest-keyed cache)",
    )
    sub.add_argument("--socket", default=None, metavar="PATH",
                     help="bind a unix stream socket at PATH")
    sub.add_argument("--host", default="127.0.0.1",
                     help="TCP bind address (with --port; default 127.0.0.1)")
    sub.add_argument("--port", type=int, default=None,
                     help="bind a TCP port instead of a unix socket")
    sub.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="durable result store root (default "
                          ".repro-serve-cache or $REPRO_SERVE_CACHE)")
    sub.add_argument("--ingest-state-dir", default=None, metavar="DIR",
                     help="default state dir the live_status op reads "
                          "(a running 'repro ingest' writes it)")
    sub.add_argument("--drain-timeout", type=float, default=30.0,
                     metavar="SEC",
                     help="max wait for in-flight requests on shutdown/"
                          "SIGTERM (default 30s)")
    sub.set_defaults(func=cmd_serve)

    sub = subparsers.add_parser(
        "ingest", parents=[parent],
        help="run the crash-safe live ingest pipeline over an archive",
    )
    sub.add_argument("--state-dir", default=".repro-ingest", metavar="DIR",
                     help="WAL + snapshot + status root "
                          "(default .repro-ingest)")
    sub.add_argument("--snapshot-every", type=int, default=1000,
                     metavar="N", help="events between sealed snapshots "
                                       "(default 1000; 0 disables)")
    sub.add_argument("--wal-segment-events", type=int, default=512,
                     metavar="N", help="events per WAL segment before it "
                                       "is sealed (default 512)")
    sub.add_argument("--keep-snapshots", type=int, default=3, metavar="N",
                     help="verified snapshots retained (default 3)")
    sub.add_argument("--status-every", type=int, default=200, metavar="N",
                     help="events between status.json refreshes "
                          "(default 200)")
    sub.add_argument("--events", type=int, default=None, metavar="N",
                     help="stop after the first N archive events")
    sub.add_argument("--max-restarts", type=int, default=5, metavar="N",
                     help="supervisor restart budget (default 5)")
    sub.add_argument("--heartbeat-timeout", type=float, default=30.0,
                     metavar="SEC",
                     help="watchdog stall threshold (default 30s)")
    sub.add_argument("--no-fsync", action="store_true", default=False,
                     help="skip per-event fsync (tests only; weakens the "
                          "crash guarantee)")
    sub.set_defaults(func=cmd_ingest)

    sub = subparsers.add_parser(
        "metrics", parents=[parent],
        help="print the metrics exposition (optionally after an artifact)",
    )
    sub.add_argument("--artifact", default=None, metavar="NAME",
                     help="compute this artifact first, then expose")
    sub.add_argument("--format", choices=("prom", "json"), default="prom",
                     help="exposition format (default prom)")
    sub.set_defaults(func=cmd_metrics)

    sub = subparsers.add_parser(
        "manifest", parents=[parent],
        help="validate a run manifest against the shipped schema",
    )
    sub.add_argument("path", help="path to a *.manifest.json file")
    sub.add_argument("--deterministic", action="store_true", default=False,
                     help="print the strategy-independent view instead "
                          "(serial and --jobs N runs must agree on it)")
    sub.set_defaults(func=cmd_manifest)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The human-readable counter report prints only when profiling was
    # asked for (flag or env) — --trace also enables the registry, but
    # its consumers are the manifest and the 'metrics' exposition.
    profiling = (
        getattr(args, "profile", False)
        or os.environ.get("REPRO_PROFILE", "") not in ("", "0")
    )
    if profiling:
        METRICS.enable()
    try:
        return args.func(args)
    finally:
        if profiling and METRICS.enabled:
            print(METRICS.report(), file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
