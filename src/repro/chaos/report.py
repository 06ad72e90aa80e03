"""Rendering chaos drills, and their registration as a CLI artifact.

The report mirrors Fig. 2 of the paper — per-validator total vs. valid
signed pages — but adds the degradation ledger: how many closes needed
retries, how many sealed off a reduced quorum, how often the validation
stream dropped and recovered.  Importing this module registers the
``chaos`` artifact (and, via :mod:`repro.chaos.scenarios`, the
``fork_threshold`` sweep), so ``python -m repro chaos --plan partition``
dispatches through the same :mod:`repro.api` table as the figures.

``--plan`` also accepts the named adversarial scenario packs: drill
packs run through :func:`repro.chaos.scenarios.run_scenario` and render
their fork ledger on top of the health table; the ``unl-overlap-sweep``
pack delegates to the ``fork_threshold`` artifact's compute.
"""

from __future__ import annotations

from repro.api.registry import ArtifactResult, register
from repro.api.request import ArtifactRequest
from repro.chaos.drill import DrillReport, run_drill
from repro.chaos.plan import PLANS
from repro.chaos.scenarios import (
    SCENARIOS,
    ScenarioReport,
    _compute_fork_threshold,
    render_fork_threshold,
    run_scenario,
)


def _flags(row) -> str:
    marks = []
    if row.is_ripple_labs:
        marks.append("ripple-labs")
    if row.is_byzantine:
        marks.append("byzantine")
    return " ".join(marks)


def render_chaos_report(report: DrillReport) -> str:
    """The drill outcome as terminal text (Fig. 2 health + fault counters)."""
    plan = report.plan
    lines = [
        f"Chaos drill — plan '{plan.name}' (seed {report.seed}, "
        f"{report.rounds} close attempts)",
        f"  {plan.description}",
        f"  plan fingerprint {plan.fingerprint()[:12]}",
        "",
        "Ledger closes",
        f"  attempted {report.closes_attempted:5d}   "
        f"validated {report.validated_closes:5d}   "
        f"degraded {report.degraded_closes:4d}   "
        f"failed {report.failed_closes:4d}",
        f"  round retries {report.round_retries:4d}   "
        f"availability {report.availability * 100:5.1f}%",
        "",
        "Validation stream",
        f"  relayed {report.stream_relayed:6d}   "
        f"replayed {report.stream_replayed:5d}   "
        f"reconnects {report.stream_reconnects:3d}   "
        f"duplicates dropped {report.duplicates_dropped:5d}",
        "",
        "Injected faults",
    ]
    injected = report.counters.as_dict()
    disconnects = injected.pop("stream_disconnects")
    rows = list(injected.items()) + [
        ("round_retries", report.round_retries),
        ("degraded_rounds", report.degraded_closes),
        ("failed_closes", report.failed_closes),
        ("stream_disconnects", disconnects),
        ("stream_buffered", report.stream_buffered),
        ("stream_replayed", report.stream_replayed),
        ("duplicates_dropped", report.duplicates_dropped),
    ]
    for name, value in rows:
        if value:
            lines.append(f"  {name:24s} {value:8d}")
    if isinstance(report, ScenarioReport):
        lines += [
            "",
            f"Scenario '{report.scenario}' — {report.source}",
            f"  expected: {report.expected}",
            f"  safety violations  {report.safety_violations:5d}   "
            f"liveness violations {report.liveness_violations:5d}",
        ]
        for event in report.fork_events:
            lines.append(f"  FORK {event.describe()}")
    lines += [
        "",
        "Validator health (total vs. valid signed pages, as in Fig. 2)",
        f"  {'validator':26s} {'total':>7s} {'valid':>7s} {'valid%':>7s}",
    ]
    for row in report.health:
        lines.append(
            f"  {row.name:26s} {row.total_pages:7d} {row.valid_pages:7d} "
            f"{row.valid_fraction * 100:6.1f}%  {_flags(row)}".rstrip()
        )
    payments = (
        f"  payments applied {report.payments_applied}/"
        f"{report.payments_submitted}"
    )
    return "\n".join(lines + ["", "Payments", payments])


def _compute_chaos(args: ArtifactRequest) -> ArtifactResult:
    plan = getattr(args, "plan", None) or "partition"
    rounds = getattr(args, "rounds", None) or 240
    pack = SCENARIOS.get(plan)
    if pack is not None and pack.kind == "sweep":
        return _compute_fork_threshold(args)
    if pack is not None:
        report = run_scenario(plan, seed=args.seed, rounds=rounds)
        return ArtifactResult(
            data=report,
            metrics={
                "closes_attempted": report.closes_attempted,
                "validated_closes": report.validated_closes,
                "degraded_closes": report.degraded_closes,
                "failed_closes": report.failed_closes,
                "safety_violations": report.safety_violations,
                "liveness_violations": report.liveness_violations,
            },
            manifest={"plan_fingerprint": report.plan.fingerprint()},
        )
    report = run_drill(plan, seed=args.seed, rounds=rounds)
    return ArtifactResult(
        data=report,
        metrics={
            "closes_attempted": report.closes_attempted,
            "validated_closes": report.validated_closes,
            "degraded_closes": report.degraded_closes,
            "failed_closes": report.failed_closes,
        },
        manifest={"plan_fingerprint": report.plan.fingerprint()},
    )


def _render_chaos(payload, args) -> str:
    if isinstance(payload, dict):  # the sweep pack's delegated payload
        return render_fork_threshold(payload)
    return render_chaos_report(payload)


register(
    "chaos",
    "fault-injection drill: validator health under a fault plan",
    _compute_chaos,
    _render_chaos,
)

__all__ = ["render_chaos_report", "PLANS", "SCENARIOS"]
