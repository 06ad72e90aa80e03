"""Named adversarial scenario packs and the UNL-overlap fork sweep.

The generic fault plans in :mod:`repro.chaos.plan` stress the *resilient*
regime: full UNL overlap, byzantine population under f < n/5, and the
drill shows consensus bending without breaking.  The packs here do the
opposite — each one reconstructs a published attack against the protocol
and demonstrates the claimed outcome end to end:

``amores-cachin-delay``
    The windowed message-delay + equivocation schedule of Amores-Sesar,
    Cachin & Mićić (*Security Analysis of Ripple Consensus*, Theorem 2).
    Two validator camps with low UNL overlap are separated by an
    adversarial partition while fewer than 20 % of the roster equivocates
    (signing every page either side closes) and three proposers are
    delayed a deliberation step.  Both camps complete conflicting
    per-view validation quorums at the same sequence — a recorded safety
    violation that :func:`repro.consensus.forks.find_forks` flags.

``sissle-fixed``
    The counterfactual the same analysis proves safe: the identical fault
    schedule (same windows, same equivocators, same delays) replayed over
    a fully-overlapping UNL.  The heard gate now needs signatures from
    across the partition, so the network *halts* — degraded and failed
    closes — instead of forking.  Equivocation is provably harmless under
    full overlap: two conflicting pages would each need a quorum of the
    one shared UNL, and the honest signers cannot cover both.

``unl-overlap-sweep``
    Chase & MacBrough's question (*Analysis of the XRP Ledger Consensus
    Protocol*) asked quantitatively: two camps of eight validators share
    ``s`` hub validators; sweeping ``s`` records the empirical overlap at
    which forks stop.  Registered as the ``fork_threshold`` artifact with
    the repo's one sharded map/reduce contract: each point is a full
    consensus simulation, so ``--jobs N`` computes points in parallel,
    bit-for-bit identically to the serial path.

Every run is reproducible from ``(scenario, seed, rounds)``; drill
reports carry the plan fingerprint so manifests pin the exact schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.registry import ArtifactResult, ShardedCompute, register
from repro.chaos.drill import DrillReport, run_drill
from repro.chaos.plan import (
    ByzantineFault,
    FaultPlan,
    MessageFault,
    PartitionFault,
    Window,
)
from repro.consensus.faults import Behaviour, ValidatorProfile
from repro.consensus.forks import ForkEvent, find_forks
from repro.consensus.network import NetworkModel
from repro.consensus.unl import UNL
from repro.consensus.validator import Validator
from repro.obs.metrics import METRICS
from repro.parallel.sharding import shard_ranges

# Amores-Cachin roster geometry ------------------------------------------------
#
# Camp A trusts itself plus the equivocators (11 members, quorum 9); camp
# B trusts only itself (8 members, quorum 7).  The three equivocators are
# 3/19 ≈ 15.8 % of the roster — inside the f < n/5 bound the white paper
# assumes safe.  The attack needs them: without their co-signatures camp
# A musters at most 8 < 9 signatures and cannot view-validate anything.

AC_SIDE_A: Tuple[str, ...] = tuple(f"ac-a{i}" for i in range(1, 9))
AC_SIDE_B: Tuple[str, ...] = tuple(f"ac-b{i}" for i in range(1, 9))
AC_EQUIVOCATORS: Tuple[str, ...] = tuple(f"ac-z{i}" for i in range(1, 4))

#: Initial-position transaction visibility under adversarial scheduling.
#: The default active profile receives 98 % of the open pool, which makes
#: both sides of any partition converge to the same page; delaying a
#: quarter of the submissions (the adversary reorders the mempool too)
#: lets the camps close genuinely different transaction sets.
ADVERSARIAL_RECEIVE = 0.75

# UNL-overlap sweep geometry ---------------------------------------------------

SWEEP_GROUP = 8
SWEEP_SHARED: Tuple[int, ...] = (0, 1, 2, 3, 4, 6, 8)


@dataclass
class ScenarioSetup:
    """Everything :func:`run_scenario` feeds into the drill."""

    roster: List[Validator]
    plan: FaultPlan
    #: ``None`` keeps the drill's default lossy network.
    network: Optional[NetworkModel] = None


@dataclass(frozen=True)
class ScenarioPack:
    """One named, reproducible adversarial scenario."""

    name: str
    description: str
    #: The published analysis the pack reconstructs.
    source: str
    #: One-line expected outcome, asserted by the drill goldens.
    expected: str
    #: ``drill`` packs run through :func:`run_scenario`; the ``sweep``
    #: pack dispatches to the ``fork_threshold`` artifact.
    kind: str = "drill"
    build: Optional[Callable[[int], ScenarioSetup]] = None


@dataclass
class ScenarioReport(DrillReport):
    """A drill report extended with the scenario's safety ledger."""

    scenario: str = ""
    source: str = ""
    expected: str = ""
    #: Conflicting per-view validations, the recorded safety violations.
    fork_events: List[ForkEvent] = field(default_factory=list)
    #: Close attempts that did not produce a fully validated ledger.
    liveness_violations: int = 0

    @property
    def safety_violations(self) -> int:
        return len(self.fork_events)


def _adversarial_profile() -> ValidatorProfile:
    return ValidatorProfile(
        Behaviour.ACTIVE,
        availability=1.0,
        sync_quality=1.0,
        receive_probability=ADVERSARIAL_RECEIVE,
    )


def _amores_plan(name: str, rounds: int) -> FaultPlan:
    window = Window(int(rounds * 0.25), int(rounds * 0.75))
    return FaultPlan(
        name=name,
        description=(
            "windowed partition + sub-20% equivocation + delayed proposers"
        ),
        partitions=(
            PartitionFault(
                window,
                (
                    frozenset(AC_SIDE_A + AC_EQUIVOCATORS),
                    frozenset(AC_SIDE_B),
                ),
            ),
        ),
        byzantine=tuple(
            ByzantineFault(name_, window, equivocate=True)
            for name_ in AC_EQUIVOCATORS
        ),
        messages=(MessageFault(window, stale=AC_SIDE_A[:3]),),
    )


def _amores_setup(rounds: int) -> ScenarioSetup:
    unl_a = UNL.of(AC_SIDE_A + AC_EQUIVOCATORS)
    unl_b = UNL.of(AC_SIDE_B)
    unl_z = UNL.of(AC_SIDE_A + AC_SIDE_B + AC_EQUIVOCATORS)
    roster = (
        [Validator(n, unl_a, _adversarial_profile()) for n in AC_SIDE_A]
        + [Validator(n, unl_b, _adversarial_profile()) for n in AC_SIDE_B]
        + [Validator(n, unl_z, _adversarial_profile()) for n in AC_EQUIVOCATORS]
    )
    return ScenarioSetup(
        roster=roster, plan=_amores_plan("amores-cachin-delay", rounds)
    )


def _sissle_setup(rounds: int) -> ScenarioSetup:
    """The same attack over a fully-overlapping UNL: halts, never forks."""
    trusted = UNL.of(AC_SIDE_A + AC_SIDE_B + AC_EQUIVOCATORS)
    roster = [
        Validator(name, trusted, _adversarial_profile())
        for name in AC_SIDE_A + AC_SIDE_B + AC_EQUIVOCATORS
    ]
    return ScenarioSetup(roster=roster, plan=_amores_plan("sissle-fixed", rounds))


SCENARIOS: Dict[str, ScenarioPack] = {
    pack.name: pack
    for pack in (
        ScenarioPack(
            name="amores-cachin-delay",
            description=(
                "low-overlap camps + windowed delay/equivocation: "
                "conflicting per-view validations (safety violation)"
            ),
            source="Amores-Sesar, Cachin & Mićić, Theorem 2",
            expected=(
                "conflicting pages view-validated at the same sequence "
                "inside the attack window"
            ),
            build=_amores_setup,
        ),
        ScenarioPack(
            name="sissle-fixed",
            description=(
                "identical fault schedule over a fully-overlapping UNL: "
                "the network halts instead of forking"
            ),
            source="Amores-Sesar, Cachin & Mićić, §6 (safe configuration)",
            expected=(
                "zero fork events; degraded/failed closes during the "
                "attack window (liveness, not safety, pays)"
            ),
            build=_sissle_setup,
        ),
        ScenarioPack(
            name="unl-overlap-sweep",
            description=(
                "sweep shared-hub count between two 8-validator camps and "
                "record the empirical fork threshold"
            ),
            source="Chase & MacBrough, XRP LCP analysis (overlap bounds)",
            expected=(
                "forks at low overlap; above the threshold the heard gate "
                "halts the minority camp instead"
            ),
            kind="sweep",
        ),
    )
}


def scenario(name: str) -> ScenarioPack:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(sorted(SCENARIOS))}"
        ) from None


def drill_scenarios() -> List[str]:
    """Scenario names runnable through :func:`run_scenario`."""
    return sorted(
        name for name, pack in SCENARIOS.items() if pack.kind == "drill"
    )


def run_scenario(
    name: str,
    seed: int = 7,
    rounds: int = 240,
    payments_per_close: int = 2,
) -> ScenarioReport:
    """Run a drill-kind scenario pack and score its safety/liveness ledger.

    The consensus engine's raw validation stream is collected through a
    drill observer and replayed against every view in the roster; each
    sequence where two conflicting pages both reached a per-view quorum
    becomes a :class:`~repro.consensus.forks.ForkEvent`.  Violation
    counts are mirrored into :data:`~repro.obs.metrics.METRICS` as
    ``chaos.safety_violations`` / ``chaos.liveness_violations``.
    """
    pack = scenario(name)
    if pack.kind != "drill" or pack.build is None:
        raise KeyError(
            f"scenario {name!r} is a {pack.kind} pack; "
            f"drill scenarios: {', '.join(drill_scenarios())}"
        )
    setup = pack.build(rounds)
    validations: List = []
    base = run_drill(
        setup.plan,
        seed=seed,
        rounds=rounds,
        payments_per_close=payments_per_close,
        validators=setup.roster,
        network=setup.network,
        observers=(validations.append,),
    )
    forks = find_forks(validations, setup.roster)
    report = ScenarioReport(
        **base.__dict__,
        scenario=pack.name,
        source=pack.source,
        expected=pack.expected,
        fork_events=forks,
    )
    report.liveness_violations = (
        report.closes_attempted - report.validated_closes
    )
    METRICS.count("chaos.safety_violations", report.safety_violations)
    METRICS.count("chaos.liveness_violations", report.liveness_violations)
    return report


# UNL-overlap sweep ------------------------------------------------------------


def sweep_points(rounds: int) -> List[Dict[str, int]]:
    """The sweep's shard-able work list, one point per shared-hub count."""
    return [
        {"index": index, "shared": shared, "group": SWEEP_GROUP,
         "rounds": rounds}
        for index, shared in enumerate(SWEEP_SHARED)
    ]


def run_overlap_point(point: Dict[str, int], seed: int) -> Dict[str, object]:
    """One sweep point: two camps of ``group`` validators plus ``shared``
    hubs trusted by both, partitioned for the middle 60 % of the run.

    The point runs over a loss-free network: the sweep asks where the
    *protocol* forks under adversarial scheduling, and background message
    loss only blurs the threshold.  The per-point seed is derived from
    the request seed and the point, so points are independent of shard
    assignment — serial and ``--jobs N`` runs are bit-for-bit identical.
    """
    shared, group, rounds = point["shared"], point["group"], point["rounds"]
    side_a = [f"ov-a{i}" for i in range(1, group + 1)]
    side_b = [f"ov-b{i}" for i in range(1, group + 1)]
    hubs = [f"ov-s{i}" for i in range(1, shared + 1)]
    unl_a = UNL.of(side_a + hubs)
    unl_b = UNL.of(side_b + hubs)
    roster = (
        [Validator(n, unl_a, _adversarial_profile()) for n in side_a]
        + [Validator(n, unl_b, _adversarial_profile()) for n in side_b]
        + [Validator(n, unl_a, _adversarial_profile()) for n in hubs]
    )
    window = Window(int(rounds * 0.2), int(rounds * 0.8))
    plan = FaultPlan(
        name=f"overlap-{shared}",
        description=f"{shared} shared hubs between two {group}-camps",
        partitions=(
            PartitionFault(
                window, (frozenset(side_a + hubs), frozenset(side_b))
            ),
        ),
    )
    validations: List = []
    report = run_drill(
        plan,
        seed=seed * 7919 + shared,
        rounds=rounds,
        validators=roster,
        network=NetworkModel(base_loss=0.0),
        observers=(validations.append,),
    )
    forks = find_forks(validations, roster)
    return {
        "index": point["index"],
        "shared": shared,
        "overlap": shared / (group + shared),
        "forks": len(forks),
        "fork_sequences": [event.sequence for event in forks],
        "validated_closes": report.validated_closes,
        "degraded_closes": report.degraded_closes,
        "failed_closes": report.failed_closes,
    }


def _sweep_context(request) -> Dict[str, object]:
    rounds = getattr(request, "rounds", None) or 240
    return {
        "seed": request.seed,
        "rounds": rounds,
        "points": sweep_points(rounds),
    }


def _sweep_shards(context: Dict[str, object], jobs: int) -> List[Dict]:
    points = context["points"]
    return [
        {"points": points[start:stop], "seed": context["seed"]}
        for start, stop in shard_ranges(len(points), jobs)
    ]


def sweep_shard_rows(shard: Dict[str, object]) -> List[Dict[str, object]]:
    """Worker entry point: compute every point assigned to this shard."""
    return [run_overlap_point(point, shard["seed"]) for point in shard["points"]]


def _threshold_payload(
    rows: List[Dict[str, object]], context: Dict[str, object]
) -> Dict[str, object]:
    rows = sorted(rows, key=lambda row: row["index"])
    forked = [row for row in rows if row["forks"]]
    safe = [row for row in rows if not row["forks"]]
    return {
        "group": SWEEP_GROUP,
        "rounds": context["rounds"],
        "seed": context["seed"],
        "rows": rows,
        "fork_threshold": max(
            (row["overlap"] for row in forked), default=None
        ),
        "min_safe_overlap": min(
            (row["overlap"] for row in safe), default=None
        ),
    }


def _threshold_result(payload: Dict[str, object]) -> ArtifactResult:
    rows = payload["rows"]
    return ArtifactResult(
        data=payload,
        metrics={
            "sweep_points": len(rows),
            "forked_points": sum(1 for row in rows if row["forks"]),
            "fork_events": sum(row["forks"] for row in rows),
        },
    )


def _compute_fork_threshold(request) -> ArtifactResult:
    context = _sweep_context(request)
    rows = sweep_shard_rows(
        {"points": context["points"], "seed": context["seed"]}
    )
    return _threshold_result(_threshold_payload(rows, context))


def _merge_fork_threshold(partials: List[List[Dict]], context) -> ArtifactResult:
    rows = [row for partial in partials for row in partial]
    return _threshold_result(_threshold_payload(rows, context))


def render_fork_threshold(payload: Dict[str, object]) -> str:
    """The sweep as terminal text: one row per overlap point."""
    lines = [
        f"UNL-overlap fork-threshold sweep "
        f"(two camps of {payload['group']}, {payload['rounds']} close "
        f"attempts, seed {payload['seed']})",
        "",
        f"  {'shared':>6s} {'overlap':>8s} {'forks':>6s} "
        f"{'validated':>10s} {'degraded':>9s} {'failed':>7s}",
    ]
    for row in payload["rows"]:
        lines.append(
            f"  {row['shared']:6d} {row['overlap']:8.3f} {row['forks']:6d} "
            f"{row['validated_closes']:10d} {row['degraded_closes']:9d} "
            f"{row['failed_closes']:7d}"
        )
    threshold = payload["fork_threshold"]
    safe = payload["min_safe_overlap"]
    lines.append("")
    if threshold is None:
        lines.append("  no forks observed at any overlap")
    else:
        lines.append(
            f"  empirical fork threshold: forks up to overlap "
            f"{threshold:.3f}"
        )
    if safe is not None:
        lines.append(
            f"  smallest fork-free overlap: {safe:.3f} "
            f"(minority camp halts on the heard gate instead)"
        )
    return "\n".join(lines)


register(
    "fork_threshold",
    "UNL-overlap sweep: empirical fork threshold (per-view validation)",
    _compute_fork_threshold,
    lambda payload, args: render_fork_threshold(payload),
    sharded=ShardedCompute(
        prepare=_sweep_context,
        shards=_sweep_shards,
        compute_shard=sweep_shard_rows,
        merge=_merge_fork_threshold,
    ),
)


__all__ = [
    "AC_EQUIVOCATORS",
    "AC_SIDE_A",
    "AC_SIDE_B",
    "SCENARIOS",
    "SWEEP_GROUP",
    "SWEEP_SHARED",
    "ScenarioPack",
    "ScenarioReport",
    "ScenarioSetup",
    "drill_scenarios",
    "render_fork_threshold",
    "run_overlap_point",
    "run_scenario",
    "scenario",
    "sweep_points",
    "sweep_shard_rows",
]
