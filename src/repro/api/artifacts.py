"""Built-in artifacts: the paper's figures and tables, registered.

Each artifact is a ``(compute, render)`` pair over a typed
:class:`~repro.api.request.ArtifactRequest`; ``compute`` returns a typed
:class:`~repro.api.registry.ArtifactResult`
(``data`` plus optional manifest-bound ``metrics``).  Importing this
module populates :data:`repro.api.registry.ARTIFACTS` with fig2–fig7 and
table2; extension artifacts (e.g. the chaos report in
:mod:`repro.chaos.report`) register themselves the same way from their own
packages.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis import (
    TransactionDataset,
    currency_ranking,
    figure5_curves,
    offer_concentration,
    path_structure,
    table2,
    top_intermediaries,
)
from repro.analysis.archive import load_archive
from repro.analysis.health import (
    DEFAULT_PAIR_SAMPLE,
    DEFAULT_TARGET_AMOUNT,
    HealthReport,
    IssuerConcentration,
    LiquidityDistribution,
    SettlabilityProbe,
    UtilizationProfile,
    issuer_concentration,
    liquidity_distribution,
    render_health,
    settlability_outcomes,
    utilization_profile,
)
from repro.durability import IngestStats
from repro.analysis.market_makers import (
    merge_replay_results,
    replay_outcomes,
    tally_outcomes,
)
from repro.analysis.population import (
    merge_population_partials,
    monthly_volume,
    population_shard_partial,
    population_stats,
)
from repro.analysis.survival import (
    figure5_shard_partial,
    merge_figure5_partials,
)
from repro.api.registry import (
    ArtifactError,
    ArtifactResult,
    ShardedCompute,
    register,
)
from repro.api.request import ArtifactRequest
from repro.api.render import (
    render_figure2,
    render_figure3,
    render_figure4,
    render_figure5,
    render_figure6,
    render_figure7,
    render_population,
    render_table2,
)
from repro.core.deanonymizer import (
    Deanonymizer,
    figure3_shard_partial,
    merge_figure3_partials,
)
from repro.core.robustness import PeriodReport, run_period
from repro.obs.manifest import RUN
from repro.obs.trace import TRACER
from repro.parallel.sharding import shard_ranges
from repro.stream.periods import PERIODS, period
from repro.synthetic.config import EconomyConfig
from repro.synthetic.generator import generate_history

#: Sample points of the Fig. 5 survival curves (log-spaced like the paper).
FIGURE5_POINTS = (1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6, 1e8, 1e10)


def economy_config(args: ArtifactRequest) -> EconomyConfig:
    """The synthetic-economy configuration encoded in the shared CLI flags."""
    return EconomyConfig(
        seed=args.seed,
        n_payments=args.payments,
        n_users=max(10, args.payments // 33),
        n_offers=args.payments * 4,
    )


def dataset_for(args: ArtifactRequest):
    """(history, dataset) for the shared flags; history is None for archives.

    Archive ingest honours the shared durability flags: strict by default
    (first bad line is a typed error), lenient with ``--quarantine``
    (bad lines diverted to a ``<archive>.quarantine.jsonl`` sidecar, with
    a summary on stderr).  ``--strict-ingest`` and ``--quarantine``
    together are contradictory and rejected.
    """
    if getattr(args, "archive", None):
        lenient = bool(getattr(args, "quarantine", False))
        if lenient and getattr(args, "strict_ingest", False):
            raise ArtifactError(
                "--strict-ingest and --quarantine are mutually exclusive"
            )
        with TRACER.span("artifact.dataset", kind="phase", source="archive"):
            stats = IngestStats()
            records = load_archive(
                args.archive, strict=not lenient, stats=stats
            )
            if stats.quarantined:
                print(
                    f"ingest: {stats.summary()} -> "
                    f"{args.archive}.quarantine.jsonl",
                    file=sys.stderr,
                )
            RUN.note(ingest=stats.as_manifest_dict())
            return None, TransactionDataset.from_records(records)
    with TRACER.span("artifact.dataset", kind="phase", source="synthetic"):
        history = generate_history(economy_config(args))
        return history, TransactionDataset.from_records(history.records)


def history_for(args: ArtifactRequest):
    """A full ledger history; rejects archive input (no ledger state)."""
    history, _ = dataset_for(args)
    if history is None:
        raise ArtifactError(
            "this artifact needs ledger state; run without --archive"
        )
    return history


# Shared sharding helpers ----------------------------------------------------


def _dataset_context(args: ArtifactRequest) -> TransactionDataset:
    """Parent-side prepare for dataset-based sharded artifacts."""
    return dataset_for(args)[1]


def dataset_shards(dataset: TransactionDataset, n_shards: int) -> List:
    """Contiguous row shards sharing the dataset's global factorization."""
    return [
        dataset.slice_rows(start, stop)
        for start, stop in shard_ranges(len(dataset), n_shards)
    ]


def _sequence_shards(items, n_shards: int) -> List:
    """Contiguous slices of a plain sequence (e.g. replay outcomes)."""
    return [
        items[start:stop] for start, stop in shard_ranges(len(items), n_shards)
    ]


# fig2 ----------------------------------------------------------------------


def _compute_fig2(args: ArtifactRequest) -> ArtifactResult:
    keys = [args.period] if getattr(args, "period", None) else [
        spec.key for spec in PERIODS
    ]
    reports = [
        run_period(period(key), scale=1.0 / args.scale, seed=args.seed)
        for key in keys
    ]
    return ArtifactResult(
        data=reports,
        metrics={
            "periods": len(reports),
            "rounds_run": sum(report.rounds for report in reports),
        },
    )


def _render_fig2(reports: List[PeriodReport], _args: ArtifactRequest) -> str:
    return "\n\n".join(render_figure2(report) for report in reports)


register(
    "fig2",
    "validator activity over the three collection periods",
    _compute_fig2,
    _render_fig2,
)


# fig3 ----------------------------------------------------------------------


def _compute_fig3(args: ArtifactRequest) -> ArtifactResult:
    gains = Deanonymizer(dataset_for(args)[1]).figure3()
    return ArtifactResult(data=gains, metrics={"feature_lists": len(gains)})


register(
    "fig3",
    "information gain per feature list",
    _compute_fig3,
    lambda gains, args: render_figure3(gains),
    sharded=ShardedCompute(
        prepare=_dataset_context,
        shards=dataset_shards,
        compute_shard=figure3_shard_partial,
        merge=lambda partials, dataset: merge_figure3_partials(partials),
    ),
)


# fig4 ----------------------------------------------------------------------


def _compute_fig4(args: ArtifactRequest) -> ArtifactResult:
    ranking = currency_ranking(dataset_for(args)[1])
    return ArtifactResult(data=ranking, metrics={"currencies": len(ranking)})


register(
    "fig4",
    "most used currencies",
    _compute_fig4,
    lambda ranking, args: render_figure4(
        ranking, top=getattr(args, "top", None) or 25
    ),
)


# fig5 ----------------------------------------------------------------------


def _compute_fig5(args: ArtifactRequest) -> ArtifactResult:
    curves = figure5_curves(dataset_for(args)[1])
    return ArtifactResult(data=curves, metrics={"curves": len(curves)})


register(
    "fig5",
    "survival functions of payment amounts",
    _compute_fig5,
    lambda curves, args: render_figure5(curves, FIGURE5_POINTS),
    sharded=ShardedCompute(
        prepare=_dataset_context,
        shards=dataset_shards,
        compute_shard=figure5_shard_partial,
        merge=lambda partials, dataset: merge_figure5_partials(partials),
    ),
)


# fig6 ----------------------------------------------------------------------


def _compute_fig6(args: ArtifactRequest) -> ArtifactResult:
    return ArtifactResult(data=path_structure(dataset_for(args)[1]))


register(
    "fig6",
    "payment path structure",
    _compute_fig6,
    lambda structure, args: render_figure6(structure),
)


# fig7 ----------------------------------------------------------------------


def _compute_fig7(args: ArtifactRequest) -> ArtifactResult:
    history = history_for(args)
    profiles = top_intermediaries(history, getattr(args, "top", None) or 50)
    concentration = offer_concentration(history.offer_records)
    return ArtifactResult(
        data=(profiles, dict(concentration.shares)),
        metrics={"intermediaries": len(profiles)},
    )


def _render_fig7(payload, _args: ArtifactRequest) -> str:
    profiles, shares = payload
    rounded = {code: round(value, 3) for code, value in shares.items()}
    return (
        render_figure7(profiles)
        + f"\n\noffer concentration: {rounded}"
    )


register(
    "fig7",
    "top-50 intermediaries",
    _compute_fig7,
    _render_fig7,
)


# table2 --------------------------------------------------------------------


def _compute_table2(args: ArtifactRequest) -> ArtifactResult:
    return ArtifactResult(data=table2(history_for(args)))


register(
    "table2",
    "delivery without market makers",
    _compute_table2,
    lambda result, args: render_table2(result),
    # The replay itself is stateful and runs serially in prepare; only the
    # outcome tally shards.  The contract still buys determinism coverage:
    # any partition of the outcome stream merges to the same fractions.
    sharded=ShardedCompute(
        prepare=lambda args: replay_outcomes(history_for(args)),
        shards=_sequence_shards,
        compute_shard=tally_outcomes,
        merge=lambda partials, outcomes: merge_replay_results(partials),
    ),
)


# population ----------------------------------------------------------------


def _compute_population(args: ArtifactRequest) -> ArtifactResult:
    dataset = _dataset_context(args)
    return ArtifactResult(
        data=(population_stats(dataset), monthly_volume(dataset)),
        metrics={"rows": len(dataset)},
    )


register(
    "population",
    "appendix D population statistics (accounts, activity, growth)",
    _compute_population,
    lambda payload, args: render_population(*payload),
    sharded=ShardedCompute(
        prepare=_dataset_context,
        shards=dataset_shards,
        compute_shard=population_shard_partial,
        merge=lambda partials, dataset: merge_population_partials(partials),
    ),
)


# health ---------------------------------------------------------------------


@dataclass
class HealthContext:
    """Tally-independent health dimensions plus the probe outcome stream."""

    liquidity: LiquidityDistribution
    issuers: IssuerConcentration
    utilization: UtilizationProfile
    amount: float
    outcomes: List[bool]


def _health_context(args: ArtifactRequest) -> HealthContext:
    history = history_for(args)
    wallets = [user.account for user in history.cast.users]
    pairs = int(args.option("pairs") or DEFAULT_PAIR_SAMPLE)
    amount = float(args.option("amount") or DEFAULT_TARGET_AMOUNT)
    state = history.state
    return HealthContext(
        liquidity=liquidity_distribution(state, wallets),
        issuers=issuer_concentration(state),
        utilization=utilization_profile(state),
        amount=amount,
        outcomes=settlability_outcomes(
            state, wallets, pairs=pairs, amount=amount, seed=args.seed
        ),
    )


def tally_settlability(outcomes: Sequence[bool]) -> Tuple[int, int]:
    """(pairs, settlable) over a slice of probe outcomes (pure, shardable)."""
    return len(outcomes), sum(1 for settlable in outcomes if settlable)


def _finish_health(
    context: HealthContext, pairs: int, settlable: int
) -> ArtifactResult:
    report = HealthReport(
        liquidity=context.liquidity,
        issuers=context.issuers,
        utilization=context.utilization,
        settlability=SettlabilityProbe(
            pairs=pairs, settlable=settlable, amount=context.amount
        ),
    )
    return ArtifactResult(
        data=report,
        metrics={
            "settlability_pairs": pairs,
            "settlable_fraction": report.settlability.fraction,
        },
        manifest={"health": report.as_dict()},
    )


def _compute_health(args: ArtifactRequest) -> ArtifactResult:
    context = _health_context(args)
    return _finish_health(context, *tally_settlability(context.outcomes))


def _merge_health(partials, context: HealthContext) -> ArtifactResult:
    pairs = sum(partial[0] for partial in partials)
    settlable = sum(partial[1] for partial in partials)
    return _finish_health(context, pairs, settlable)


register(
    "health",
    "credit-network health: liquidity, concentration, utilization, "
    "settlability",
    _compute_health,
    lambda report, args: render_health(report),
    # The ledger walk runs serially in prepare; the settlability tally
    # shards (any contiguous partition merges identically to serial).
    sharded=ShardedCompute(
        prepare=_health_context,
        shards=lambda context, n: _sequence_shards(context.outcomes, n),
        compute_shard=tally_settlability,
        merge=_merge_health,
    ),
)
