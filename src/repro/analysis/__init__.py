"""Ledger analytics: the appendix studies and shared dataset machinery."""

from repro.analysis.archive import dump_archive, iter_archive, load_archive
from repro.analysis.population import (
    PopulationStats,
    growth_is_increasing,
    monthly_volume,
    population_stats,
    top_senders,
)
from repro.analysis.currencies import (
    CurrencyUsage,
    currency_ranking,
    rank_of,
    share_of,
    unrecognized_in_top,
)
from repro.analysis.dataset import TransactionDataset
from repro.analysis.gateways import (
    HubProfile,
    balance_eur,
    coverage_of_top,
    gateway_count_in_top,
    intermediary_counts,
    top_intermediaries,
    trust_profile_eur,
)
from repro.analysis.market_makers import (
    OfferConcentration,
    ReplayResult,
    ReplayRow,
    offer_concentration,
    replay_without_market_makers,
    table2,
)
from repro.analysis.paths import PathStructure, path_structure, spam_hop_attribution
from repro.analysis.survival import (
    DEFAULT_GRID,
    FIGURE5_CURRENCIES,
    SurvivalCurve,
    curve_distance,
    figure5_curves,
    survival_curve,
)

__all__ = [
    "CurrencyUsage",
    "PopulationStats",
    "growth_is_increasing",
    "monthly_volume",
    "population_stats",
    "top_senders",
    "dump_archive",
    "iter_archive",
    "load_archive",
    "DEFAULT_GRID",
    "FIGURE5_CURRENCIES",
    "HubProfile",
    "OfferConcentration",
    "PathStructure",
    "ReplayResult",
    "ReplayRow",
    "SurvivalCurve",
    "TransactionDataset",
    "balance_eur",
    "coverage_of_top",
    "currency_ranking",
    "curve_distance",
    "figure5_curves",
    "gateway_count_in_top",
    "intermediary_counts",
    "offer_concentration",
    "path_structure",
    "rank_of",
    "replay_without_market_makers",
    "share_of",
    "spam_hop_attribution",
    "survival_curve",
    "table2",
    "top_intermediaries",
    "trust_profile_eur",
    "unrecognized_in_top",
]
