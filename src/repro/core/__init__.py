"""The paper's primary contribution.

* De-anonymization: Table I resolutions, payment fingerprints, information
  gain (Fig. 3), the side-channel attack, and financial-history profiling.
* Consensus robustness: the per-validator page accounting of Fig. 2 over
  the three collection periods, plus cross-period churn and concentration.
"""

from repro.core.attack import AttackResult, Observation, SideChannelAttack
from repro.core.clustering import (
    activation_clusters,
    activation_edges,
    expand_dossier,
)
from repro.core.defenses import (
    DefenseReport,
    amount_padding,
    evaluate_defense,
    per_payment_wallets,
    settlement_batching,
    standard_defense_suite,
)
from repro.core.deanonymizer import Deanonymizer, InformationGain
from repro.core.fingerprint import (
    FingerprintIndex,
    PaymentChunk,
    chunk_keys,
    round_amount,
    table1_buckets,
)
from repro.core.history import FinancialProfile, net_worth_eur, profile_account
from repro.core.resolution import (
    FIGURE3_FEATURE_LISTS,
    AmountResolution,
    FeatureList,
    TimeResolution,
    coarsen_timestamps,
    granularity_exponent,
)
from repro.core.robustness import (
    PeriodReport,
    RobustnessStudy,
    ValidatorObservation,
    run_period,
)

__all__ = [
    "AmountResolution",
    "DefenseReport",
    "activation_clusters",
    "activation_edges",
    "amount_padding",
    "evaluate_defense",
    "expand_dossier",
    "per_payment_wallets",
    "settlement_batching",
    "standard_defense_suite",
    "AttackResult",
    "Deanonymizer",
    "FIGURE3_FEATURE_LISTS",
    "FeatureList",
    "FinancialProfile",
    "FingerprintIndex",
    "InformationGain",
    "Observation",
    "PaymentChunk",
    "PeriodReport",
    "RobustnessStudy",
    "SideChannelAttack",
    "TimeResolution",
    "ValidatorObservation",
    "chunk_keys",
    "coarsen_timestamps",
    "granularity_exponent",
    "net_worth_eur",
    "profile_account",
    "round_amount",
    "run_period",
    "table1_buckets",
]
