#!/usr/bin/env python3
"""Defense lab: can Bob protect himself?

The paper ends Section V noting that the Bitcoin remedy (fresh wallets per
transaction) "is difficult to achieve in Ripple due to its underlying trust
backbone".  This script evaluates the candidate countermeasures
quantitatively on a synthetic history:

* amount padding — pay coarse round numbers, eat the overpayment;
* settlement batching — publish payments in windows, eat the latency;
* per-payment wallets — fresh pseudonyms, eat the trust bootstrapping.

It also shows why half-measures fail: even when a single payment is
matched, what matters is the *history exposure* — how much more of your
financial life the match drags into the open.

Run:  python examples/defense_lab.py
"""

from repro.analysis import TransactionDataset
from repro.core import standard_defense_suite
from repro.core.clustering import activation_clusters, expand_dossier
from repro.core.resolution import (
    FIGURE3_FEATURE_LISTS,
    AmountResolution,
    FeatureList,
    TimeResolution,
)
from repro.synthetic import generate_history, small_config


def main() -> None:
    print("Generating the synthetic economy...")
    history = generate_history(small_config(seed=55, n_payments=6_000))
    dataset = TransactionDataset.from_records(history.records)

    feature_lists = [
        FeatureList(),  # full-resolution observer
        FeatureList(AmountResolution.AVERAGE, TimeResolution.HOURS),  # casual
    ]
    print("\nEvaluating the three countermeasures "
          "(IG = % of payments uniquely fingerprinted):\n")
    reports = standard_defense_suite(dataset, feature_lists=feature_lists)
    for report in reports:
        print(f"=== {report.name} ===")
        for feature_list in feature_lists:
            label = feature_list.label()
            print(f"  {label:24s} IG {report.ig_before[label]:6.2f}% "
                  f"-> {report.ig_after[label]:6.2f}%")
        for cost, value in report.costs.items():
            print(f"  cost: {cost} = {value:,.2f}")
        print()

    print("Takeaways:")
    print("  * Padding and batching shave the fingerprint but, at ledger scale,")
    print("    the remaining features still single most payments out.")
    print("  * Fresh wallets zero the *history exposure* — the match reveals a")
    print("    throwaway — but require a trust line per payment: the bootstrap")
    print("    cost the paper predicted makes them impractical.")

    # And the flip side: the attacker composes linking heuristics.
    clusters = activation_clusters(history.records, min_size=3)
    if clusters:
        funder, members = clusters[0]
        print(f"\nAttacker's counter: wallet linking. "
              f"{history.cast.label(funder)} activated {len(members)} wallets;")
        linked = expand_dossier(members[0], history.records)
        print(f"identifying any one of them exposes {len(linked)} linked accounts.")


if __name__ == "__main__":
    main()
