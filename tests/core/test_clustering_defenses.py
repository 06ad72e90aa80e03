"""Tests for wallet-linking heuristics and de-anonymization defenses."""

import numpy as np
import pytest

from repro.core.clustering import (
    activation_clusters,
    activation_edges,
    expand_dossier,
)
from repro.core.defenses import (
    amount_padding,
    evaluate_defense,
    per_payment_wallets,
    settlement_batching,
    standard_defense_suite,
)
from repro.core.deanonymizer import Deanonymizer
from repro.core.resolution import FeatureList
from repro.errors import AnalysisError


class TestActivationClustering:
    def test_edges_are_first_xrp_payment(self, history):
        edges = activation_edges(history.records)
        seen = set()
        for edge in edges:
            assert edge.account not in seen
            seen.add(edge.account)

    def test_clusters_group_by_funder(self, history):
        clusters = activation_clusters(history.records, min_size=2)
        assert clusters  # heavy XRP senders activate many receivers
        assert activation_clusters(history.records, min_size=3)
        for funder, accounts in clusters:
            assert len(accounts) >= 2
            assert funder not in accounts

    def test_clusters_sorted_descending(self, history):
        clusters = activation_clusters(history.records, min_size=2)
        sizes = [len(accounts) for _, accounts in clusters]
        assert sizes == sorted(sizes, reverse=True)

    def test_expand_dossier_includes_identity(self, history):
        funder, members = activation_clusters(history.records, min_size=2)[0]
        linked = expand_dossier(members[0], history.records)
        assert members[0] in linked
        assert linked == set(members)


class TestDefenses:
    def test_amount_padding_rounds_up(self, dataset):
        padded = amount_padding(dataset)
        assert (padded.amounts >= dataset.amounts - 1e-9).all()
        # Few distinct values remain per decade.
        assert len(np.unique(np.round(np.log10(padded.amounts), 6))) < len(
            np.unique(np.round(np.log10(np.maximum(dataset.amounts, 1e-9)), 6))
        )

    def test_padding_grid_must_be_positive(self, dataset):
        with pytest.raises(AnalysisError):
            amount_padding(dataset, decades=0)

    def test_batching_delays_never_advance(self, dataset):
        batched = settlement_batching(dataset, window_seconds=600)
        assert (batched.timestamps >= dataset.timestamps).all()
        assert (batched.timestamps % 600 == 0).all()

    def test_batching_reduces_timestamp_ig(self, dataset):
        before = Deanonymizer(dataset).information_gain(FeatureList())
        batched = settlement_batching(dataset, window_seconds=3600)
        after = Deanonymizer(batched).information_gain(FeatureList())
        assert after.identified <= before.identified

    def test_fresh_wallets_have_single_payment_each(self, dataset):
        fresh = per_payment_wallets(dataset)
        counts = np.bincount(fresh.sender_ids, minlength=len(fresh.accounts))
        assert counts[fresh.sender_ids].max() == 1

    def test_fresh_wallets_destroy_history_linkage(self, dataset):
        report = evaluate_defense(
            dataset, "per-payment-wallets", per_payment_wallets
        )
        # The payment is still matched (IG unchanged or higher)...
        label = FeatureList().label()
        assert report.ig_after[label] >= report.ig_before[label] - 1.0
        # ...but an identified wallet exposes no other payments.
        assert report.costs["history_exposure_after"] == 0.0
        assert report.costs["history_exposure_before"] > 0.0
        # And the bootstrapping cost is what the paper predicts: enormous.
        assert report.costs["fresh_wallets_needed"] == len(dataset)
        assert report.costs["trust_lines_to_bootstrap"] > 0

    def test_padding_has_overpayment_cost(self, dataset):
        report = evaluate_defense(dataset, "amount-padding", amount_padding)
        assert report.costs["mean_overpayment_fraction"] > 0

    def test_batching_has_latency_cost(self, dataset):
        report = evaluate_defense(
            dataset, "settlement-batching", settlement_batching
        )
        assert report.costs["mean_settlement_delay_seconds"] > 0
        # Batching to 15 minutes costs minutes of latency, versus the
        # paper's 5-10 second settlement promise.
        assert report.costs["mean_settlement_delay_seconds"] < 900

    def test_standard_suite_runs(self, dataset):
        reports = standard_defense_suite(dataset)
        assert [r.name for r in reports] == [
            "amount-padding",
            "settlement-batching",
            "per-payment-wallets",
        ]
        for report in reports:
            assert report.ig_before and report.ig_after
