"""Tests for the appendix analyses: dataset, Figs. 4-7, Table II."""

import numpy as np
import pytest

from repro.analysis.currencies import (
    currency_ranking,
    rank_of,
    share_of,
    unrecognized_in_top,
)
from repro.analysis.dataset import TransactionDataset
from repro.analysis.gateways import (
    balance_eur,
    coverage_of_top,
    gateway_count_in_top,
    intermediary_counts,
    top_intermediaries,
    trust_profile_eur,
)
from repro.analysis.market_makers import (
    offer_concentration,
    replay_without_market_makers,
    table2,
)
from repro.analysis.paths import path_structure, spam_hop_attribution
from repro.analysis.survival import curve_distance, figure5_curves, survival_curve
from repro.api.artifacts import dataset_for
from repro.api.render import (
    render_figure2,
    render_figure3,
    render_figure4,
    render_figure5,
    render_figure6,
    render_figure7,
    render_table2,
)
from repro.api.request import ArtifactRequest
from repro.errors import AnalysisError


class TestDataset:
    def test_lengths_consistent(self, dataset):
        n = len(dataset)
        assert len(dataset.sender_ids) == n
        assert len(dataset.amounts) == n
        assert len(dataset.currency_ids) == n

    def test_only_delivered_by_default(self, history, dataset):
        delivered = sum(1 for r in history.records if r.delivered)
        assert len(dataset) == delivered

    def test_include_failures_option(self, history):
        full = TransactionDataset.from_records(history.records, delivered_only=False)
        assert len(full) == len(history.records)

    def test_factorization_roundtrip(self, history, dataset):
        record = history.records[0]
        row_sender = dataset.accounts[int(dataset.sender_ids[0])]
        assert row_sender == record.sender

    def test_mask_subset(self, dataset):
        mask = dataset.rows_for_currency("XRP")
        subset = dataset.mask_subset(mask)
        assert len(subset) == int(mask.sum())
        assert all(
            subset.currencies[int(i)] == "XRP" for i in np.unique(subset.currency_ids)
        )

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            TransactionDataset.from_records([])

    def test_multi_hop_mask(self, dataset):
        mask = dataset.multi_hop_mask()
        assert not (mask & dataset.is_xrp_direct).any()

    def test_time_window_mask(self, dataset):
        start = int(dataset.timestamps.min())
        mask = dataset.time_window_mask(start, start)
        assert mask.any()


class TestFigure4Currencies:
    def test_xrp_on_top_at_about_half(self, dataset):
        ranking = currency_ranking(dataset)
        assert ranking[0].code == "XRP"
        assert ranking[0].share == pytest.approx(0.49, abs=0.03)

    def test_cck_and_mtl_in_top_three(self, dataset):
        top3 = [usage.code for usage in currency_ranking(dataset)[:3]]
        assert "CCK" in top3 and "MTL" in top3

    def test_unrecognized_in_top(self, dataset):
        assert set(unrecognized_in_top(dataset, 3)) == {"CCK", "MTL"}

    def test_btc_first_well_known_fiat(self, dataset):
        assert rank_of(dataset, "BTC") < rank_of(dataset, "USD")
        assert rank_of(dataset, "USD") < rank_of(dataset, "EUR")

    def test_shares(self, dataset):
        assert share_of(dataset, "BTC") == pytest.approx(0.047, abs=0.02)
        assert share_of(dataset, "EUR") < 0.02

    def test_ranking_sorted(self, dataset):
        ranking = currency_ranking(dataset)
        counts = [usage.payments for usage in ranking]
        assert counts == sorted(counts, reverse=True)
        assert len(ranking) > 30  # a long tail


class TestFigure5Survival:
    def test_survival_monotone_decreasing(self, dataset):
        curves = figure5_curves(dataset)
        for curve in curves.values():
            values = list(curve.values)
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_eur_usd_similar(self, dataset):
        curves = figure5_curves(dataset)
        assert curve_distance(curves["EUR"], curves["USD"]) < 0.35

    def test_curve_shapes_at_paper_scale(self):
        """EUR tracks USD and CCK tracks BTC on the economy the committed
        goldens print (``--payments 4000 --seed 7``, 12 EUR payments)."""
        _, dataset = dataset_for(
            ArtifactRequest("fig5", seed=7, payments=4000)
        )
        curves = figure5_curves(dataset)
        assert curve_distance(curves["EUR"], curves["USD"]) < 0.25
        assert curve_distance(curves["CCK"], curves["BTC"]) < curve_distance(
            curves["CCK"], curves["USD"]
        )

    def test_btc_cck_micro_regime(self, dataset):
        curves = figure5_curves(dataset)
        # Most BTC/CCK payments are below 1 unit.
        assert curves["BTC"].at(1.0) < 0.35
        assert curves["CCK"].at(1.0) < 0.35
        # while USD payments are mostly above 1.
        assert curves["USD"].at(1.0) > 0.5

    def test_mtl_cliff_at_1e9(self, dataset):
        curves = figure5_curves(dataset)
        assert curves["MTL"].at(1e7) > 0.95
        assert curves["MTL"].at(1e11) < 0.05

    def test_global_is_mixture(self, dataset):
        curves = figure5_curves(dataset)
        assert curves["Global"].samples == len(dataset)

    def test_median(self):
        curve = survival_curve(np.array([1.0] * 50 + [100.0] * 50), "x", grid=[0.5, 2, 500])
        assert curve.median() == pytest.approx(2)

    def test_mismatched_grids_rejected(self, dataset):
        a = survival_curve(dataset.amounts, "a", grid=[1, 2])
        b = survival_curve(dataset.amounts, "b", grid=[1, 3])
        with pytest.raises(AnalysisError):
            curve_distance(a, b)


class TestFigure6Paths:
    def test_direct_xrp_excluded(self, dataset):
        structure = path_structure(dataset)
        assert structure.direct_xrp_payments > 0
        assert structure.multi_hop_payments + structure.direct_xrp_payments <= len(dataset)
        assert structure.direct_xrp_payments / len(dataset) == pytest.approx(
            0.49, abs=0.03
        )

    def test_spam_spike_at_8(self, dataset):
        structure = path_structure(dataset)
        assert structure.modal_spam_hop() == 8
        assert structure.hop_share(8) == pytest.approx(0.28, abs=0.05)

    def test_organic_trend_decreasing(self, dataset):
        structure = path_structure(dataset)
        assert structure.hop_share(1) > structure.hop_share(2)
        assert structure.hop_share(2) > structure.hop_share(4)

    def test_44_hop_outlier_present(self, dataset):
        structure = path_structure(dataset)
        assert structure.hops_histogram.get(44, 0) >= 1

    def test_parallel_paths_spike_at_6(self, dataset):
        structure = path_structure(dataset)
        assert structure.parallel_share(6) == pytest.approx(0.28, abs=0.05)
        assert structure.parallel_share(5) < 0.02

    def test_parallel_mass_at_1_to_4(self, dataset):
        structure = path_structure(dataset)
        organic = sum(structure.parallel_share(k) for k in (1, 2, 3, 4))
        assert organic > 0.6

    def test_8_hop_spike_is_mtl(self, dataset):
        attribution = spam_hop_attribution(dataset, 8)
        assert max(attribution, key=attribution.get) == "MTL"


class TestTable2:
    def test_cross_currency_all_fail(self, history):
        result = table2(history)
        assert result.cross_currency.submitted > 50
        assert result.cross_currency.delivered == 0

    def test_single_currency_majority_fails(self, history):
        result = table2(history)
        assert 0.15 < result.single_currency.delivery_rate < 0.60

    def test_total_rate_small(self, history):
        result = table2(history)
        assert result.total.delivery_rate < 0.25

    def test_control_replay_mostly_delivers(self, history):
        control = replay_without_market_makers(history, remove_market_makers=False)
        assert control.total.delivery_rate > 0.7

    def test_window_is_majority_cross_currency(self, history):
        result = table2(history)
        cross_share = result.cross_currency.submitted / result.total.submitted
        assert cross_share == pytest.approx(0.687, abs=0.12)


class TestOfferConcentration:
    def test_top10_majority(self, history):
        concentration = offer_concentration(history.offer_records)
        assert 0.4 < concentration.share_of_top(10) < 0.85
        assert concentration.share_of_top(50) > concentration.share_of_top(10)

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            offer_concentration([])


class TestFigure7Gateways:
    def test_hubs_are_top_two(self, history):
        profiles = top_intermediaries(history, 50)
        top2 = {profiles[0].label, profiles[1].label}
        assert top2 == {"rp2PaY...X1mEx7", "r42Ccn...Xqm5M3"}
        assert not profiles[0].is_gateway and not profiles[1].is_gateway

    def test_gateways_present_in_top50(self, history):
        count = gateway_count_in_top(history, 50)
        assert count >= 5

    def test_gateway_profile_shape(self, history):
        profiles = top_intermediaries(history, 50)
        gateways = [p for p in profiles if p.is_gateway]
        # Gateways: large incoming trust, negative balances.
        assert all(p.incoming_trust_eur > p.outgoing_trust_eur for p in gateways)
        assert all(p.balance_eur < 0 for p in gateways)

    def test_hub_balances_positive(self, history):
        profiles = top_intermediaries(history, 2)
        assert all(p.balance_eur > 0 for p in profiles)

    def test_coverage_of_top50(self, history):
        assert coverage_of_top(history, 50) > 0.85  # paper: ~86 %

    def test_spam_relays_excluded(self, history):
        counts = intermediary_counts(history.records)
        assert not any(
            history.cast.label(account).startswith("mtl-relay") for account in counts
        )

    def test_spam_relays_included_when_asked(self, history):
        counts = intermediary_counts(history.records, exclude_spam=False)
        assert any(
            history.cast.label(account).startswith("mtl-relay") for account in counts
        )

    def test_trust_profile_eur(self, history):
        gateway = history.cast.gateways[0].account
        incoming, outgoing = trust_profile_eur(history.state, gateway)
        assert incoming > 0

    def test_balance_eur_matches_sign(self, history):
        gateway = history.cast.gateways[0].account
        assert balance_eur(history.state, gateway) < 0


class TestRendering:
    def test_all_renderers_produce_text(self, history, dataset):
        from repro.core.deanonymizer import Deanonymizer
        from repro.core.robustness import run_period
        from repro.stream.periods import period

        assert "Figure 4" in render_figure4(currency_ranking(dataset))
        assert "Figure 5" in render_figure5(figure5_curves(dataset), [1.0, 100.0])
        assert "Figure 6" in render_figure6(path_structure(dataset))
        assert "Figure 7" in render_figure7(top_intermediaries(history, 10))
        assert "Table II" in render_table2(table2(history))
        igs = Deanonymizer(dataset).figure3()
        assert "Figure 3" in render_figure3(igs)
        report = run_period(period("dec2015"), scale=1 / 2000, seed=0)
        assert "Figure 2" in render_figure2(report)
