"""Tests for population analytics."""

import numpy as np
import pytest

from repro.analysis.population import (
    growth_is_increasing,
    monthly_volume,
    new_accounts_per_month,
    population_stats,
    top_senders,
)


class TestPopulation:
    def test_stats_shape(self, dataset):
        stats = population_stats(dataset)
        assert stats.accounts_seen > 0
        assert 0 < stats.active_senders <= stats.accounts_seen
        assert 0 < stats.active_share <= 1
        assert stats.payments_per_active_sender >= 1

    def test_minimum_payments_threshold(self, dataset):
        casual = population_stats(dataset, min_payments=1)
        committed = population_stats(dataset, min_payments=10)
        assert committed.active_senders < casual.active_senders

    def test_activity_is_concentrated(self, dataset):
        # Zipf-distributed senders: a heavily unequal activity profile.
        stats = population_stats(dataset)
        assert stats.activity_concentration > 0.3

    def test_monthly_volume_covers_history(self, dataset):
        volume = monthly_volume(dataset)
        months = [month for month, _ in volume]
        assert months == sorted(months)
        assert sum(count for _, count in volume) == len(dataset)

    def test_growth_over_time(self, dataset):
        # The generator's arrival process grows; the analysis must see it.
        assert growth_is_increasing(dataset)

    def test_top_senders_sorted(self, dataset):
        top = top_senders(dataset, top_k=5)
        counts = [count for _, count in top]
        assert counts == sorted(counts, reverse=True)

    def test_new_accounts_per_month_totals(self, dataset):
        registrations = new_accounts_per_month(dataset)
        seen = np.union1d(
            np.unique(dataset.sender_ids), np.unique(dataset.destination_ids)
        )
        assert sum(registrations.values()) == len(seen)
