"""Tests for the de-anonymization core: resolutions, fingerprints, IG,
the side-channel attack, and financial profiling."""

import numpy as np
import pytest

from repro.analysis.dataset import TransactionDataset
from repro.core.attack import Observation, SideChannelAttack
from repro.core.deanonymizer import Deanonymizer
from repro.core.fingerprint import (
    FingerprintIndex,
    PaymentChunk,
    chunk_keys,
    round_amount,
)
from repro.core.history import net_worth_eur, profile_account
from repro.core.resolution import (
    FIGURE3_FEATURE_LISTS,
    AmountResolution,
    FeatureList,
    TimeResolution,
    coarsen_timestamps,
    granularity_exponent,
)
from repro.errors import AnalysisError
from repro.ledger.currency import BTC, EUR, USD, XRP


class TestResolutions:
    def test_table1_exponents(self):
        assert granularity_exponent(BTC, AmountResolution.MAX) == -3
        assert granularity_exponent(BTC, AmountResolution.AVERAGE) == -2
        assert granularity_exponent(BTC, AmountResolution.LOW) == -1
        assert granularity_exponent(EUR, AmountResolution.MAX) == 1
        assert granularity_exponent(EUR, AmountResolution.AVERAGE) == 2
        assert granularity_exponent(EUR, AmountResolution.LOW) == 3
        assert granularity_exponent(XRP, AmountResolution.MAX) == 5
        assert granularity_exponent(XRP, AmountResolution.LOW) == 7

    def test_high_aliases_max(self):
        assert granularity_exponent(EUR, AmountResolution.HIGH) == 1

    def test_none_drops_feature(self):
        assert granularity_exponent(EUR, AmountResolution.NONE) is None
        assert TimeResolution.NONE.bucket_seconds() is None

    def test_round_amount_examples(self):
        # The paper's EUR example: max rounds to tens.
        assert round_amount(163.0, EUR, AmountResolution.MAX) == 160.0
        assert round_amount(163.0, EUR, AmountResolution.AVERAGE) == 200.0
        assert round_amount(163.0, EUR, AmountResolution.LOW) == 0.0
        assert round_amount(0.00123, BTC, AmountResolution.MAX) == pytest.approx(0.001)

    def test_timestamp_coarsening_example(self):
        # Paper: 2015-08-24 15:41:03 -> 2015-08-24 00:00:00 at day level.
        from repro.ledger.transactions import from_ripple_time, to_ripple_time
        import datetime as dt

        t = to_ripple_time(dt.datetime(2015, 8, 24, 15, 41, 3, tzinfo=dt.timezone.utc))
        day = coarsen_timestamps(np.array([t]), TimeResolution.DAYS)[0]
        restored = from_ripple_time(int(day))
        assert (restored.hour, restored.minute, restored.second) == (0, 0, 0)
        assert restored.date() == dt.date(2015, 8, 24)

    def test_minute_and_hour_buckets(self):
        ts = np.array([3661])
        assert coarsen_timestamps(ts, TimeResolution.MINUTES)[0] == 3660
        assert coarsen_timestamps(ts, TimeResolution.HOURS)[0] == 3600
        assert coarsen_timestamps(ts, TimeResolution.SECONDS)[0] == 3661

    def test_labels(self):
        assert FeatureList().label() == "<Am; Tsc; C; D>"
        assert FIGURE3_FEATURE_LISTS[-1].label() == "<Al; Tdy; -; ->"

    def test_figure3_has_ten_rows(self):
        assert len(FIGURE3_FEATURE_LISTS) == 10


class TestFingerprints:
    def test_empty_feature_list_rejected(self, dataset):
        empty = FeatureList(
            AmountResolution.NONE, TimeResolution.NONE, False, False
        )
        with pytest.raises(AnalysisError):
            chunk_keys(empty, PaymentChunk.of_dataset(dataset))

    def test_column_counts(self, dataset):
        chunk = PaymentChunk.of_dataset(dataset)
        full = chunk_keys(FeatureList(), chunk)
        assert len(full) == len(dataset)
        assert {len(key) for key in full} == {4}
        partial = chunk_keys(
            FeatureList(AmountResolution.NONE, TimeResolution.SECONDS, True, False),
            chunk,
        )
        assert {len(key) for key in partial} == {2}
        # Currency-blind amounts key on (mantissa, exponent).
        blind = chunk_keys(
            FeatureList(AmountResolution.MAX, TimeResolution.NONE, False, False),
            chunk,
        )
        assert {len(key) for key in blind} == {2}

    def test_unique_mask_consistency(self, dataset):
        deanonymizer = Deanonymizer(dataset)
        strict = deanonymizer.identified_mask(FeatureList())
        sender = deanonymizer.identified_mask(FeatureList(), strict=False)
        # Strict uniqueness implies sender identification.
        assert (strict <= sender).all()
        assert int(strict.sum()) == (
            deanonymizer.information_gain(FeatureList()).identified
        )

    def test_identical_rows_share_group(self, dataset):
        # Keys are values, not ranks: the same payments absorbed as a
        # second chunk produce the same keys and pair up with the first.
        chunk = PaymentChunk.of_dataset(dataset)
        index = FingerprintIndex(FeatureList())
        first = index.absorb(chunk)
        assert len(first) == len(dataset)
        assert index.absorb(chunk) == first
        assert index.unique == 0
        assert sum(index.counts.values()) == 2 * len(dataset)


class TestInformationGain:
    @pytest.fixture(scope="class")
    def deanonymizer(self, dataset):
        return Deanonymizer(dataset)

    def test_full_resolution_nearly_total(self, deanonymizer):
        ig = deanonymizer.information_gain(FeatureList())
        assert ig.percent > 97.0  # paper: 99.83 %

    def test_dropping_currency_harmless(self, deanonymizer):
        no_currency = deanonymizer.information_gain(
            FeatureList(AmountResolution.MAX, TimeResolution.SECONDS, False, True)
        )
        full = deanonymizer.information_gain(FeatureList())
        assert abs(no_currency.percent - full.percent) < 2.0

    def test_dropping_destination_mild(self, deanonymizer):
        no_dest = deanonymizer.information_gain(
            FeatureList(AmountResolution.MAX, TimeResolution.SECONDS, True, False)
        )
        full = deanonymizer.information_gain(FeatureList())
        assert no_dest.percent <= full.percent
        assert no_dest.percent > 80.0  # paper: 93.78 %

    def test_timestamp_most_informative(self, deanonymizer):
        # Paper: removing T hurts far more than removing A.
        no_amount = deanonymizer.information_gain(
            FeatureList(AmountResolution.NONE, TimeResolution.SECONDS, True, True)
        )
        no_time = deanonymizer.information_gain(
            FeatureList(AmountResolution.MAX, TimeResolution.NONE, True, True)
        )
        assert no_time.percent < no_amount.percent
        assert no_time.percent < 60.0  # paper: 48.84 %

    def test_coarsening_monotone(self, deanonymizer):
        lists = [
            FeatureList(AmountResolution.MAX, TimeResolution.SECONDS, True, True),
            FeatureList(AmountResolution.HIGH, TimeResolution.MINUTES, True, True),
            FeatureList(AmountResolution.AVERAGE, TimeResolution.HOURS, True, True),
            FeatureList(AmountResolution.LOW, TimeResolution.DAYS, True, True),
        ]
        gains = [deanonymizer.information_gain(fl).percent for fl in lists]
        assert all(a >= b - 1e-9 for a, b in zip(gains, gains[1:]))

    def test_lowest_resolution_among_smallest(self, deanonymizer):
        # The paper's smallest IG is <Al; Tdy; -; -> (1.28 %); at our scale
        # it competes with <Am; -; -; -> for last place, so assert it is
        # one of the two weakest lists and far below full resolution.
        gains = sorted(g.percent for g in deanonymizer.figure3())
        lowest = deanonymizer.information_gain(FIGURE3_FEATURE_LISTS[-1])
        assert lowest.percent <= gains[1] + 1e-9
        assert lowest.percent < 35.0

    def test_strict_vs_sender_mode(self, deanonymizer):
        fl = FIGURE3_FEATURE_LISTS[-1]
        strict = deanonymizer.information_gain(fl, strict=True)
        sender = deanonymizer.information_gain(fl, strict=False)
        assert sender.identified >= strict.identified

    def test_figure3_order(self, deanonymizer):
        results = deanonymizer.figure3()
        assert len(results) == 10
        assert results[0].feature_list == FIGURE3_FEATURE_LISTS[0]


class TestAttack:
    @pytest.fixture(scope="class")
    def attack(self, dataset, history):
        return SideChannelAttack(dataset, history.state)

    def observation_for(self, dataset, row):
        return Observation(
            destination=dataset.accounts[int(dataset.destination_ids[row])],
            currency=dataset.currency_code(int(dataset.currency_ids[row])),
            amount=float(dataset.amounts[row]),
            timestamp=int(dataset.timestamps[row]),
        )

    def test_latte_attack_identifies_sender(self, attack, dataset):
        rows = np.flatnonzero(dataset.kinds == "fiat")
        hits = 0
        for row in rows[:40]:
            result = attack.run(self.observation_for(dataset, int(row)))
            truth = dataset.accounts[int(dataset.sender_ids[int(row)])]
            if result.succeeded and result.sender == truth:
                hits += 1
        assert hits >= 36  # ~the 99.8 % of the paper

    def test_attack_builds_dossier(self, attack, dataset):
        rows = np.flatnonzero(dataset.kinds == "fiat")
        result = attack.run(self.observation_for(dataset, int(rows[0])))
        assert result.succeeded
        profile = result.profile
        assert profile is not None
        assert profile.payments_sent >= 1
        assert profile.balances  # live balances from the public state

    def test_missing_required_field_raises(self, attack):
        with pytest.raises(AnalysisError):
            attack.run(Observation(amount=5.0))  # needs currency + more

    def test_unknown_destination_yields_no_candidates(self, attack):
        from repro.ledger.accounts import account_from_name

        observation = Observation(
            destination=account_from_name("never-seen"),
            currency="USD",
            amount=10.0,
            timestamp=0,
        )
        result = attack.run(observation)
        assert not result.succeeded and result.candidates == []

    def test_success_rate_close_to_ig(self, attack, dataset):
        fl = FeatureList()
        rows = list(np.random.default_rng(0).choice(len(dataset), 60, replace=False))
        rate = attack.success_rate(fl, sample_rows=[int(r) for r in rows])
        ig = Deanonymizer(dataset).information_gain(fl, strict=False)
        assert rate == pytest.approx(ig.fraction, abs=0.12)


class TestFinancialProfile:
    def test_profile_totals(self, dataset, history):
        sender = dataset.accounts[int(dataset.sender_ids[0])]
        profile = profile_account(sender, dataset, history.state)
        sent_rows = dataset.payments_by_sender(sender)
        assert profile.payments_sent == int(sent_rows.sum())
        assert profile.total_spent_eur >= 0

    def test_monthly_income_buckets(self, dataset, history):
        # Pick a popular destination to guarantee income.
        dest_id = int(np.bincount(dataset.destination_ids).argmax())
        dest = dataset.accounts[dest_id]
        profile = profile_account(dest, dataset, history.state)
        assert profile.payments_received > 0
        assert profile.monthly_income_eur
        assert profile.average_monthly_income_eur > 0

    def test_top_merchants_sorted(self, dataset):
        sender_id = int(np.bincount(dataset.sender_ids).argmax())
        sender = dataset.accounts[sender_id]
        profile = profile_account(sender, dataset)
        counts = [count for _, count in profile.top_merchants]
        assert counts == sorted(counts, reverse=True)

    def test_trusted_parties_from_state(self, dataset, history):
        user = history.cast.users[0].account
        profile = profile_account(user, dataset, history.state)
        assert profile.trusted_parties  # everyone trusts at least a hub

    def test_net_worth(self, dataset, history):
        user = history.cast.users[0].account
        profile = profile_account(user, dataset, history.state)
        assert isinstance(net_worth_eur(profile), float)

    def test_unknown_account_without_state_raises(self, dataset):
        from repro.ledger.accounts import account_from_name

        with pytest.raises(AnalysisError):
            profile_account(account_from_name("ghost-profile"), dataset)
