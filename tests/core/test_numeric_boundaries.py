"""Boundary-value regression pins for the PR 3 numeric-correctness fixes.

Amount coarsening used ``np.round`` (half-to-even), so amounts exactly on
a bucket edge split inconsistently between buckets: 0.5 and 1.5 both
rounded to even neighbours (0 and 2) while 2.5 joined 2.  These tests pin
the explicit half-up rule on every path that buckets an amount — the
scalar API, the Fig. 3 fold, the currency-blind amount key, live ingest
and the attacker-query observation, which all run the one kernel in
:mod:`repro.core.fingerprint` — and the explicit rejection of pre-epoch
timestamps.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from repro.analysis.archive import record_to_json
from repro.analysis.dataset import TransactionDataset
from repro.core.deanonymizer import Deanonymizer
from repro.core.fingerprint import (
    PaymentChunk,
    bucket_fits,
    chunk_keys,
    round_amount,
    table1_buckets,
)
from repro.core.resolution import (
    FIGURE3_FEATURE_LISTS,
    AmountResolution,
    FeatureList,
    TimeResolution,
    coarsen_timestamps,
    granularity_exponent,
    half_up,
)
from repro.errors import AnalysisError, BucketOverflowError
from repro.ledger.accounts import account_from_name
from repro.ledger.currency import BTC, EUR, USD, XRP, Currency
from repro.online.events import payment_event
from repro.online.state import OnlineState
from repro.synthetic.config import EconomyConfig
from repro.synthetic.generator import generate_history
from repro.synthetic.records import TransactionRecord


def _payment(index: int, amount: float, currency: str) -> TransactionRecord:
    return TransactionRecord(
        index=index,
        timestamp=1_000 + index,
        sender=account_from_name(f"boundary-sender-{index}"),
        destination=account_from_name("boundary-destination"),
        currency=currency,
        amount=amount,
        is_xrp_direct=currency == "XRP",
        cross_currency=False,
        intermediate_hops=0,
        parallel_paths=1,
        intermediaries=(),
        delivered=True,
        kind="fiat",
    )


class TestHalfUpRounding:
    def test_half_up_scalar_rule(self):
        assert half_up(0.5) == 1.0
        assert half_up(1.5) == 2.0
        assert half_up(2.5) == 3.0
        assert half_up(2.4999) == 2.0

    def test_boundary_amounts_bucket_consistently(self):
        # EUR max granularity is 10^1: 5, 15, 25 all sit on bucket edges.
        # Banker's rounding sent 5 -> 0 and 25 -> 20 but 15 -> 20; half-up
        # sends every edge amount to the upper bucket.
        exponent = granularity_exponent(EUR, AmountResolution.MAX)
        assert exponent == 1
        assert round_amount(5.0, EUR, AmountResolution.MAX) == 10.0
        assert round_amount(15.0, EUR, AmountResolution.MAX) == 20.0
        assert round_amount(25.0, EUR, AmountResolution.MAX) == 30.0

    def test_vector_path_matches_scalar_on_boundaries(self):
        amounts = np.array([5.0, 15.0, 25.0, 35.0, 14.9])
        exponents = np.full(5, granularity_exponent(EUR, AmountResolution.MAX))
        buckets = table1_buckets(amounts, exponents)
        assert buckets.tolist() == [1, 2, 3, 4, 1]
        for value, bucket in zip(amounts, buckets):
            assert round_amount(value, EUR, AmountResolution.MAX) == pytest.approx(
                bucket * 10.0
            )

    def test_bucket_past_int64_raises(self):
        # 1e17 and 2e17 at 10^-3 are buckets 1e20 and 2e20; an int64 cast
        # would wrap both to INT64_MIN and merge two distinct amounts.
        with pytest.raises(BucketOverflowError):
            table1_buckets([1e17, 2e17], [-3, -3])
        assert table1_buckets([1e15, 2e15], [-3, -3]).tolist() == [
            10 ** 18, 2 * 10 ** 18,
        ]

    @pytest.mark.parametrize("currency", [BTC, EUR, XRP])
    def test_bucket_fits_agrees_with_every_resolution(self, currency):
        # Every float within 8 steps of the finest bucket's int64 edge.
        edge = 2.0 ** 63 * 10.0 ** granularity_exponent(currency, AmountResolution.MAX)
        near = [edge]
        for _ in range(8):
            near = [math.nextafter(near[0], 0.0)] + near
            near.append(math.nextafter(near[-1], math.inf))
        for amount in [0.0, 1.0, edge / 2, edge * 2] + near:
            fits = True
            for resolution in AmountResolution:
                exponent = granularity_exponent(currency, resolution)
                if exponent is None:
                    continue
                try:
                    table1_buckets([amount], [exponent])
                except BucketOverflowError:
                    fits = False
            assert bucket_fits(amount, currency) is fits

    def test_sub_unit_granularity_boundaries(self):
        # BTC max granularity is 10^-3; 0.0005 sits on the 0.000/0.001 edge.
        assert round_amount(0.0005, BTC, AmountResolution.MAX) == pytest.approx(0.001)
        assert round_amount(0.0015, BTC, AmountResolution.MAX) == pytest.approx(0.002)

    def test_weak_currency_boundaries(self):
        # XRP max granularity is 10^5: 50_000 is on the edge, 150_000 too.
        assert round_amount(50_000.0, XRP, AmountResolution.MAX) == 100_000.0
        assert round_amount(150_000.0, XRP, AmountResolution.MAX) == 200_000.0
        # 150_000 * 1e-5 is 1.4999999999999998 in float64 (1e-5 is not
        # exact), 150_000 / 1e5 is exactly 1.5: the Fig. 3 fold, the live
        # state and the attacker query must also see the edge and put the
        # payment in bucket 2.
        payment = _payment(0, 150_000.0, "XRP")
        dataset = TransactionDataset.from_records([payment])
        with_currency = FeatureList(
            AmountResolution.MAX, TimeResolution.NONE, True, False
        )
        blind = FeatureList(AmountResolution.MAX, TimeResolution.NONE, False, False)
        chunk = PaymentChunk.of_dataset(dataset)
        assert chunk_keys(with_currency, chunk) == [(2, "XRP")]
        assert chunk_keys(blind, chunk) == [(2, 5)]

        state = OnlineState()
        state.absorb(payment_event(0, record_to_json(payment)))
        state.figure3_rows()  # a read folds the buffered payment
        assert FIGURE3_FEATURE_LISTS[7].label() == "<Am; -; C; D>"
        assert dict(state.indexes[7].counts) == {
            (2, "XRP", payment.destination.address): 1
        }
        assert dict(state.indexes[8].counts) == {(2, 5): 1}  # <Am; -; -; ->

        deanon = Deanonymizer(dataset)
        for amount, expected in ((150_000.0, [0]), (160_000.0, [0]),
                                 (149_999.0, [])):
            rows = deanon.candidate_rows(
                FeatureList(),
                amount=amount,
                currency="XRP",
                timestamp=payment.timestamp,
                destination=payment.destination,
            )
            assert rows.tolist() == expected, amount


class TestTimestampContract:
    def test_negative_timestamps_rejected(self):
        with pytest.raises(ValueError, match="pre-epoch"):
            coarsen_timestamps(np.array([60, -1, 120]), TimeResolution.MINUTES)

    def test_non_negative_floor_bucketing_unchanged(self):
        stamps = np.array([0, 59, 60, 61, 3599, 3600])
        assert coarsen_timestamps(stamps, TimeResolution.MINUTES).tolist() == [
            0, 0, 60, 60, 3540, 3600,
        ]

    def test_empty_input_passes_through(self):
        out = coarsen_timestamps(np.empty(0, dtype=np.int64), TimeResolution.HOURS)
        assert out.size == 0


@pytest.fixture(scope="module")
def small_dataset():
    history = generate_history(
        EconomyConfig(seed=11, n_payments=600, n_users=40, n_offers=2400)
    )
    return TransactionDataset.from_records(history.records)


class TestQueryPathConsistency:
    def test_negative_observation_rejected(self, small_dataset):
        deanon = Deanonymizer(small_dataset)
        feature_list = FeatureList(
            AmountResolution.NONE, TimeResolution.MINUTES, True, True
        )
        with pytest.raises(AnalysisError, match="pre-epoch"):
            deanon.candidate_rows(
                feature_list,
                currency=small_dataset.currencies[0],
                timestamp=-5,
                destination=small_dataset.accounts[
                    int(small_dataset.destination_ids[0])
                ],
            )

    def test_boundary_observation_matches_its_own_payment(self, small_dataset):
        # Every payment, observed at its exact recorded features, must fall
        # in the same bucket the dataset side put it in — including rows
        # whose amount sits exactly on a bucket edge.
        deanon = Deanonymizer(small_dataset)
        feature_list = FeatureList(
            AmountResolution.LOW, TimeResolution.DAYS, True, True
        )
        for row in range(0, len(small_dataset), 97):
            rows = deanon.candidate_rows(
                feature_list,
                amount=float(small_dataset.amounts[row]),
                currency=small_dataset.currency_code(
                    int(small_dataset.currency_ids[row])
                ),
                timestamp=int(small_dataset.timestamps[row]),
                destination=small_dataset.accounts[
                    int(small_dataset.destination_ids[row])
                ],
            )
            assert row in rows

    def test_query_matches_fingerprint_group_on_every_figure3_list(
        self, small_dataset
    ):
        # Reference grouping, written out independently of the kernel:
        # the Table I bucket per the documented float rule, compared as
        # an exact absolute value when the currency is not a feature.
        # Every payment, queried at its own features, must get back
        # exactly the rows sharing its fingerprint — and the singleton
        # groups are Fig. 3's identified count.
        data = small_dataset
        deanon = Deanonymizer(data)
        gains = deanon.figure3()
        for feature_list, gain in zip(FIGURE3_FEATURE_LISTS, gains):
            groups = defaultdict(list)
            observations = []
            for row in range(len(data)):
                amount = float(data.amounts[row])
                code = data.currency_code(int(data.currency_ids[row]))
                timestamp = int(data.timestamps[row])
                destination = data.accounts[int(data.destination_ids[row])]
                key = []
                if feature_list.amount is not AmountResolution.NONE:
                    exponent = granularity_exponent(
                        Currency(code), feature_list.amount
                    )
                    if exponent > 0:
                        bucket = math.floor(amount / 10.0 ** exponent + 0.5)
                    else:
                        bucket = math.floor(amount * 10.0 ** -exponent + 0.5)
                    key.append(
                        bucket if feature_list.use_currency
                        else Fraction(bucket) * Fraction(10) ** exponent
                    )
                if feature_list.time is not TimeResolution.NONE:
                    seconds = feature_list.time.bucket_seconds()
                    key.append(timestamp // seconds)
                if feature_list.use_currency:
                    key.append(code)
                if feature_list.use_destination:
                    key.append(destination)
                groups[tuple(key)].append(row)
                observations.append(
                    (tuple(key), amount, code, timestamp, destination)
                )
            mismatched = 0
            for row, (key, amount, code, timestamp, destination) in enumerate(
                observations
            ):
                rows = deanon.candidate_rows(
                    feature_list,
                    amount=amount,
                    currency=code,
                    timestamp=timestamp,
                    destination=destination,
                )
                mismatched += rows.tolist() != groups[key]
            assert mismatched == 0, feature_list.label()
            singletons = sum(len(rows) == 1 for rows in groups.values())
            assert gain.identified == singletons, feature_list.label()
