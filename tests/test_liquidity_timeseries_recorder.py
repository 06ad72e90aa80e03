"""Tests for liquidity metrics, time-series bursts, and stream capture."""

import numpy as np
import pytest

from repro.analysis.timeseries import (
    bucketize,
    campaign_window,
    concentration_in_time,
    currency_series,
    detect_bursts,
)
from repro.errors import AnalysisError, StreamError
from repro.ledger.accounts import account_from_name
from repro.ledger.amounts import Amount
from repro.ledger.currency import USD, Currency
from repro.ledger.state import LedgerState
from repro.payments.liquidity import (
    CreditNetwork,
    max_flow,
    relayer_removal_curve,
    sample_deliverability,
)
from repro.stream.collector import StreamCollector
from repro.stream.recorder import StreamRecorder, iter_capture, replay_capture
from repro.stream.events import StreamEvent
from repro.consensus.proposals import Validation


def usd(value):
    return Amount.from_value(USD, value)


class TestMaxFlow:
    def build_diamond(self):
        """src -> (a: 30 | b: 50) -> dst, plus direct src->dst 10."""
        state = LedgerState()
        accounts = {
            name: account_from_name(name, namespace="liq")
            for name in ("src", "a", "b", "dst")
        }
        for account in accounts.values():
            state.create_account(account, 10 ** 9)
        state.set_trust(accounts["a"], accounts["src"], usd(30))
        state.set_trust(accounts["b"], accounts["src"], usd(50))
        state.set_trust(accounts["dst"], accounts["a"], usd(100))
        state.set_trust(accounts["dst"], accounts["b"], usd(100))
        state.set_trust(accounts["dst"], accounts["src"], usd(10))
        return state, accounts

    def test_max_flow_sums_parallel_routes(self):
        state, accounts = self.build_diamond()
        network = CreditNetwork(state, USD)
        flow = max_flow(network, accounts["src"], accounts["dst"])
        assert flow == pytest.approx(30 + 50 + 10)

    def test_max_flow_stops_at_limit(self):
        state, accounts = self.build_diamond()
        network = CreditNetwork(state, USD)
        flow = max_flow(network, accounts["src"], accounts["dst"], limit=35.0)
        assert flow == pytest.approx(35.0)

    def test_max_flow_zero_when_disconnected(self):
        state, accounts = self.build_diamond()
        lonely = account_from_name("lonely", namespace="liq")
        state.create_account(lonely, 10 ** 9)
        network = CreditNetwork(state, USD)
        assert max_flow(network, accounts["src"], lonely) == 0.0

    def test_max_flow_zero_from_an_account_to_itself(self):
        state, accounts = self.build_diamond()
        network = CreditNetwork(state, USD)
        assert max_flow(network, accounts["src"], accounts["src"]) == 0.0

    def test_max_flow_does_not_mutate_state(self):
        state, accounts = self.build_diamond()
        max_flow(CreditNetwork(state, USD), accounts["src"], accounts["dst"])
        # All balances untouched.
        assert all(line.balance.is_zero for line in state.iter_trustlines())

    def test_max_flow_has_no_hop_bound(self):
        """src -> g1 -> ... -> g10 -> dst: ten relaying gateways, 50 USD each."""
        state = LedgerState()
        chain = [
            account_from_name(name, namespace="liq-chain")
            for name in ["src"] + [f"g{i}" for i in range(1, 11)] + ["dst"]
        ]
        for account in chain:
            state.create_account(account, 10 ** 9)
        for payer, payee in zip(chain, chain[1:]):
            state.set_trust(payee, payer, usd(50))
        flow = max_flow(CreditNetwork(state, USD), chain[0], chain[-1])
        assert flow == pytest.approx(50.0)

    def test_max_flow_cancels_flow_on_a_reverse_arc(self):
        """The first shortest path blocks the second unless it is undone.

        BFS finds src -> a -> b -> dst first (a's arcs are created before
        w's).  The second 10 USD needs src -> w -> b -> a -> y -> z -> dst,
        which moves a's flow off a -> b: only a reverse arc b -> a allows it.
        """
        state = LedgerState()
        names = ("src", "a", "b", "w", "y", "z", "dst")
        acc = {n: account_from_name(n, namespace="liq-rev") for n in names}
        for account in acc.values():
            state.create_account(account, 10 ** 9)
        for payer, payee in (
            ("src", "a"), ("a", "b"), ("b", "dst"), ("a", "y"), ("y", "z"),
            ("z", "dst"), ("src", "w"), ("w", "b"),
        ):
            state.set_trust(acc[payee], acc[payer], usd(10))
        flow = max_flow(CreditNetwork(state, USD), acc["src"], acc["dst"])
        assert flow == pytest.approx(20.0)


class TestDeliverability:
    def test_sampled_deliverability(self, history):
        users = [user.account for user in history.cast.users[:60]]
        report = sample_deliverability(
            history.state, Currency("USD"), users, pairs=20, seed=1
        )
        assert 0.0 <= report.deliverability <= 1.0
        assert report.pairs_sampled == 20

    def test_self_pairs_are_not_sampled(self):
        """Two users around one hub: every distinct pair is connected."""
        state = LedgerState()
        names = ("alice", "hub", "bob")
        acc = {n: account_from_name(n, namespace="liq-self") for n in names}
        for account in acc.values():
            state.create_account(account, 10 ** 9)
        for user in ("alice", "bob"):
            state.set_trust(acc[user], acc["hub"], usd(10))
            state.set_trust(acc["hub"], acc[user], usd(10))
        report = sample_deliverability(
            state, USD, list(acc.values()), pairs=30, seed=0
        )
        assert report.pairs_sampled < 30
        assert report.connected_pairs == report.pairs_sampled
        assert report.deliverability == 1.0

    def test_banning_relayers_reduces_deliverability(self, history):
        users = [user.account for user in history.cast.users[:60]]
        makers = history.cast.market_maker_accounts()
        curve = relayer_removal_curve(
            history.state,
            Currency("USD"),
            users,
            makers,
            steps=(0, len(makers)),
            pairs=25,
            seed=2,
        )
        assert curve[0][1] >= curve[-1][1]


class TestTimeSeries:
    def test_bucketize_covers_everything(self, dataset):
        grid, counts = bucketize(dataset.timestamps)
        assert counts.sum() == len(dataset)
        assert len(grid) == len(counts)

    def test_currency_series_shares_grid(self, dataset):
        grid_all, _ = bucketize(dataset.timestamps)
        grid_mtl, counts_mtl = currency_series(dataset, "MTL")
        assert np.array_equal(grid_all, grid_mtl)
        assert counts_mtl.sum() == int(dataset.rows_for_currency("MTL").sum())

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            bucketize(np.array([], dtype=np.int64))

    def test_burst_detector_finds_synthetic_burst(self):
        grid = np.arange(0, 100) * 1000
        counts = np.full(100, 5)
        counts[40:45] = 100
        bursts = detect_bursts(grid, counts)
        assert len(bursts) == 1
        assert bursts[0].start == 40_000
        assert bursts[0].peak_count == 100

    def test_no_burst_in_flat_series(self):
        grid = np.arange(0, 50) * 1000
        counts = np.full(50, 7)
        assert detect_bursts(grid, counts) == []

    def test_mtl_campaign_is_concentrated(self, dataset):
        # MTL is a campaign; USD is organic traffic.
        assert concentration_in_time(dataset, "MTL") < concentration_in_time(
            dataset, "USD"
        )

    def test_campaign_window_of_missing_currency(self, dataset):
        assert campaign_window(dataset, "ZZZ") is None

    def test_mtl_burst_detected_in_history(self, dataset):
        grid, counts = currency_series(dataset, "MTL")
        bursts = detect_bursts(grid, counts, threshold_factor=2.0)
        assert bursts  # the mid-2014 campaign shows up
        # Every detected peak falls inside the campaign's 90 % window.
        window = campaign_window(dataset, "MTL")
        assert window is not None
        low, high = window
        for burst in bursts:
            assert low - 7 * 86400 <= burst.peak_bucket <= high + 7 * 86400


class TestStreamRecorder:
    def make_event(self, index):
        return StreamEvent(
            validation=Validation(
                validator=f"v{index % 3}",
                sequence=index,
                page_hash=bytes([index % 256]) * 32,
                sign_time=index * 5,
            ),
            received_at=index * 5 + 1,
        )

    def test_record_and_replay_roundtrip(self, tmp_path):
        path = str(tmp_path / "capture.jsonl")
        with StreamRecorder(path) as recorder:
            for index in range(20):
                recorder(self.make_event(index))
            assert recorder.events_written == 20
        events = list(iter_capture(path))
        assert len(events) == 20
        assert events[0].validator == "v0"
        assert events[7].page_hash == bytes([7]) * 32

    def test_replay_into_collector(self, tmp_path):
        path = str(tmp_path / "capture.jsonl")
        with StreamRecorder(path) as recorder:
            for index in range(12):
                recorder(self.make_event(index))
        collector = StreamCollector()
        assert replay_capture(path, collector) == 12
        assert collector.total_counts() == {"v0": 4, "v1": 4, "v2": 4}

    def test_unopened_recorder_raises(self, tmp_path):
        recorder = StreamRecorder(str(tmp_path / "x.jsonl"))
        with pytest.raises(StreamError):
            recorder(self.make_event(0))

    def test_missing_capture(self):
        with pytest.raises(StreamError):
            list(iter_capture("/nonexistent/capture.jsonl"))

    def test_bad_header(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as handle:
            handle.write("garbage\n")
        with pytest.raises(StreamError):
            list(iter_capture(path))
