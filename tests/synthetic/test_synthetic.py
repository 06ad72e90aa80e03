"""Tests for the synthetic economy: config, workload, actors, generator."""

import dataclasses

import numpy as np
import pytest

from repro.errors import SyntheticError
from repro.ledger.accounts import ACCOUNT_ZERO
from repro.ledger.currency import Currency
from repro.ledger.state import LedgerState
from repro.synthetic import generate_history
from repro.synthetic.actors import build_cast
from repro.synthetic.config import EconomyConfig, small_config
from repro.synthetic.distributions import model_for, sample_amounts, survival_function
from repro.synthetic.records import (
    KIND_CCK,
    KIND_FIAT,
    KIND_LONG_SPAM,
    KIND_MTL_SPAM,
    KIND_SPIN,
    KIND_XRP,
    KIND_ZERO,
)
from repro.synthetic.workload import (
    build_schedule,
    fiat_currency_weights,
    payment_counts,
    zipf_maker_weights,
)


class TestConfig:
    def test_defaults_valid(self):
        EconomyConfig()

    def test_invalid_sizes_rejected(self):
        with pytest.raises(SyntheticError):
            EconomyConfig(n_payments=0)
        with pytest.raises(SyntheticError):
            EconomyConfig(n_users=5)
        with pytest.raises(SyntheticError):
            EconomyConfig(n_gateways=1)
        with pytest.raises(SyntheticError):
            EconomyConfig(growth=0.0)

    def test_currency_weights_sum_to_one(self):
        weights = EconomyConfig().currency_weights()
        assert sum(weights.values()) == pytest.approx(1.0)
        assert weights["XRP"] == pytest.approx(0.49)

    def test_config_hashable_for_caching(self):
        assert hash(small_config()) == hash(small_config())


class TestDistributions:
    def test_amounts_positive_and_micro_precision(self):
        rng = np.random.default_rng(0)
        amounts = sample_amounts(Currency("USD"), rng, 1000)
        assert (amounts > 0).all()
        assert np.allclose(amounts, np.round(amounts, 6))

    def test_btc_is_micro_usd_is_not(self):
        rng = np.random.default_rng(0)
        btc = np.median(sample_amounts(Currency("BTC"), rng, 2000))
        usd = np.median(sample_amounts(Currency("USD"), rng, 2000))
        assert btc < 1.0 < usd

    def test_mtl_is_enormous(self):
        rng = np.random.default_rng(0)
        mtl = np.median(sample_amounts(Currency("MTL"), rng, 500))
        assert 1e8 < mtl < 1e10

    def test_price_points_repeat(self):
        rng = np.random.default_rng(0)
        usd = sample_amounts(Currency("USD"), rng, 5000)
        values, counts = np.unique(usd, return_counts=True)
        # Price points create heavy repetition (needed for the Fig. 3
        # amount-only IG collapse).
        assert counts.max() > 100

    def test_unknown_currency_gets_default_model(self):
        assert model_for(Currency("QQQ")) is model_for(Currency("WWW"))

    def test_survival_function(self):
        s = survival_function([1, 2, 3, 4], grid=[0, 2, 5])
        assert s[0] == 1.0
        assert s[1] == pytest.approx(0.5)
        assert s[2] == 0.0


class TestWorkload:
    def test_counts_sum_to_total(self):
        config = small_config()
        counts = payment_counts(config)
        assert sum(counts.values()) == config.n_payments

    def test_composition_matches_paper(self):
        counts = payment_counts(EconomyConfig(n_payments=100_000))
        total = sum(counts.values())
        xrp_mass = counts[KIND_XRP] + counts[KIND_SPIN] + counts[KIND_ZERO]
        assert xrp_mass / total == pytest.approx(0.49, abs=0.01)
        assert counts[KIND_MTL_SPAM] / total == pytest.approx(0.143, abs=0.01)
        assert counts[KIND_CCK] / total == pytest.approx(0.155, abs=0.01)

    def test_schedule_sorted_and_quantized(self):
        config = small_config(n_payments=500)
        slots = build_schedule(config, np.random.default_rng(0))
        times = [slot.timestamp for slot in slots]
        assert times == sorted(times)
        assert all(t % 5 == 0 for t in times)
        assert all(config.start_time <= t <= config.end_time for t in times)

    def test_spin_only_after_launch(self):
        config = small_config(n_payments=2000)
        slots = build_schedule(config, np.random.default_rng(0))
        spins = [s for s in slots if s.kind == KIND_SPIN]
        assert spins
        assert all(s.timestamp >= config.spin_launch_time for s in spins)

    def test_mtl_before_snapshot(self):
        config = small_config(n_payments=2000)
        slots = build_schedule(config, np.random.default_rng(0))
        mtl = [s for s in slots if s.kind in (KIND_MTL_SPAM, KIND_LONG_SPAM)]
        assert mtl
        assert all(s.timestamp <= config.snapshot_time for s in mtl)

    def test_cck_front_loaded(self):
        config = small_config(n_payments=4000)
        slots = build_schedule(config, np.random.default_rng(0))
        span = config.end_time - config.start_time
        cck = np.array([s.timestamp for s in slots if s.kind == KIND_CCK])
        fiat = np.array([s.timestamp for s in slots if s.kind == KIND_FIAT])
        assert cck.mean() < fiat.mean()

    def test_fiat_weights_exclude_reserved(self):
        codes, weights = fiat_currency_weights(small_config())
        assert "XRP" not in codes and "CCK" not in codes and "MTL" not in codes
        assert weights.sum() == pytest.approx(1.0)

    def test_zipf_weights(self):
        weights = zipf_maker_weights(EconomyConfig())
        assert weights.sum() == pytest.approx(1.0)
        assert weights[0] > weights[-1]


class TestCast:
    @pytest.fixture(scope="class")
    def cast_state(self):
        config = small_config()
        state = LedgerState()
        currencies = [Currency(code) for code in config.currency_weights()]
        cast = build_cast(config, state, np.random.default_rng(0), currencies)
        return cast, state, config

    def test_population_sizes(self, cast_state):
        cast, state, config = cast_state
        assert len(cast.gateways) == config.n_gateways
        assert len(cast.market_makers) == config.n_market_makers
        assert len(cast.users) == config.n_users
        assert len(cast.hubs) == 2

    def test_account_zero_exists_with_supply(self, cast_state):
        cast, state, _ = cast_state
        assert state.xrp_balance(ACCOUNT_ZERO) > 10 ** 16

    def test_every_currency_has_an_issuer(self, cast_state):
        cast, state, config = cast_state
        for code in config.currency_weights():
            if code in ("XRP", "CCK", "MTL"):
                continue
            assert cast.gateways_for(Currency(code)), code

    def test_tail_currencies_have_two_issuers(self, cast_state):
        cast, _, _ = cast_state
        assert len(cast.gateways_for(Currency("DVC"))) >= 2

    def test_users_cannot_ripple(self, cast_state):
        cast, state, _ = cast_state
        assert all(
            not state.account(user.account).allows_rippling for user in cast.users
        )
        assert all(
            state.account(gw.account).allows_rippling for gw in cast.gateways
        )

    def test_mtl_chains_shape(self, cast_state):
        cast, _, config = cast_state
        assert len(cast.mtl_chains) == config.mtl_spam_parallel_paths
        assert all(len(chain) == config.mtl_spam_hops for chain in cast.mtl_chains)
        assert len(cast.long_chain) == 44

    def test_gateways_mostly_declare_no_trust(self, cast_state):
        cast, state, _ = cast_state
        declaring = sum(
            1 for gw in cast.gateways if state.lines_trusted_by(gw.account)
        )
        assert declaring <= 3

    def test_labels(self, cast_state):
        cast, _, _ = cast_state
        assert cast.label(cast.gateways[0].account) == cast.gateways[0].name
        assert cast.label(cast.hubs[0]) == "rp2PaY...X1mEx7"

    @pytest.mark.parametrize("n_gateways", [2, 3, 4])
    def test_too_few_gateways_to_issue_every_currency(self, n_gateways):
        # The first four catalog gateways issue no JPY.
        config = dataclasses.replace(small_config(n_payments=300), n_gateways=n_gateways)
        with pytest.raises(SyntheticError, match="no gateway issues JPY"):
            generate_history(config)

    def test_gateway_to_gateway_lines_in_code_order(self):
        # Three gateways without JPY in play: Bitstamp trusts its peer
        # SnapSwap in both the majors they share, BTC and USD.
        config = dataclasses.replace(small_config(), n_gateways=3)
        currencies = [
            Currency(code) for code in config.currency_weights() if code != "JPY"
        ]
        state = LedgerState()
        cast = build_cast(config, state, np.random.default_rng(0), currencies)
        bitstamp = cast.gateways[2]
        lines = state.lines_trusted_by(bitstamp.account)
        assert [line.currency.code for line in lines] == ["BTC", "USD"]
        assert {line.trustee for line in lines} == {cast.gateways[0].account}


class TestGenerator:
    def test_record_count_and_low_failure(self, history):
        assert len(history.records) == history.config.n_payments
        assert history.failed_payments <= history.config.n_payments * 0.02

    def test_mtl_campaign_is_concentrated(self, history):
        # MTL is one campaign; USD is organic traffic over the whole history.
        def tightest_window(code, coverage=0.9):
            times = np.sort(
                [r.timestamp for r in history.records if r.currency == code and r.delivered]
            )
            keep = int(np.ceil(coverage * times.size))
            return int((times[keep - 1:] - times[: times.size - keep + 1]).min())

        assert tightest_window("MTL") < tightest_window("USD")

    def test_kind_composition(self, history):
        kinds = {}
        for record in history.records:
            kinds[record.kind] = kinds.get(record.kind, 0) + 1
        total = len(history.records)
        xrp_mass = kinds[KIND_XRP] + kinds[KIND_SPIN] + kinds[KIND_ZERO]
        assert xrp_mass / total == pytest.approx(0.49, abs=0.02)
        assert kinds[KIND_MTL_SPAM] / total == pytest.approx(0.143, abs=0.02)

    def test_mtl_spam_path_shape(self, history):
        spam = [r for r in history.records if r.kind == KIND_MTL_SPAM and r.delivered]
        assert spam
        assert all(r.intermediate_hops == 8 for r in spam)
        assert all(r.parallel_paths == 6 for r in spam)

    def test_long_spam_44_hops(self, history):
        outliers = [r for r in history.records if r.kind == KIND_LONG_SPAM and r.delivered]
        assert outliers
        assert all(r.intermediate_hops == 44 for r in outliers)

    def test_xrp_direct_has_no_intermediaries(self, history):
        xrp = [r for r in history.records if r.is_xrp_direct and r.delivered]
        assert xrp
        assert all(r.intermediate_hops == 0 for r in xrp)

    def test_spin_payments_to_spin_account(self, history):
        spin_account = history.cast.special["ripple_spin"]
        spins = [r for r in history.records if r.kind == KIND_SPIN]
        assert spins
        assert all(r.destination == spin_account for r in spins)

    def test_account_zero_spam_touches_account_zero(self, history):
        zero = [r for r in history.records if r.kind == KIND_ZERO]
        assert zero
        assert all(
            r.destination == ACCOUNT_ZERO or r.sender == ACCOUNT_ZERO for r in zero
        )

    def test_snapshot_and_replay_intents(self, history):
        assert history.snapshot_state is not None
        assert history.replay_intents
        payments = [i for i in history.replay_intents if i.kind != "deposit"]
        assert payments
        assert all(
            i.timestamp >= history.config.snapshot_time for i in payments
        )

    def test_snapshot_is_independent_copy(self, history):
        # Mutating the snapshot must not affect the live state.
        snap_total = history.snapshot_state.total_xrp_drops()
        live_total = history.state.total_xrp_drops()
        assert snap_total >= live_total  # fees burned after snapshot

    def test_offers_recorded(self, history):
        assert len(history.offer_records) == history.config.n_offers

    def test_attacker_piled_up_mtl_debt(self, history):
        attacker = history.cast.special["mtl_attacker"]
        balance = history.state.iou_balance(attacker, Currency("MTL"))
        assert balance.to_float() < -1e10  # enormous debt, as in the paper

    def test_deterministic_given_seed(self):
        from repro.synthetic.generator import LedgerHistoryGenerator

        a = LedgerHistoryGenerator(small_config(seed=42, n_payments=150)).generate()
        b = LedgerHistoryGenerator(small_config(seed=42, n_payments=150)).generate()
        assert [r.amount for r in a.records] == [r.amount for r in b.records]
        assert [r.sender for r in a.records] == [r.sender for r in b.records]
