"""The generator's weighted picks: one CDF per weight array, built once.

``weighted_draw`` must return the index ``rng.choice(len(w), p=w)`` would
and leave the generator in the same state, or every generated history
changes.
"""

import numpy as np
import pytest

from repro.ledger.accounts import account_from_name
from repro.synthetic import generator as generator_module
from repro.synthetic.config import EconomyConfig
from repro.synthetic.generator import (
    SPLIT_CHOICES,
    SPLIT_WEIGHTS,
    LedgerHistoryGenerator,
    weighted_cdf,
    weighted_draw,
)


def _config(**overrides):
    values = dict(seed=5, n_payments=200, n_users=40, n_offers=400)
    values.update(overrides)
    return EconomyConfig(**values)


@pytest.fixture(scope="module")
def generator():
    return LedgerHistoryGenerator(_config())


def _assert_same_stream(weights, cdf, draws=400):
    a = np.random.default_rng(11)
    b = np.random.default_rng(11)
    drawn = [weighted_draw(a, cdf) for _ in range(draws)]
    chosen = [int(b.choice(len(weights), p=weights)) for _ in range(draws)]
    assert drawn == chosen
    assert a.bit_generator.state == b.bit_generator.state


class TestSameStreamAsChoice:
    def test_sender(self, generator):
        _assert_same_stream(generator._sender_weights, generator._sender_cdf)

    def test_receiver(self, generator):
        _assert_same_stream(generator._receiver_weights, generator._receiver_cdf)

    def test_hub_groups(self, generator):
        assert len(generator._hub_group_cdfs) == len(generator._hub_group_weights) >= 2
        for weights, cdf in zip(generator._hub_group_weights, generator._hub_group_cdfs):
            _assert_same_stream(weights, cdf)

    def test_makers(self, generator):
        _assert_same_stream(generator._maker_weights, generator._maker_cdf)

    def test_split_counts(self):
        a = np.random.default_rng(3)
        b = np.random.default_rng(3)
        cdf = weighted_cdf(np.array(SPLIT_WEIGHTS))
        drawn = [SPLIT_CHOICES[weighted_draw(a, cdf)] for _ in range(400)]
        chosen = [
            int(b.choice(np.array(SPLIT_CHOICES), p=np.array(SPLIT_WEIGHTS)))
            for _ in range(400)
        ]
        assert drawn == chosen
        assert a.bit_generator.state == b.bit_generator.state

    def test_pick_user_consumes_like_choice(self, generator):
        # The same draws through the generator's own helper.
        generator.rng = np.random.default_rng(21)
        reference = np.random.default_rng(21)
        users = generator._user_accounts
        for _ in range(200):
            index = int(reference.choice(len(users), p=generator._sender_weights))
            assert generator._pick_user(generator._sender_cdf) == users[index]
        assert generator.rng.bit_generator.state == reference.bit_generator.state


class TestRejectedWeights:
    def test_zero_hub_group_raises_at_draw_time(self, monkeypatch):
        # More hubs than users leaves some hub groups without members, so
        # their weights sum to zero.  choice raised on such a draw; the
        # precomputed CDF must too, not quietly pick user 0.
        build_cast = generator_module.build_cast
        config = _config(n_users=10)

        def crowded_cast(*args):
            cast = build_cast(*args)
            cast.hubs.extend(
                account_from_name(f"extra-hub-{index}", namespace="test")
                for index in range(config.n_users + 2 - len(cast.hubs))
            )
            return cast

        monkeypatch.setattr(generator_module, "build_cast", crowded_cast)
        generator = LedgerHistoryGenerator(config)
        empty = [
            index
            for index, weights in enumerate(generator._hub_group_weights)
            if weights.sum() == 0
        ]
        assert empty
        for index in empty:
            weights = generator._hub_group_weights[index]
            with pytest.raises(ValueError):
                np.random.default_rng(0).choice(len(weights), p=weights)
            with pytest.raises(ValueError):
                generator._pick_user(generator._hub_group_cdfs[index])

    @pytest.mark.parametrize(
        "weights",
        [np.zeros(3), np.array([0.5, 0.6]), np.array([1.5, -0.5]), np.array([np.nan, 1.0])],
    )
    def test_invalid_weights_raise_like_choice(self, weights):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(len(weights), p=weights)
        with pytest.raises(ValueError):
            weighted_draw(np.random.default_rng(0), weighted_cdf(weights))
