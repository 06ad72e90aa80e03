"""Tests for the consensus message-delivery model."""

import numpy as np
import pytest

from repro.consensus.faults import active, forked, lagging
from repro.consensus.network import NetworkModel
from repro.consensus.unl import UNL
from repro.consensus.validator import Validator


def make(name, profile):
    return Validator(name, UNL.of([name]), profile)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


class TestDeliveryArray:
    def test_shape_and_diagonal(self, rng):
        validators = [make(f"v{i}", active(availability=1.0)) for i in range(6)]
        delivered = NetworkModel().delivery_array(validators, rng)
        assert delivered.shape == (6, 6)
        assert not delivered.diagonal().any()

    def test_healthy_links_mostly_deliver(self, rng):
        validators = [make(f"v{i}", active(availability=1.0)) for i in range(10)]
        delivered = NetworkModel(base_loss=0.01).delivery_array(validators, rng)
        off_diagonal = delivered.sum() / (10 * 9)
        assert off_diagonal > 0.95

    def test_lagging_links_lossy(self, rng):
        validators = [make("h1", active()), make("h2", active()), make("lag", lagging())]
        totals = np.zeros((3, 3))
        for _ in range(200):
            totals += NetworkModel().delivery_array(validators, rng)
        healthy_rate = totals[0, 1] / 200
        lagging_rate = totals[2, 0] / 200
        assert lagging_rate < healthy_rate - 0.3

    def test_cross_network_never_delivers(self, rng):
        validators = [make("main", active()), make("fork", forked(network_id=1))]
        for _ in range(50):
            delivered = NetworkModel(base_loss=0.0).delivery_array(validators, rng)
            assert not delivered[0, 1] and not delivered[1, 0]

    def test_partitions_cut_links(self, rng):
        validators = [make(f"v{i}", active(availability=1.0)) for i in range(4)]
        model = NetworkModel(
            base_loss=0.0, partitions=[{"v0", "v1"}, {"v2", "v3"}]
        )
        delivered = model.delivery_array(validators, rng)
        assert delivered[0, 1] or True  # within-partition links can deliver
        assert not delivered[0, 2] and not delivered[0, 3]
        assert not delivered[2, 0] and not delivered[3, 1]


    def test_partition_mask_matches_pairwise_rule(self, rng):
        """Unlisted validators share one "no group" id, a validator listed
        twice takes its last group, and a link is cut exactly when the ids
        differ."""
        names = [f"v{i}" for i in range(8)]
        validators = [make(name, active()) for name in names]
        for _ in range(30):
            partitions = [
                {n for n in names if rng.random() < 0.4}
                for _ in range(int(rng.integers(1, 4)))
            ]
            model = NetworkModel(base_loss=0.0, partitions=partitions)
            delivered = model.delivery_array(validators, rng)
            for i, a in enumerate(names):
                for j, b in enumerate(names):
                    assert delivered[i, j] == (
                        i != j and not model._partitioned(a, b)
                    )


class TestDeliveryMatrixConsistency:
    def test_dict_form_agrees_on_structure(self, rng):
        """The dict API (used in docs/tests) and the vectorized array agree
        on hard constraints: diagonal, cross-network, partitions."""
        validators = [
            make("a", active()),
            make("b", forked(network_id=1)),
            make("c", active()),
        ]
        model = NetworkModel(base_loss=0.0)
        matrix = model.delivery_matrix(validators, rng)
        assert ("a", "a") not in matrix
        assert matrix[("a", "b")] is False  # cross network
        assert matrix[("b", "c")] is False
