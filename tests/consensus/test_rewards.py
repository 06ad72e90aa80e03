"""Tests for the validator reward-system proposal (Section IV remedy)."""

import pytest

from repro.consensus.rewards import (
    IncentiveSimulation,
    Operator,
    RewardPolicy,
    compare_policies,
)
from repro.errors import ConsensusError


class TestRewardPolicy:
    def test_round_pot(self):
        policy = RewardPolicy(tax_per_transaction=0.1)
        assert policy.round_pot(50) == pytest.approx(5.0)

    def test_split_equal(self):
        policy = RewardPolicy(ripple_labs_waiver=False)
        shares = policy.split(10.0, ["a", "b"], ripple_labs=[])
        assert shares == {"a": 5.0, "b": 5.0}

    def test_ripple_labs_waiver(self):
        policy = RewardPolicy(ripple_labs_waiver=True)
        shares = policy.split(10.0, ["R1", "a"], ripple_labs=["R1"])
        assert shares == {"a": 10.0}

    def test_all_labs_fall_back_to_everyone(self):
        policy = RewardPolicy(ripple_labs_waiver=True)
        shares = policy.split(10.0, ["R1", "R2"], ripple_labs=["R1", "R2"])
        assert shares == {"R1": 5.0, "R2": 5.0}

    def test_empty_signers(self):
        assert RewardPolicy().split(10.0, [], []) == {}


class TestOperator:
    def test_joins_when_profitable(self):
        operator = Operator("op", operating_cost=5.0)
        operator.consider(expected_reward=6.0)
        assert operator.active

    def test_stays_out_when_unprofitable(self):
        operator = Operator("op", operating_cost=5.0)
        operator.consider(expected_reward=4.0)
        assert not operator.active

    def test_leaves_after_patience_exhausted(self):
        operator = Operator("op", operating_cost=5.0, patience=2)
        operator.consider(6.0)
        assert operator.active
        operator.consider(4.0)
        assert operator.active  # one bad epoch tolerated
        operator.consider(4.0)
        assert not operator.active

    def test_recovery_resets_streak(self):
        operator = Operator("op", operating_cost=5.0, patience=2)
        operator.consider(6.0)
        operator.consider(4.0)
        operator.consider(6.0)  # recovered
        operator.consider(4.0)
        assert operator.active  # streak was reset


class TestIncentiveSimulation:
    def test_no_reward_no_validators(self):
        simulation = IncentiveSimulation(RewardPolicy(tax_per_transaction=0.0), seed=1)
        trajectory = simulation.run(20)
        # Status quo: only the Ripple Labs bootstrap remains.
        assert trajectory[-1].active_validators == 5

    def test_reward_grows_population(self):
        none = IncentiveSimulation(RewardPolicy(0.0), seed=2).equilibrium_size(30)
        taxed = IncentiveSimulation(RewardPolicy(0.05), seed=2).equilibrium_size(30)
        assert taxed > none

    def test_higher_tax_more_validators(self):
        results = compare_policies([0.0, 0.02, 0.1, 0.5], seed=3, epochs=30)
        sizes = [size for _, size, _ in results]
        assert sizes == sorted(sizes)
        assert sizes[-1] > sizes[0]
        assert sizes[-1] > 30  # a real population emerges

    def test_decentralization_improves_with_population(self):
        results = compare_policies([0.0, 0.5], seed=4, epochs=30)
        (_, _, exposure_none), (_, _, exposure_taxed) = results
        assert exposure_taxed < exposure_none

    def test_population_reaches_equilibrium(self):
        simulation = IncentiveSimulation(RewardPolicy(0.1), seed=5)
        trajectory = simulation.run(60)
        tail = [outcome.active_validators for outcome in trajectory[-10:]]
        assert max(tail) - min(tail) <= max(3, int(0.2 * tail[-1]))

    def test_bad_bootstrap_rejected(self):
        with pytest.raises(ConsensusError):
            IncentiveSimulation(RewardPolicy(), n_candidates=3, bootstrap_validators=5)

    def test_epoch_outcome_fields(self):
        simulation = IncentiveSimulation(RewardPolicy(0.1), seed=6)
        outcome = simulation.run(5)[-1]
        assert outcome.active_validators >= 5
        assert outcome.pot_per_epoch > 0
        assert 0 < outcome.takeover_top3 <= 1
