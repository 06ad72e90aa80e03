"""Tests for the RPCA consensus substrate: UNLs, rounds, engine, faults."""

import numpy as np
import pytest

from repro.consensus.engine import ConsensusEngine, default_tx_supplier
from repro.consensus.faults import (
    Behaviour,
    active,
    byzantine,
    forked,
    lagging,
    offline,
    windowed,
)
from repro.consensus.network import NetworkModel
from repro.consensus.proposals import Validation
from repro.consensus.rounds import (
    deliberate,
    draw_positions,
    page_hash_for,
    run_round,
)
from repro.consensus.unl import UNL
from repro.consensus.validator import Validator, validator_key_id
from repro.errors import ConsensusError, QuorumError


def make_roster(n_active=8, n_lagging=0, n_forked=0, n_byzantine=0):
    names = [f"v{i}" for i in range(n_active)]
    unl = UNL.of(names)
    validators = [Validator(name, unl, active(availability=1.0)) for name in names]
    for i in range(n_lagging):
        validators.append(Validator(f"lag{i}", unl, lagging()))
    for i in range(n_forked):
        validators.append(Validator(f"fork{i}", UNL.of([f"fork{i}"]), forked(network_id=1)))
    for i in range(n_byzantine):
        validators.append(Validator(f"byz{i}", unl, byzantine()))
    return validators, unl


class TestUNL:
    def test_empty_rejected(self):
        with pytest.raises(QuorumError):
            UNL.of([])

    def test_quorum_size_80pct(self):
        assert UNL.of([f"v{i}" for i in range(5)]).quorum_size(0.8) == 4
        assert UNL.of([f"v{i}" for i in range(10)]).quorum_size(0.8) == 8

    def test_quorum_bounds(self):
        with pytest.raises(QuorumError):
            UNL.of(["a"]).quorum_size(0.0)

    def test_membership_and_iteration(self):
        unl = UNL.of(["b", "a"])
        assert "a" in unl and "c" not in unl
        assert list(unl) == ["a", "b"]

    def test_overlap(self):
        a = UNL.of(["1", "2", "3"])
        b = UNL.of(["2", "3", "4"])
        assert a.overlap(b) == pytest.approx(0.5)
        assert a.overlap(a) == 1.0


class TestValidatorBehaviour:
    def test_key_id_format(self):
        key = validator_key_id("bougalis.net")
        assert key.startswith("n9")
        assert validator_key_id("bougalis.net") == key  # deterministic

    def test_participation_window(self):
        profile = windowed(active(availability=1.0), 100, 200)
        validator = Validator("v", UNL.of(["v"]), profile)
        rng = np.random.default_rng(0)
        assert not validator.participates(50, rng)
        assert validator.participates(150, rng)
        assert not validator.participates(250, rng)

    def test_initial_position_subset_of_pool(self):
        validator = Validator("v", UNL.of(["v"]), active())
        rng = np.random.default_rng(0)
        position = draw_positions([validator.receive_probability], 20, rng)
        assert position.shape == (1, 20)
        assert set(position.ravel().tolist()) <= {0, 1}

    def test_lagging_sees_less(self):
        rng = np.random.default_rng(0)
        healthy = Validator("h", UNL.of(["h"]), active())
        lagger = Validator("l", UNL.of(["l"]), lagging())
        seen_healthy, seen_lagging = draw_positions(
            [healthy.receive_probability, lagger.receive_probability], 400, rng
        ).sum(axis=1)
        assert seen_lagging < seen_healthy

    def test_update_position_threshold(self):
        roster = [Validator(n, UNL.of(["a", "b", "c", "d"]), active()) for n in "abcd"]
        delivered = ~np.eye(4, dtype=bool)
        # a, b and c propose tx; d does not
        positions = np.array([[1], [1], [1], [0]], dtype=np.int64)

        def a_keeps(threshold):
            after, _ = deliberate(
                roster, [False] * 4, positions, delivered, frozenset(),
                (threshold,), np.random.default_rng(0),
            )
            return bool(after[0, 0])

        # support 3/4 (incl. self) >= 0.5 -> kept
        assert a_keeps(0.5)
        # support 3/4 < 0.8 -> dropped
        assert not a_keeps(0.8)

    def test_validation_signing(self):
        validator = Validator("v", UNL.of(["v"]), active())
        validation = validator.make_validation(7, b"\x01" * 32, 100, sign=True)
        assert validation.verify(validator.keypair.public)
        tampered = Validation(
            validator="v", sequence=8, page_hash=b"\x01" * 32,
            sign_time=100, signature=validation.signature,
        )
        assert not tampered.verify(validator.keypair.public)


class TestRound:
    def run_one(self, validators, unl, seed=0, tx_count=6):
        rng = np.random.default_rng(seed)
        pool = frozenset(bytes([i]) * 32 for i in range(tx_count))
        return run_round(
            round_index=0,
            sequence=1,
            parent_hashes={0: b"\x00" * 32},
            close_time=5,
            tx_pool=pool,
            validators=validators,
            master_unl=unl,
            network=NetworkModel(),
            rng=rng,
        )

    def test_healthy_round_validates(self):
        validators, unl = make_roster(8)
        outcome = self.run_one(validators, unl)
        assert outcome.validated
        assert outcome.agreement >= 0.8

    def test_agreement_on_transaction_set(self):
        validators, unl = make_roster(8)
        outcome = self.run_one(validators, unl, tx_count=12)
        # The validated set must be a subset of the pool, non-trivially big.
        assert len(outcome.validated_tx_set) >= 8

    def test_forked_validators_never_valid(self):
        validators, unl = make_roster(6, n_forked=3)
        outcome = self.run_one(validators, unl)
        fork_validations = [v for v in outcome.validations if v.validator.startswith("fork")]
        assert fork_validations
        assert all(v.page_hash != outcome.validated_hash for v in fork_validations)

    def test_byzantine_minority_cannot_block(self):
        validators, unl = make_roster(8, n_byzantine=1)
        unl_all = UNL.of([v.name for v in validators if v.network_id == 0])
        outcome = self.run_one(validators, unl_all)
        assert outcome.validated

    def test_no_participants_no_validation(self):
        names = ["v0", "v1"]
        unl = UNL.of(names)
        validators = [Validator(n, unl, offline(availability=0.0)) for n in names]
        outcome = self.run_one(validators, unl)
        assert not outcome.validated
        assert outcome.validations == []

    def test_page_hash_depends_on_everything(self):
        base = page_hash_for(1, b"\x00" * 32, 5, frozenset({b"a" * 32}))
        assert page_hash_for(2, b"\x00" * 32, 5, frozenset({b"a" * 32})) != base
        assert page_hash_for(1, b"\x01" * 32, 5, frozenset({b"a" * 32})) != base
        assert page_hash_for(1, b"\x00" * 32, 6, frozenset({b"a" * 32})) != base
        assert page_hash_for(1, b"\x00" * 32, 5, frozenset({b"b" * 32})) != base


class TestEngine:
    def test_runs_and_accounts(self):
        validators, unl = make_roster(8, n_lagging=2, n_forked=2)
        engine = ConsensusEngine(validators, master_unl=unl, seed=3)
        report = engine.run(120)
        assert report.rounds_run == 120
        assert report.availability > 0.9
        actives = [report.stats[f"v{i}"] for i in range(8)]
        assert all(s.valid_fraction > 0.9 for s in actives)
        forks = [report.stats[f"fork{i}"] for i in range(2)]
        assert all(s.valid_pages == 0 and s.total_pages > 50 for s in forks)
        lags = [report.stats[f"lag{i}"] for i in range(2)]
        assert all(s.valid_fraction < 0.3 for s in lags)

    def test_chain_advances_only_on_validation(self):
        validators, unl = make_roster(8)
        engine = ConsensusEngine(validators, master_unl=unl, seed=1)
        report = engine.run(50)
        assert len(report.main_chain_hashes) == report.rounds_validated
        assert len(set(report.main_chain_hashes)) == report.rounds_validated

    def test_observer_sees_every_validation(self):
        validators, unl = make_roster(5)
        engine = ConsensusEngine(validators, master_unl=unl, seed=2)
        seen = []
        engine.subscribe(seen.append)
        report = engine.run(30)
        assert len(seen) == sum(s.total_pages for s in report.stats.values())

    def test_duplicate_names_rejected(self):
        unl = UNL.of(["v"])
        validators = [Validator("v", unl), Validator("v", unl)]
        with pytest.raises(ConsensusError):
            ConsensusEngine(validators)

    def test_empty_roster_rejected(self):
        with pytest.raises(ConsensusError):
            ConsensusEngine([])

    def test_quorum_sweep_availability(self):
        # With only 60% of validators reliable, an 80% quorum stalls while
        # a 50% quorum makes progress — the robustness tradeoff of RPCA.
        names = [f"v{i}" for i in range(10)]
        unl = UNL.of(names)
        rosters = []
        for name in names[:6]:
            rosters.append(Validator(name, unl, active(availability=0.99)))
        for name in names[6:]:
            rosters.append(Validator(name, unl, offline(availability=0.05)))
        low = ConsensusEngine(rosters, master_unl=unl, quorum=0.5, seed=5).run(60)
        rosters2 = [Validator(v.name, v.unl, v.profile) for v in rosters]
        high = ConsensusEngine(rosters2, master_unl=unl, quorum=0.8, seed=5).run(60)
        assert low.availability > high.availability

    def test_partitioned_network_halts(self):
        names = [f"v{i}" for i in range(8)]
        unl = UNL.of(names)
        validators = [Validator(n, unl, active(availability=1.0)) for n in names]
        network = NetworkModel(partitions=[set(names[:4]), set(names[4:])])
        report = ConsensusEngine(validators, master_unl=unl, network=network, seed=4).run(40)
        # Neither half can reach the 80% quorum.
        assert report.availability < 0.1

    def test_default_tx_supplier_shape(self):
        rng = np.random.default_rng(0)
        pool = default_tx_supplier(0, rng)
        assert 4 <= len(pool) <= 12
        assert all(len(tx) == 32 for tx in pool)

    def test_signed_pages_verify(self):
        validators, unl = make_roster(5)
        engine = ConsensusEngine(validators, master_unl=unl, seed=9, sign_pages=True)
        seen = []
        engine.subscribe(seen.append)
        engine.run(3)
        by_name = {v.name: v for v in validators}
        assert seen
        assert all(v.verify(by_name[v.validator].keypair.public) for v in seen)
