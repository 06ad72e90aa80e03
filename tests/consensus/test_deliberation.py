"""The matrix deliberation equals the per-validator scalar rule.

``scalar_update`` and ``scalar_deliberation`` are the reference: one
support dict per listener per iteration, exactly the rule the matrix form
in :func:`repro.consensus.rounds.deliberate` replaces.  On random rosters
(UNLs with outsiders and validators missing from their own list, lossy
and partitioned delivery, stale speakers, byzantine redraws, empty pools)
both must give the same positions, the same heard counts and leave the
generator in the same state.
"""

from itertools import compress

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.faults import active, byzantine, lagging
from repro.consensus.network import NetworkModel
from repro.consensus.rounds import BYZANTINE_RECEIVE, deliberate, draw_positions
from repro.consensus.unl import UNL
from repro.consensus.validator import Validator


def scalar_update(validator, position, peer_positions, threshold):
    """Keep the transactions proposed by at least ``threshold`` of the
    delivered UNL peers plus the validator itself."""
    voters = {
        name: pos for name, pos in peer_positions.items() if name in validator.unl
    }
    voters[validator.name] = position
    needed = threshold * len(voters)
    support = {}
    for pos in voters.values():
        for tx in pos:
            support[tx] = support.get(tx, 0) + 1
    return {tx for tx, count in support.items() if count >= needed - 1e-9}


def scalar_deliberation(main, is_byzantine, pool, initial, delivered, stale,
                        thresholds, rng):
    """The per-listener dict form: positions by name, heard counts by name."""
    positions = {
        v.name: set(compress(pool, row)) for v, row in zip(main, initial.tolist())
    }
    lagged = {}
    for threshold in thresholds:
        next_positions = {}
        for j, listener in enumerate(main):
            heard = {
                speaker.name: (
                    lagged[speaker.name]
                    if speaker.name in stale and speaker.name in lagged
                    else positions[speaker.name]
                )
                for i, speaker in enumerate(main)
                if delivered[i, j]
            }
            next_positions[listener.name] = scalar_update(
                listener, positions[listener.name], heard, threshold
            )
        lagged = positions
        positions = next_positions
        for validator, byz in zip(main, is_byzantine):
            if byz:
                mask = rng.random(len(pool)) < BYZANTINE_RECEIVE
                positions[validator.name] = set(compress(pool, mask))
    heard_of = {}
    for j, listener in enumerate(main):
        heard = sum(
            1
            for i, speaker in enumerate(main)
            if delivered[i, j] and speaker.name in listener.unl
        )
        if listener.name in listener.unl:
            heard += 1
        heard_of[listener.name] = heard
    return positions, heard_of


def assert_matches_scalar(main, is_byzantine, pool, delivered, stale,
                          thresholds, seed):
    initial = draw_positions(
        [
            BYZANTINE_RECEIVE if byz else v.receive_probability
            for v, byz in zip(main, is_byzantine)
        ],
        len(pool),
        np.random.default_rng(seed),
    )
    matrix_rng = np.random.default_rng(seed + 1)
    scalar_rng = np.random.default_rng(seed + 1)
    positions, heard = deliberate(
        main, is_byzantine, initial, delivered, stale, thresholds, matrix_rng
    )
    want_positions, want_heard = scalar_deliberation(
        main, is_byzantine, pool, initial, delivered, stale, thresholds,
        scalar_rng,
    )
    assert positions.shape == (len(main), len(pool))
    for k, validator in enumerate(main):
        assert set(compress(pool, positions[k].tolist())) == want_positions[
            validator.name
        ]
        assert heard[k] == want_heard[validator.name]
    assert matrix_rng.random() == scalar_rng.random()


def random_case(seed):
    """A roster of 1-10 validators with random UNLs, behaviours, delivery
    (loss, partitions, blocked speakers), stale speakers and pool size."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 11))
    names = [f"v{i}" for i in range(n)]
    outsiders = ["ghost0", "ghost1"]
    main, is_byzantine = [], []
    for name in names:
        members = [m for m in names + outsiders if rng.random() < 0.6]
        if not members:
            members = [outsiders[0]]
        kind = rng.integers(3)
        profile = (active(), lagging(), byzantine())[kind]
        main.append(Validator(name, UNL.of(members), profile))
        is_byzantine.append(bool(kind == 2) or bool(rng.random() < 0.1))
    partitions = [
        {m for m in names if rng.random() < 0.4}
        for _ in range(int(rng.integers(0, 3)))
    ]
    network = NetworkModel(base_loss=float(rng.random() * 0.5),
                           partitions=partitions)
    blocked = frozenset(m for m in names if rng.random() < 0.15)
    delivered = network.delivery_array(
        main, rng, extra_loss=float(rng.random() * 0.2), blocked=blocked
    )
    stale = frozenset(m for m in names + outsiders if rng.random() < 0.3)
    size = int(rng.integers(0, 9))
    pool = sorted({bytes([i, seed % 256]) * 16 for i in range(size)})
    thresholds = (0.50, 0.55, 0.60, 0.65)
    if rng.random() < 0.3:
        thresholds = tuple(float(t) for t in rng.choice(
            [0.0, 0.3, 0.5, 0.8, 1.0], size=int(rng.integers(1, 5))))
    return main, is_byzantine, pool, delivered, stale, thresholds


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_matrix_deliberation_equals_scalar_rule(seed):
    assert_matches_scalar(*random_case(seed), seed=seed)


def roster(unls, profile=active):
    return [Validator(name, UNL.of(unl), profile()) for name, unl in unls]


def everyone_hears(n):
    delivered = np.ones((n, n), dtype=bool)
    np.fill_diagonal(delivered, False)
    return delivered


class TestNamedCases:
    POOL = sorted(bytes([i]) * 32 for i in range(6))

    def test_validator_absent_from_its_own_unl(self):
        main = roster([("a", ["b", "c"]), ("b", ["a", "b", "c"]),
                       ("c", ["c"])])
        assert_matches_scalar(main, [False] * 3, self.POOL, everyone_hears(3),
                              frozenset(), (0.5, 0.55, 0.6, 0.65), seed=3)
        _, heard = deliberate(
            main, [False] * 3, np.ones((3, 6), dtype=np.int64),
            everyone_hears(3), frozenset(), (0.5,), np.random.default_rng(0),
        )
        assert heard.tolist() == [2, 3, 1]

    def test_stale_speakers_after_first_iteration(self):
        main = roster([(n, ["a", "b", "c", "d"]) for n in "abcd"])
        for seed in range(20):
            assert_matches_scalar(main, [False, True, False, False], self.POOL,
                                  everyone_hears(4), frozenset({"b", "c"}),
                                  (0.5, 0.55, 0.6, 0.65), seed=seed)

    def test_partitions(self):
        main = roster([(f"v{i}", [f"v{j}" for j in range(6)]) for i in range(6)])
        network = NetworkModel(base_loss=0.0,
                               partitions=[{"v0", "v1", "v2"}, {"v2", "v3"}])
        delivered = network.delivery_array(main, np.random.default_rng(0))
        assert_matches_scalar(main, [False] * 6, self.POOL, delivered,
                              frozenset(), (0.5, 0.55, 0.6, 0.65), seed=5)

    def test_empty_pool(self):
        main = roster([(n, ["a", "b", "c"]) for n in "abc"])
        assert_matches_scalar(main, [False, False, True], [],
                              everyone_hears(3), frozenset({"a"}),
                              (0.5, 0.55), seed=1)
