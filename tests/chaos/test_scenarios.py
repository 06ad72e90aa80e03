"""The named adversarial scenario packs and the fork-threshold sweep.

``amores-cachin-delay`` must reproduce a recorded safety violation —
conflicting pages view-validated at one sequence — while ``sissle-fixed``
replays the identical fault schedule over a fully-overlapping UNL and
pays in liveness instead.  The ``fork_threshold`` sweep is pinned by a
golden sha256 and must be bit-for-bit identical serial vs ``--jobs 2``
— and, since it is the one artifact that shards, under ANY contiguous
partition of its sweep points.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ARTIFACTS
from repro.api.request import ArtifactRequest
from repro.chaos.drill import run_drill
from repro.chaos.scenarios import (
    AC_EQUIVOCATORS,
    SCENARIOS,
    SWEEP_SHARED,
    _amores_setup,
    _merge_fork_threshold,
    _sweep_context,
    drill_scenarios,
    render_fork_threshold,
    run_scenario,
    scenario,
    sweep_points,
    sweep_shard_rows,
)
from repro.consensus.faults import Behaviour, ValidatorProfile
from repro.consensus.rounds import draw_positions
from repro.consensus.unl import UNL
from repro.consensus.validator import Validator
from repro.obs.metrics import METRICS

#: Smoke scale: the attack window spans rounds 15..45 of 60.
ROUNDS = 60

#: sha256 of the rendered ``fork_threshold`` sweep at 60 close attempts
#: with the canonical seed — the determinism contract for this artifact.
GOLDEN_SWEEP_SHA256 = (
    "1d3f2e7976f11df6a4649eb32c57f662550a1877c6448792e1af7e6e2ee47c4f"
)


@pytest.fixture(scope="module")
def amores():
    return run_scenario("amores-cachin-delay", seed=7, rounds=ROUNDS)


@pytest.fixture(scope="module")
def sissle():
    return run_scenario("sissle-fixed", seed=7, rounds=ROUNDS)


class TestRegistry:
    def test_the_three_packs_exist(self):
        assert set(SCENARIOS) == {
            "amores-cachin-delay",
            "sissle-fixed",
            "unl-overlap-sweep",
        }
        assert drill_scenarios() == ["amores-cachin-delay", "sissle-fixed"]
        for pack in SCENARIOS.values():
            assert pack.description and pack.source and pack.expected

    def test_unknown_scenario_lists_known_names(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            scenario("meteor")

    def test_sweep_pack_is_not_a_drill(self):
        with pytest.raises(KeyError, match="sweep pack"):
            run_scenario("unl-overlap-sweep")


class TestAmoresCachinDelay:
    def test_reproduces_a_recorded_safety_violation(self, amores):
        """The acceptance criterion: conflicting pages view-validated."""
        assert amores.safety_violations > 0
        assert amores.scenario == "amores-cachin-delay"
        for event in amores.fork_events:
            assert len(event.pages) >= 2
            assert len(event.pages) == len(set(event.pages))
            # every conflicting page reached a quorum in at least one view
            assert all(event.views)

    def test_violation_count_is_seed_deterministic(self, amores):
        again = run_scenario("amores-cachin-delay", seed=7, rounds=ROUNDS)
        assert [(e.sequence, e.pages) for e in again.fork_events] == [
            (e.sequence, e.pages) for e in amores.fork_events
        ]

    def test_equivocators_sign_both_sides_of_the_fork(self, amores):
        """The attack mechanism: each conflicting quorum leans on the
        equivocators' double signatures."""
        setup = _amores_setup(ROUNDS)
        validations = []
        run_drill(
            setup.plan,
            seed=7,
            rounds=ROUNDS,
            validators=setup.roster,
            network=setup.network,
            observers=(validations.append,),
        )
        event = amores.fork_events[0]
        signers = {
            page: {
                v.validator
                for v in validations
                if v.sequence == event.sequence and v.page_hash == page
            }
            for page in event.pages
        }
        for page in event.pages:
            assert signers[page] & set(AC_EQUIVOCATORS), (
                f"no equivocator signed page {page.hex()[:12]} "
                f"at sequence {event.sequence}"
            )

    def test_violations_are_mirrored_into_metrics(self):
        METRICS.reset()
        METRICS.enable()
        try:
            report = run_scenario("amores-cachin-delay", seed=7, rounds=ROUNDS)
            counters = METRICS.counters
            assert (
                counters["chaos.safety_violations"]
                == report.safety_violations
                > 0
            )
            assert (
                counters["chaos.liveness_violations"]
                == report.liveness_violations
            )
        finally:
            METRICS.disable()
            METRICS.reset()


class TestSissleFixed:
    def test_identical_schedule_full_overlap_never_forks(self, sissle):
        assert sissle.fork_events == []
        assert sissle.safety_violations == 0

    def test_liveness_pays_instead(self, sissle):
        """The heard gate needs signatures from across the partition, so
        the window costs closes, not agreement."""
        assert sissle.liveness_violations > 0
        assert sissle.failed_closes + sissle.degraded_closes > 0
        assert sissle.validated_closes > 0  # recovers outside the window

    def test_plan_schedules_match_the_attack(self):
        """Same windows, same equivocators, same stale proposers — only
        the UNL geometry differs between the two packs."""
        attack = SCENARIOS["amores-cachin-delay"].build(ROUNDS)
        fixed = SCENARIOS["sissle-fixed"].build(ROUNDS)
        strip = ("name",)
        attack_dict = {
            k: v for k, v in attack.plan.to_dict().items() if k not in strip
        }
        fixed_dict = {
            k: v for k, v in fixed.plan.to_dict().items() if k not in strip
        }
        assert attack_dict == fixed_dict
        # ...and in the fixed variant every validator shares one UNL
        unls = {v.unl.members for v in fixed.roster}
        assert len(unls) == 1
        assert len({v.unl.members for v in attack.roster}) == 3


class TestAdversarialProfile:
    def test_receive_probability_override_reaches_initial_position(self):
        unl = UNL.of(("v0",))
        rng = np.random.default_rng(0)
        everything = Validator(
            "v0",
            unl,
            ValidatorProfile(Behaviour.ACTIVE, receive_probability=1.0),
        )
        nothing = Validator(
            "v0",
            unl,
            ValidatorProfile(Behaviour.ACTIVE, receive_probability=0.0),
        )
        drawn = draw_positions(
            [everything.receive_probability, nothing.receive_probability], 32, rng
        )
        assert drawn[0].all()
        assert not drawn[1].any()


class TestForkThreshold:
    @pytest.fixture(scope="class")
    def serial(self):
        entry = ARTIFACTS["fork_threshold"]
        request = ArtifactRequest(
            name="fork_threshold", options={"rounds": ROUNDS}
        )
        result = entry.compute_payload(request)
        return result, entry.render_text(result, request)

    def test_sweep_points_cover_the_grid(self):
        points = sweep_points(ROUNDS)
        assert [p["shared"] for p in points] == list(SWEEP_SHARED)
        assert [p["index"] for p in points] == list(range(len(SWEEP_SHARED)))

    def test_threshold_sits_between_the_camps(self, serial):
        """Forks at low overlap, heard-gate halts above — the empirical
        threshold the sweep exists to locate."""
        result, _ = serial
        payload = result.data
        assert payload["fork_threshold"] == pytest.approx(2 / 10)
        assert payload["min_safe_overlap"] == pytest.approx(3 / 11)
        rows = payload["rows"]
        assert [row["shared"] for row in rows] == list(SWEEP_SHARED)
        # once past the threshold the minority camp halts instead
        for row in rows:
            if row["overlap"] > payload["fork_threshold"]:
                assert row["forks"] == 0

    def test_rendered_sweep_matches_the_golden_sha256(self, serial):
        _, text = serial
        # the golden is ``sha256sum`` of CLI output, whose final print
        # appends one newline — hash the same bytes a user would
        digest = hashlib.sha256((text + "\n").encode("utf-8")).hexdigest()
        assert digest == GOLDEN_SWEEP_SHA256

    def test_jobs2_is_bit_identical_to_serial(self, serial):
        _, serial_text = serial
        entry = ARTIFACTS["fork_threshold"]
        request = ArtifactRequest(
            name="fork_threshold", options={"rounds": ROUNDS}, jobs=2
        )
        result = entry.compute_payload(request)
        assert entry.render_text(result, request) == serial_text


#: Close attempts for the partition property: small enough that a whole
#: sweep costs a fraction of a second, large enough that forked and
#: fork-free points both appear.
PARTITION_ROUNDS = 12


@pytest.fixture(scope="module")
def serial_sweep():
    request = ArtifactRequest(
        name="fork_threshold", options={"rounds": PARTITION_ROUNDS}
    )
    entry = ARTIFACTS["fork_threshold"]
    return _sweep_context(request), entry.render_text(
        entry.compute_payload(request), request
    )


@given(
    cuts=st.lists(st.integers(0, len(SWEEP_SHARED)), max_size=4),
    data=st.data(),
)
@settings(max_examples=6, deadline=None)
def test_any_partition_reproduces_fork_threshold(serial_sweep, cuts, data):
    """Arbitrary cut points — uneven, empty parts allowed — and any shard
    order must merge to the serial bytes, not just the engine's balanced
    plan."""
    context, serial_text = serial_sweep
    points = context["points"]
    bounds = [0, *sorted(cuts), len(points)]
    shards = [
        {"points": points[start:stop], "seed": context["seed"]}
        for start, stop in zip(bounds, bounds[1:])
    ]
    order = data.draw(st.permutations(range(len(shards))))
    partials = [sweep_shard_rows(shards[index]) for index in order]
    merged = _merge_fork_threshold(partials, context)
    assert render_fork_threshold(merged.data) == serial_text
