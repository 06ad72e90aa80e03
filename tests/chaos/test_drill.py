"""End-to-end chaos drills: degradation, recovery, and determinism."""

import pytest

from repro.chaos import ChaosInjector, FaultPlan, run_drill
from repro.chaos.drill import DRILL_RIPPLE_LABS, drill_roster
from repro.consensus.engine import ConsensusEngine
from repro.obs.manifest import RUN
from repro.obs.metrics import METRICS

#: Each degradation event: its one name (run event and metrics counter)
#: and the DrillReport field that reports it.
EVENTS = {
    "node.round_retries": "round_retries",
    "node.degraded_closes": "degraded_closes",
    "node.failed_closes": "failed_closes",
    "stream.replayed": "stream_replayed",
    "stream.duplicates_dropped": "duplicates_dropped",
}


class TestPartitionDrill:
    @pytest.fixture(scope="class")
    def report(self):
        return run_drill("partition", seed=3, rounds=120)

    def test_node_degrades_but_survives(self, report):
        assert report.round_retries > 0
        assert report.failed_closes + report.degraded_closes > 0
        assert report.validated_closes > 0  # recovered after the heal
        assert 0.0 < report.availability < 1.0

    def test_health_covers_whole_roster(self, report):
        assert len(report.health) == len(drill_roster())
        for name in DRILL_RIPPLE_LABS:
            row = report.health_of(name)
            assert row.is_ripple_labs
            assert row.total_pages > 0
            assert 0 < row.valid_pages <= row.total_pages

    def test_lagging_validators_sign_few_valid_pages(self, report):
        trusted = report.health_of("R1")
        lagger = report.health_of("rippled.media.mit.edu")
        assert lagger.valid_fraction < trusted.valid_fraction

    def test_stream_survived_the_disconnect(self, report):
        assert report.counters.stream_disconnects >= 1
        assert report.stream_reconnects >= 1
        assert report.stream_replayed > 0


class TestEachEventCountedOnce:
    @pytest.fixture()
    def metrics_on(self):
        was_enabled = METRICS.enabled
        METRICS.reset()
        METRICS.enable()
        RUN.reset()
        yield
        RUN.reset()
        METRICS.reset()
        METRICS.enabled = was_enabled

    @pytest.mark.parametrize("plan", ["partition", "crash", "mixed"])
    def test_metrics_report_and_run_events_agree(self, plan, metrics_on):
        report = run_drill(plan, seed=3, rounds=120)
        assert report.round_retries > 0
        for name, field in EVENTS.items():
            assert (
                METRICS.counters.get(name, 0)
                == getattr(report, field)
                == RUN.events.get(name, 0)
            ), name


class TestQuietPlan:
    @pytest.fixture(scope="class")
    def quiet(self):
        return run_drill(FaultPlan(name="none"), seed=7, rounds=40)

    def test_nothing_degrades(self, quiet):
        # The mixed roster still has lagging validators, so organic
        # retries are fine — but nothing may be *injected* and every
        # close must eventually validate.
        assert quiet.availability == 1.0
        assert quiet.degraded_closes == 0
        assert quiet.failed_closes == 0
        assert quiet.counters.faulted_rounds == 0
        assert quiet.counters.stream_disconnects == 0

    def test_perfect_roster_never_retries(self):
        from repro.node import default_validators

        report = run_drill(
            FaultPlan(name="none"), seed=7, rounds=30,
            validators=default_validators(7),
        )
        assert report.availability == 1.0
        assert report.round_retries == 0

    def test_drill_is_deterministic(self, quiet):
        again = run_drill(FaultPlan(name="none"), seed=7, rounds=40)
        assert again.health == quiet.health
        assert again.counters == quiet.counters
        assert again.payments_applied == quiet.payments_applied


class TestChaosOffBitIdentity:
    def test_empty_plan_changes_nothing_in_consensus(self):
        """An injector with no faults must not perturb a single RNG draw."""
        bare = ConsensusEngine(drill_roster(), seed=11)
        hooked = ConsensusEngine(
            drill_roster(),
            seed=11,
            chaos=ChaosInjector(FaultPlan(name="none"), seed=99),
        )
        report_bare = bare.run(30)
        report_hooked = hooked.run(30)
        assert report_bare.main_chain_hashes == report_hooked.main_chain_hashes
        assert report_bare.rounds_validated == report_hooked.rounds_validated


class TestEveryNamedPlanRuns:
    @pytest.mark.parametrize("name", ["delay", "crash", "byzantine",
                                      "disconnect", "mixed"])
    def test_plan_completes(self, name):
        report = run_drill(name, seed=1, rounds=60)
        assert report.closes_attempted == 60
        assert report.validated_closes > 0  # never a total outage
