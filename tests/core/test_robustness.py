"""Tests for the consensus-robustness study (Fig. 2 pipeline)."""

import pytest

from repro.core.robustness import RobustnessStudy, run_period
from repro.stream.periods import PERIODS, period

#: Small scale so the three periods run in a few seconds.
SCALE = 1.0 / 1200.0


@pytest.fixture(scope="module")
def study():
    return RobustnessStudy.run(PERIODS, scale=SCALE, seed=11)


@pytest.fixture(scope="module")
def dec_report(study):
    return study.reports[0]


class TestPeriodRun:
    def test_all_validators_observed(self, dec_report):
        spec = period("dec2015")
        assert len(dec_report.observations) == 5 + spec.observed_count()

    def test_ripple_labs_dominant(self, dec_report):
        labs = [obs for obs in dec_report.observations if obs.is_ripple_labs]
        others = [obs for obs in dec_report.observations if not obs.is_ripple_labs]
        assert len(labs) == 5
        best_other = max(obs.valid_pages for obs in others)
        assert min(obs.valid_pages for obs in labs) >= best_other * 0.5

    def test_availability_high(self, dec_report):
        assert dec_report.availability > 0.7

    def test_dec2015_three_active_non_ripple(self, dec_report):
        active = [
            name
            for name in dec_report.active_validators()
            if not dec_report.observation(name).is_ripple_labs
        ]
        assert len(active) == 3

    def test_dec2015_21_zero_valid(self, dec_report):
        assert len(dec_report.zero_valid_validators()) == pytest.approx(21, abs=2)

    def test_scaling_helper(self, dec_report):
        assert dec_report.scaled(10) == round(10 / SCALE)


class TestAcrossPeriods:
    def test_jul2016_more_active_than_dec2015(self, study):
        counts = dict(
            (key, active) for key, active, _ in study.active_counts()
        )
        assert counts["jul2016"] > counts["dec2015"]
        assert counts["jul2016"] >= counts["nov2016"]

    def test_active_counts_match_paper_shape(self, study):
        counts = dict((key, active) for key, active, _ in study.active_counts())
        # Paper: 3, 10, 8.
        assert counts["dec2015"] == pytest.approx(3, abs=1)
        assert counts["jul2016"] == pytest.approx(10, abs=2)
        assert counts["nov2016"] == pytest.approx(8, abs=2)

    def test_testnet_zero_valid_in_2016(self, study):
        for report in study.reports[1:]:
            testnet = [
                obs
                for obs in report.observations
                if obs.name.startswith("testnet")
            ]
            assert len(testnet) == 5
            assert all(obs.valid_pages == 0 for obs in testnet)
            assert all(obs.total_pages > 0 for obs in testnet)

    def test_freewallet_collapse(self, study):
        jul = study.reports[1]
        nov = study.reports[2]
        jul_count = jul.observation("freewallet1.net").total_pages
        nov_count = nov.observation("freewallet1.net").total_pages
        assert nov_count < jul_count * 0.35

    def test_persistent_actives(self, study):
        persistent = study.persistent_active()
        assert set(persistent) >= {"R1", "R2", "R3", "R4", "R5"}
        assert 8 <= len(persistent) <= 10  # paper: 9

    def test_validators_seen_total(self, study):
        assert 60 <= study.validators_seen_total() <= 85  # paper: 70

    def test_takeover_exposure_concentrated(self, study):
        exposure = study.takeover_exposure("dec2015")
        # A handful of validators carries the protocol.
        assert exposure["top5"] > 0.5
        assert exposure["top9"] > 0.85
