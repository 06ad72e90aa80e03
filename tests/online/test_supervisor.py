"""The ingest supervisor: bounded restarts, backoff shape, stall watchdog."""

import dataclasses
import itertools
import os
import shutil
import time

import pytest

from repro.cli import main
from repro.durability.atomic import manifest_path
from repro.errors import IntegrityError, MissingInputError
from repro.node import RetryPolicy
from repro.obs.metrics import METRICS
from repro.online import IngestConfig, IngestPipeline, archive_event_source
from repro.online.state import OnlineState
from repro.online.supervisor import IngestSupervisor, SupervisorError


def config(tmp_path, **overrides):
    defaults = dict(
        state_dir=str(tmp_path / "state"),
        snapshot_every=100,
        wal_segment_events=32,
        fsync=False,
    )
    defaults.update(overrides)
    return IngestConfig(**defaults)


FAST_RETRY = RetryPolicy(max_retries=5, base_backoff=0.001, multiplier=2.0,
                         max_backoff=0.01, jitter=0.0)


class FlakySource:
    """An archive source that dies after N events, `crashes` times."""

    def __init__(self, archive_path, crashes, die_after=75):
        self.archive_path = archive_path
        self.crashes = crashes
        self.die_after = die_after

    def __call__(self, start_seq):
        def generate():
            produced = 0
            for event in archive_event_source(self.archive_path, start_seq):
                if self.crashes > 0 and produced >= self.die_after:
                    self.crashes -= 1
                    raise ConnectionError("stream dropped")
                produced += 1
                yield event

        return generate()


class TestRestarts:
    def test_crashes_are_survived_and_counted(self, archive_path, tmp_path):
        baseline = IngestPipeline(
            config(tmp_path, state_dir=str(tmp_path / "base"))
        )
        baseline.recover()
        expected = baseline.run(archive_event_source(archive_path, 0))

        slept = []
        supervisor = IngestSupervisor(
            config(tmp_path),
            FlakySource(archive_path, crashes=3),
            retry=FAST_RETRY,
            poll_interval=0.01,
            sleep=slept.append,
        )
        digest, pipeline = supervisor.run()
        assert digest == expected
        assert supervisor.restarts == 3
        assert pipeline.restarts == 3  # surfaced in status.json
        assert METRICS.counters.get("online.supervisor.restarts") == 3
        # Exponential backoff shape: each delay doubles (no jitter).
        assert slept == [
            pytest.approx(0.001), pytest.approx(0.002), pytest.approx(0.004)
        ]

    def test_no_event_is_lost_or_doubled_across_restarts(
        self, archive_path, tmp_path
    ):
        supervisor = IngestSupervisor(
            config(tmp_path),
            FlakySource(archive_path, crashes=2, die_after=120),
            retry=FAST_RETRY,
            poll_interval=0.01,
            sleep=lambda _s: None,
        )
        _digest, pipeline = supervisor.run()
        assert pipeline.state.events == 1000
        assert pipeline.state.applied_seq == 999

    def test_budget_exhaustion_raises(self, archive_path, tmp_path):
        supervisor = IngestSupervisor(
            config(tmp_path),
            FlakySource(archive_path, crashes=99),
            retry=dataclasses.replace(FAST_RETRY, max_retries=2),
            poll_interval=0.01,
            sleep=lambda _s: None,
        )
        with pytest.raises(SupervisorError, match="budget exhausted"):
            supervisor.run()
        assert supervisor.restarts == 3


def flip_one_byte(archive_path, tmp_path):
    """A copy of the archive and its sidecar with one byte flipped."""
    copy = str(tmp_path / "flipped.jsonl.gz")
    shutil.copy(archive_path, copy)
    shutil.copy(manifest_path(archive_path), manifest_path(copy))
    with open(copy, "r+b") as handle:
        handle.seek(os.path.getsize(copy) // 2)
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte[0] ^ 0x01]))
    return copy


class TestPermanentInputErrors:
    """A corrupt or absent input cannot heal by retrying: it fails on the
    first attempt, with its reason, and spends no restart."""

    @pytest.mark.parametrize("damage,error,reason", [
        ("flipped", IntegrityError, "sha256 mismatch"),
        ("missing", MissingInputError, "archive not found"),
    ])
    def test_fails_on_attempt_one(self, archive_path, tmp_path, damage, error,
                                  reason):
        path = (flip_one_byte(archive_path, tmp_path) if damage == "flipped"
                else str(tmp_path / "absent.jsonl.gz"))
        slept = []
        supervisor = IngestSupervisor(
            config(tmp_path),
            lambda start: archive_event_source(path, start),
            retry=FAST_RETRY,
            poll_interval=0.01,
            sleep=slept.append,
        )
        with pytest.raises(error, match=reason):
            supervisor.run()
        assert supervisor.restarts == 0
        assert slept == []
        assert METRICS.counters.get("online.supervisor.restarts", 0) == 0

    @pytest.mark.parametrize("damage", ["flipped", "missing"])
    def test_cli_exits_once_with_the_reason(self, archive_path, tmp_path,
                                            capsys, damage):
        path = (flip_one_byte(archive_path, tmp_path) if damage == "flipped"
                else str(tmp_path / "absent.jsonl.gz"))
        code = main(["ingest", "--archive", path,
                     "--state-dir", str(tmp_path / "state"), "--no-fsync"])
        stderr = capsys.readouterr().err
        assert code == 1
        assert ("sha256 mismatch" if damage == "flipped"
                else "archive not found") in stderr
        assert "restart" not in stderr
        assert METRICS.counters.get("online.supervisor.restarts", 0) == 0


class TestWatchdog:
    def test_stall_raises_instead_of_restarting(
        self, archive_path, tmp_path, monkeypatch
    ):
        # Wedge the apply path: the heartbeat stops advancing while an
        # event is in flight, which must become a loud SupervisorError
        # (an in-process restart would race the wedged thread on the WAL).
        original = OnlineState.absorb

        def wedged(self, event):
            if event.seq == 10:
                time.sleep(60.0)
            return original(self, event)

        monkeypatch.setattr(OnlineState, "absorb", wedged)
        supervisor = IngestSupervisor(
            config(tmp_path),
            lambda start: archive_event_source(archive_path, start),
            heartbeat_timeout=0.3,
            poll_interval=0.02,
            retry=FAST_RETRY,
        )
        with pytest.raises(SupervisorError, match="stall"):
            supervisor.run()
        assert METRICS.counters.get("online.supervisor.stalls") == 1

    def test_idle_wait_is_not_a_stall(self, archive_path, tmp_path):
        # A source that is merely slow keeps the pipeline idle between
        # events; the watchdog must not fire.
        def slow_source(start_seq):
            for event in itertools.islice(
                archive_event_source(archive_path, start_seq), 5
            ):
                time.sleep(0.15)
                yield event

        supervisor = IngestSupervisor(
            config(tmp_path),
            slow_source,
            heartbeat_timeout=0.3,
            poll_interval=0.02,
            retry=FAST_RETRY,
        )
        _digest, pipeline = supervisor.run()
        assert pipeline.state.events == 5
