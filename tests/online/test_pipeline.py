"""The ingest pipeline: crash equivalence, quarantine, recovery paths.

The central invariant, asserted many ways: a run that is killed at an
arbitrary point and resumed from the same state directory produces a
final state digest *identical* to a never-interrupted run over the same
events.
"""

import glob
import gzip
import itertools
import json
import os
import shutil

import pytest

from repro.durability.atomic import manifest_path
from repro.errors import IngestError, IntegrityError
from repro.obs.metrics import METRICS
from repro.online import (
    IngestConfig,
    IngestPipeline,
    archive_event_source,
    payment_event,
    read_status,
)
from repro.online.wal import segment_name


def config(tmp_path, **overrides):
    defaults = dict(
        state_dir=str(tmp_path / "state"),
        snapshot_every=100,
        wal_segment_events=32,
        status_every=50,
        fsync=False,
    )
    defaults.update(overrides)
    return IngestConfig(**defaults)


def full_run_digest(archive_path, tmp_path, name="baseline"):
    cfg = config(tmp_path, state_dir=str(tmp_path / name))
    pipeline = IngestPipeline(cfg)
    pipeline.recover()
    return pipeline.run(archive_event_source(archive_path, 0)), pipeline


def run_until(cfg, archive_path, n):
    """Ingest n events then abandon the process state (simulated crash)."""
    pipeline = IngestPipeline(cfg)
    pipeline.recover()
    for event in itertools.islice(
        archive_event_source(archive_path, pipeline.state.applied_seq + 1), n
    ):
        pipeline.wal.append(event)
        pipeline._apply(event)
        pipeline._since_snapshot += 1
        if pipeline._since_snapshot >= cfg.snapshot_every:
            pipeline.seal_snapshot()
    pipeline.wal.close()
    return pipeline


def resume_and_finish(cfg, archive_path):
    pipeline = IngestPipeline(cfg)
    pipeline.recover()
    return pipeline.run(
        archive_event_source(archive_path, pipeline.state.applied_seq + 1)
    ), pipeline


class TestCrashEquivalence:
    def test_uninterrupted_run_is_reproducible(self, archive_path, tmp_path):
        digest_a, _ = full_run_digest(archive_path, tmp_path, "a")
        digest_b, _ = full_run_digest(archive_path, tmp_path, "b")
        assert digest_a == digest_b

    @pytest.mark.parametrize("kill_at", [1, 99, 100, 101, 350, 999])
    def test_kill_and_resume_matches(self, archive_path, tmp_path, kill_at):
        baseline, _ = full_run_digest(archive_path, tmp_path)
        cfg = config(tmp_path)
        run_until(cfg, archive_path, kill_at)
        digest, pipeline = resume_and_finish(cfg, archive_path)
        assert digest == baseline
        assert pipeline.state.events == 1000

    def test_double_kill(self, archive_path, tmp_path):
        baseline, _ = full_run_digest(archive_path, tmp_path)
        cfg = config(tmp_path)
        run_until(cfg, archive_path, 230)
        run_until(cfg, archive_path, 400)
        digest, _ = resume_and_finish(cfg, archive_path)
        assert digest == baseline

    def test_torn_wal_tail_resumes_identically(self, archive_path, tmp_path):
        baseline, _ = full_run_digest(archive_path, tmp_path)
        cfg = config(tmp_path)
        run_until(cfg, archive_path, 250)
        # Tear the last WAL line mid-byte, as kill -9 during write would.
        last = sorted(glob.glob(
            os.path.join(cfg.state_dir, "wal", "wal-*.jsonl")))[-1]
        with open(last, "rb+") as handle:
            handle.seek(0, os.SEEK_END)
            handle.truncate(handle.tell() - 7)
        digest, pipeline = resume_and_finish(cfg, archive_path)
        assert digest == baseline
        assert METRICS.counters.get("online.wal.torn_tail_dropped", 0) == 1

    def test_crash_mid_snapshot_seal_resumes(self, archive_path, tmp_path):
        baseline, _ = full_run_digest(archive_path, tmp_path)
        cfg = config(tmp_path)
        run_until(cfg, archive_path, 320)
        snapdir = os.path.join(cfg.state_dir, "snapshots")
        newest = sorted(glob.glob(os.path.join(snapdir, "snapshot-*.json")))[-1]
        # A crash between body write and sidecar write: body, no sidecar.
        os.remove(manifest_path(newest))
        # Plus a stale temp from an even-less-complete attempt.
        with open(os.path.join(snapdir, "snapshot-x.json.tmp.999"), "w") as f:
            f.write("{half")
        digest, _ = resume_and_finish(cfg, archive_path)
        assert digest == baseline
        assert not os.path.exists(newest)  # discarded, not trusted

    def test_corrupt_newest_snapshot_falls_back_further(
        self, archive_path, tmp_path
    ):
        baseline, _ = full_run_digest(archive_path, tmp_path)
        cfg = config(tmp_path)
        run_until(cfg, archive_path, 520)  # snapshots at 99/199/299/399/499
        snapdir = os.path.join(cfg.state_dir, "snapshots")
        newest = sorted(glob.glob(os.path.join(snapdir, "snapshot-*.json")))[-1]
        with open(newest, "r+b") as handle:
            handle.seek(25)
            handle.write(b"????")
        pipeline = IngestPipeline(cfg)
        replayed = pipeline.recover()
        # Fallback snapshot covers through 399; WAL replays 400..519.
        assert pipeline.state.applied_seq == 519
        assert replayed == 120
        digest = pipeline.run(
            archive_event_source(archive_path, 520)
        )
        assert digest == baseline


class TestQuarantine:
    def _poisoned_archive(self, archive_path, tmp_path, lines):
        """Copy the archive, injecting poison at the given data-line slots."""
        out = str(tmp_path / "poisoned.jsonl")
        with gzip.open(archive_path, "rt") as src, open(out, "w") as dst:
            dst.write(src.readline())  # header
            for number, line in enumerate(src):
                if number in lines:
                    dst.write(lines[number] + "\n")
                dst.write(line)
        # Patch the header count: the source reads raw lines, so only
        # honesty about version matters, but keep it coherent anyway.
        return out

    def test_poison_is_quarantined_not_fatal(self, archive_path, tmp_path):
        poisoned = self._poisoned_archive(
            archive_path, tmp_path,
            {5: "this is not json", 10: '{"i": 1, "a": "NaN-ish"}'},
        )
        cfg = config(tmp_path)
        pipeline = IngestPipeline(cfg)
        pipeline.recover()
        pipeline.run(archive_event_source(poisoned, 0))
        assert pipeline.state.events == 1002
        assert pipeline.state.payments == 1000
        assert pipeline.state.quarantined_total == 2
        assert pipeline.state.quarantined.get("parse") == 1
        sidecar = os.path.join(cfg.state_dir, "quarantine.jsonl")
        with open(sidecar) as handle:
            entries = [json.loads(line) for line in handle]
        assert len(entries) == 2
        reasons = sorted(e["reason"] for e in entries)
        assert reasons[0] == "parse"
        assert reasons[1].startswith("schema")

    def test_quarantine_replay_does_not_duplicate(self, archive_path, tmp_path):
        poisoned = self._poisoned_archive(
            archive_path, tmp_path, {50: "garbage line"}
        )
        cfg = config(tmp_path)
        baseline_pipeline = IngestPipeline(
            config(tmp_path, state_dir=str(tmp_path / "base"))
        )
        baseline_pipeline.recover()
        baseline = baseline_pipeline.run(archive_event_source(poisoned, 0))
        run_until(cfg, poisoned, 120)  # crash after the poison event
        digest, pipeline = resume_and_finish(cfg, poisoned)
        assert digest == baseline
        assert pipeline.state.quarantined_total == 1
        sidecar = os.path.join(cfg.state_dir, "quarantine.jsonl")
        with open(sidecar) as handle:
            entries = [json.loads(line) for line in handle]
        assert len(entries) == 1  # replay did not re-divert it


class TestArchiveSidecar:
    """Live ingest verifies an archive's sidecar as batch ingest does."""

    def test_flipped_byte_fails_before_the_first_event(
        self, archive_path, tmp_path
    ):
        copy = str(tmp_path / "ledger.jsonl.gz")
        shutil.copy(archive_path, copy)
        shutil.copy(manifest_path(archive_path), manifest_path(copy))
        with open(copy, "r+b") as handle:
            handle.seek(os.path.getsize(copy) // 2)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0x01]))
        events = archive_event_source(copy)
        with pytest.raises(IntegrityError, match="sha256 mismatch"):
            next(events)

    def test_archive_without_sidecar_still_ingests(
        self, archive_path, tmp_path
    ):
        copy = str(tmp_path / "ledger.jsonl.gz")
        shutil.copy(archive_path, copy)
        assert not os.path.exists(manifest_path(copy))
        assert sum(1 for _ in archive_event_source(copy)) == 1000


class TestRecoveryEdges:
    def test_unrecoverable_gap_raises(self, tmp_path):
        cfg = config(tmp_path)
        pipeline = IngestPipeline(cfg)
        pipeline.recover()
        for event in (payment_event(i, {"parse_error": "x"}) for i in
                      range(40)):
            pipeline.wal.append(event)
            pipeline._apply(event)
        pipeline.wal.close()
        # Remove every snapshot AND the first WAL segment: seq 0..31 are
        # gone but 32.. remain — accepted events would be skipped.
        for stale in glob.glob(
            os.path.join(cfg.state_dir, "snapshots", "snapshot-*")
        ):
            os.remove(stale)
        first = os.path.join(cfg.state_dir, "wal", segment_name(0))
        os.remove(first)
        os.remove(manifest_path(first))
        fresh = IngestPipeline(cfg)
        with pytest.raises(IngestError, match="unrecoverable"):
            fresh.recover()

    def test_snapshot_newer_than_wal_resets_log(self, archive_path, tmp_path):
        cfg = config(tmp_path)
        run_until(cfg, archive_path, 150)
        # The whole WAL is lost (snapshot sealed at 99; events 100..149
        # vanish with it).  Recovery must restart from the snapshot and
        # re-pull the tail from the source, not append at seq 0.
        for stale in glob.glob(os.path.join(cfg.state_dir, "wal", "wal-*")):
            os.remove(stale)
        pipeline = IngestPipeline(cfg)
        pipeline.recover()
        assert pipeline.state.applied_seq == 99
        assert pipeline.wal.next_seq == 100
        digest, _ = (
            pipeline.run(archive_event_source(archive_path, 100)), pipeline
        )
        baseline, _ = full_run_digest(archive_path, tmp_path)
        assert digest == baseline

    def test_status_file_is_written(self, archive_path, tmp_path):
        cfg = config(tmp_path)
        pipeline = IngestPipeline(cfg)
        pipeline.recover()
        digest = pipeline.run(archive_event_source(archive_path, 0))
        status = read_status(cfg.state_dir)
        assert status["phase"] == "drained"
        assert status["applied_seq"] == 999
        assert status["digest"] == digest
        assert status["events"] == 1000
        assert status["last_snapshot_seq"] == 999

    def test_stop_requested_drains_cleanly(self, archive_path, tmp_path):
        cfg = config(tmp_path)
        pipeline = IngestPipeline(cfg)
        pipeline.recover()

        def stopping_source():
            for event in archive_event_source(archive_path, 0):
                if event.seq == 249:
                    pipeline.request_stop()
                yield event  # 249 is already in flight; it must land

        digest = pipeline.run(stopping_source())
        assert pipeline.state.applied_seq == 249
        status = read_status(cfg.state_dir)
        assert status["phase"] == "drained"
        # The drain snapshot makes resume instant (no replay needed).
        resumed = IngestPipeline(cfg)
        assert resumed.recover() == 0
        assert resumed.state.digest() == digest
