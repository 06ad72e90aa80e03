"""Snapshot store: sealing, verification, fallback past defects."""

import itertools
import json
import os

import pytest

from repro.durability.atomic import manifest_path
from repro.errors import IntegrityError
from repro.online.events import payment_event
from repro.online.pipeline import archive_event_source
from repro.online.snapshots import SNAPSHOT_FORMAT, SnapshotStore, snapshot_name
from repro.online.state import OnlineState


def state_after(n):
    state = OnlineState()
    for i in range(n):
        state.note_quarantined(payment_event(i, {"i": i}), "schema:test")
    return state


class TestSealLoad:
    def test_roundtrip(self, tmp_path):
        store = SnapshotStore(str(tmp_path / "snaps"))
        sealed = store.seal(state_after(5))
        assert os.path.basename(sealed) == snapshot_name(4)
        assert os.path.exists(manifest_path(sealed))
        loaded, applied_seq = store.load(sealed)
        assert applied_seq == 4
        assert loaded.digest() == state_after(5).digest()

    def test_sealed_bytes_encode_the_state_once(self, tmp_path, archive_path):
        state = OnlineState()
        for event in itertools.islice(archive_event_source(archive_path), 300):
            state.absorb(event)
        store = SnapshotStore(str(tmp_path / "snaps"))
        sealed = store.seal(state)
        wrapper = {
            "format": SNAPSHOT_FORMAT,
            "applied_seq": state.applied_seq,
            "digest": state.digest(),
            "state": state.payload(),
        }
        with open(sealed, "r", encoding="utf-8") as handle:
            assert handle.read() == (
                json.dumps(wrapper, sort_keys=True, separators=(",", ":"))
                + "\n"
            )
        loaded, applied_seq = store.load(sealed)
        assert applied_seq == 299
        assert loaded.digest() == state.digest()

    def test_keep_bound_prunes_oldest(self, tmp_path):
        store = SnapshotStore(str(tmp_path / "snaps"), keep=2)
        for n in (1, 2, 3, 4):
            store.seal(state_after(n))
        names = [os.path.basename(p) for p in store.paths()]
        assert names == [snapshot_name(2), snapshot_name(3)]
        assert store.oldest_applied_seq() == 2

    def test_sweep_removes_stale_temps(self, tmp_path):
        store = SnapshotStore(str(tmp_path / "snaps"))
        stale = tmp_path / "snaps" / "snapshot-0000000005.json.tmp.123"
        stale.write_text("half-written")
        assert store.sweep() == 1
        assert not stale.exists()


class TestFallback:
    def _store_with(self, tmp_path, counts):
        store = SnapshotStore(str(tmp_path / "snaps"), keep=5)
        for n in counts:
            store.seal(state_after(n))
        return store

    def test_latest_verified_picks_newest(self, tmp_path):
        store = self._store_with(tmp_path, (2, 4, 6))
        _state, applied_seq = store.latest_verified()
        assert applied_seq == 5

    def test_missing_sidecar_falls_back(self, tmp_path):
        store = self._store_with(tmp_path, (2, 4, 6))
        newest = store.paths()[-1]
        os.remove(manifest_path(newest))
        _state, applied_seq = store.latest_verified()
        assert applied_seq == 3
        assert not os.path.exists(newest)  # the defect was discarded

    def test_corrupt_body_falls_back(self, tmp_path):
        store = self._store_with(tmp_path, (2, 4, 6))
        with open(store.paths()[-1], "r+b") as handle:
            handle.seek(30)
            handle.write(b"ZZZZ")
        _state, applied_seq = store.latest_verified()
        assert applied_seq == 3

    def test_tampered_state_fails_embedded_digest(self, tmp_path):
        # A snapshot whose bytes verify against a *re-written* sidecar
        # but whose state disagrees with its own embedded digest.
        store = self._store_with(tmp_path, (3,))
        path = store.paths()[0]
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["state"]["events"] = 999
        from repro.durability.atomic import atomic_write

        with atomic_write(path, manifest=True,
                          fmt="repro-online-snapshot/1") as handle:
            handle.write(json.dumps(payload) + "\n")
        with pytest.raises(IntegrityError):
            store.load(path)
        assert store.latest_verified() is None

    def test_not_after_skips_too_new(self, tmp_path):
        store = self._store_with(tmp_path, (2, 4, 6))
        _state, applied_seq = store.latest_verified(not_after=4)
        assert applied_seq == 3

    def test_empty_store(self, tmp_path):
        store = SnapshotStore(str(tmp_path / "snaps"))
        assert store.latest_verified() is None
        assert store.oldest_applied_seq() is None
