"""Sealed state snapshots: the fast-forward half of recovery.

A snapshot is the canonical JSON of one :class:`~repro.online.state.
OnlineState`, wrapped with its own digest and sealed by the durability
layer — atomic write plus a ``.sha256`` sidecar manifest, exactly like
every other artifact in the repo.  Recovery trusts a snapshot only when
*both* checks pass: the sidecar proves the bytes on disk are the bytes
written, and the embedded digest proves the state payload is the state
that was sealed.  Anything less — a stale temp from a crash mid-seal, a
body without its sidecar, a bit flip — is discarded, and recovery falls
back to the next-older snapshot, replaying a longer WAL tail instead.
"""

from __future__ import annotations

import glob
import json
import os
import re
import sys
from typing import List, Optional, Tuple

from repro.durability.atomic import atomic_write, verify_manifest
from repro.errors import IngestError, IntegrityError
from repro.obs.metrics import METRICS
from repro.online.state import OnlineState, state_digest

#: Manifest format tag for sealed snapshots.
SNAPSHOT_FORMAT = "repro-online-snapshot/1"

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{10})\.json$")


def snapshot_name(applied_seq: int) -> str:
    # applied_seq is -1 before any event; the genesis snapshot maps to 0000000000.
    return f"snapshot-{applied_seq + 1:010d}.json"


class SnapshotStore:
    """A directory of sealed snapshots with verified-newest-first reads."""

    def __init__(self, directory: str, keep: int = 3):
        if keep < 1:
            raise IngestError("snapshot store must keep at least one")
        self.directory = directory
        self.keep = keep
        os.makedirs(directory, exist_ok=True)

    def paths(self) -> List[str]:
        """Snapshot files, oldest first."""
        found = []
        for path in glob.glob(os.path.join(self.directory, "snapshot-*.json")):
            if _SNAPSHOT_RE.match(os.path.basename(path)):
                found.append(path)
        return sorted(found)

    def oldest_applied_seq(self) -> Optional[int]:
        """Frontier of the *oldest* retained snapshot (by filename).

        WAL pruning keys on this, not on the newest snapshot: the log
        must stay deep enough that recovery can fall back past a corrupt
        newest snapshot to any older retained one and still replay the
        gap.
        """
        paths = self.paths()
        if not paths:
            return None
        match = _SNAPSHOT_RE.match(os.path.basename(paths[0]))
        return int(match.group(1)) - 1

    def sweep(self) -> int:
        """Remove stale temp files a crash mid-seal left behind."""
        swept = 0
        for stale in glob.glob(os.path.join(self.directory, "*.tmp.*")):
            try:
                os.remove(stale)
                swept += 1
            except OSError:
                pass
        if swept:
            METRICS.count("online.snapshot.temps_swept", swept)
        return swept

    # Sealing -----------------------------------------------------------------

    def seal(self, state: OnlineState) -> str:
        """Write one verified snapshot of ``state``; prunes old ones.

        The state is encoded once: its canonical JSON is both what the
        embedded digest hashes and the file's ``"state"`` value, which
        sorts last among the wrapper's keys.
        """
        body = state.canonical_json()
        head = json.dumps(
            {
                "applied_seq": state.applied_seq,
                "digest": state_digest(body),
                "format": SNAPSHOT_FORMAT,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        path = os.path.join(self.directory, snapshot_name(state.applied_seq))
        with atomic_write(path, manifest=True, fmt=SNAPSHOT_FORMAT) as handle:
            handle.write(f'{head[:-1]},"state":{body}}}\n')
        METRICS.count("online.snapshot.sealed")
        self._prune()
        return path

    def _prune(self) -> None:
        paths = self.paths()
        for stale in paths[: max(0, len(paths) - self.keep)]:
            for target in (stale, f"{stale}.sha256"):
                try:
                    os.remove(target)
                except OSError:
                    pass

    # Recovery ----------------------------------------------------------------

    def load(self, path: str) -> Tuple[OnlineState, int]:
        """One snapshot, fully verified; raises on any defect."""
        verify_manifest(path, required=True)
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict) or payload.get("format") != (
            SNAPSHOT_FORMAT
        ):
            raise IngestError(f"{path}: not a {SNAPSHOT_FORMAT} snapshot")
        # Popped, so the parsed state is freed before the digest re-encodes it.
        state = OnlineState.from_payload(payload.pop("state"))
        if state.digest() != payload.get("digest"):
            raise IntegrityError(f"{path}: state digest mismatch")
        if state.applied_seq != int(payload.get("applied_seq", -2)):
            raise IntegrityError(f"{path}: applied_seq disagrees with state")
        return state, state.applied_seq

    def latest_verified(
        self, not_after: Optional[int] = None
    ) -> Optional[Tuple[OnlineState, int]]:
        """Newest snapshot that verifies, walking backwards past defects.

        ``not_after`` bounds the acceptable frontier: recovery may need a
        snapshot old enough for the WAL tail to cover the gap, so callers
        can reject snapshots newer than what the log can reach.  Corrupt
        or unverifiable snapshots are discarded with a counter
        (``online.snapshot.discarded``) and the walk continues.
        """
        for path in reversed(self.paths()):
            try:
                state, applied_seq = self.load(path)
            except (IntegrityError, IngestError, OSError, ValueError) as exc:
                METRICS.count("online.snapshot.discarded")
                print(
                    f"snapshots: discarding {os.path.basename(path)}: {exc}",
                    file=sys.stderr,
                )
                for target in (path, f"{path}.sha256"):
                    try:
                        os.remove(target)
                    except OSError:
                        pass
                continue
            if not_after is not None and applied_seq > not_after:
                continue
            return state, applied_seq
        return None
