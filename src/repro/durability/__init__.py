"""Crash-safe, corruption-tolerant storage primitives.

The paper's pipeline starts from a 500 GB ad-hoc ledger download and three
2-week validation-stream captures; at that scale truncated files, corrupt
lines, and killed runs are the common case.  This package is the data
plane's answer, threaded through ingest and artifact output:

* :func:`atomic_write` — all-or-nothing file replacement (temp file in the
  same directory, flush + fsync + ``os.replace``), optionally sealed with a
  sidecar manifest;
* :func:`write_manifest` / :func:`verify_manifest` — ``<path>.sha256``
  sidecars carrying the content hash, byte size, record count, and format
  tag, verified on read with a typed :class:`~repro.errors.IntegrityError`;
* :class:`IngestStats` / :class:`QuarantineWriter` — the lenient-ingest
  bookkeeping contract (read/quarantined counts and per-reason tallies,
  mirrored into :data:`repro.obs.metrics.METRICS`).

A killed artifact run needs no checkpoint to recover: :func:`atomic_write`
never leaves a torn output, and rerunning the same request reproduces
the same bytes.
"""

from repro.durability.atomic import (
    MANIFEST_SUFFIX,
    atomic_write,
    manifest_path,
    read_manifest,
    verify_manifest,
    write_manifest,
)
from repro.durability.ingest import IngestStats, QuarantineWriter
from repro.errors import IntegrityError

__all__ = [
    "MANIFEST_SUFFIX",
    "IngestStats",
    "IntegrityError",
    "QuarantineWriter",
    "atomic_write",
    "manifest_path",
    "read_manifest",
    "verify_manifest",
    "write_manifest",
]
