"""Event-sourced live ingest: WAL, checkpointed state, supervised recovery.

The batch pipeline computes every artifact from a frozen archive; this
package is the *online* half of ROADMAP item 1.  A long-running ingest
process tails an event source (a replayed archive) and maintains the
paper's results incrementally:

* an **online de-anonymizer**: one ⟨A, T, C, D⟩ fingerprint index per
  Fig. 3 feature list — the batch fold of :mod:`repro.core.fingerprint`,
  fed the payments buffered since the last read;
* **live Fig. 3 / Table II counters**: information gain per feature list
  (current at every read) and delivery rates per payment category
  (updated per event);
* a **per-view fork watch** over the validation stream, flagging
  sequences at which conflicting pages view-validated
  (:mod:`repro.consensus.forks` semantics, evaluated incrementally).

The robustness substrate is the point: every accepted event is fsynced
into a segmented write-ahead log before it is applied, state is sealed
into verified snapshots on a cadence, and recovery is *newest verified
snapshot + WAL tail replay* — a ``kill -9`` at any instant loses no
accepted events and resumes to a state digest bit-identical to an
uninterrupted run (the live contract ``tools/contracts.py`` enforces in CI).
"""

from repro.online.events import (
    EVENT_KINDS,
    KIND_PAYMENT,
    KIND_VALIDATION,
    IngestEvent,
    PoisonEventError,
    decode_event,
    encode_event,
    payment_event,
    validation_event,
)
from repro.online.pipeline import (
    IngestConfig,
    IngestPipeline,
    archive_event_source,
    read_status,
)
from repro.online.snapshots import SnapshotStore
from repro.online.state import ForkWatch, OnlineState
from repro.online.supervisor import IngestSupervisor, SupervisorError
from repro.online.wal import WriteAheadLog

__all__ = [
    "EVENT_KINDS",
    "KIND_PAYMENT",
    "KIND_VALIDATION",
    "ForkWatch",
    "IngestConfig",
    "IngestEvent",
    "IngestPipeline",
    "IngestSupervisor",
    "OnlineState",
    "PoisonEventError",
    "SnapshotStore",
    "SupervisorError",
    "WriteAheadLog",
    "archive_event_source",
    "decode_event",
    "encode_event",
    "payment_event",
    "read_status",
    "validation_event",
]
