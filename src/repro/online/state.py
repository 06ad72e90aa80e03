"""Incremental online state: the live de-anonymizer and health counters.

``OnlineState`` is the materialized view the ingest pipeline maintains —
everything the batch artifacts compute over a frozen archive, kept
current per event:

* **fingerprint indexes** — one
  :class:`repro.core.fingerprint.FingerprintIndex` per Fig. 3 feature
  list, the same fold the batch ``Deanonymizer`` runs.  ``absorb``
  validates and counts each event and buffers its delivered payment;
  every read (``figure3_rows``, ``payload`` and so ``digest``,
  ``summary``) first folds the buffer through the kernel as one chunk.
  Keys are value-derived and the fold is a multiset sum, so the
  identified counts equal ``Deanonymizer.figure3`` exactly, however the
  stream was cut into reads;
* **delivery counters** — Table II-shaped submitted/delivered tallies
  per payment category (cross- vs single-currency), watching delivery
  health as a running rate rather than a batch replay;
* a **fork watch** — per-view validation bookkeeping over the
  validation stream (the incremental form of
  :func:`repro.consensus.forks.view_validated_pages`), flagging every
  sequence at which conflicting pages view-validated.

State is a pure fold over the accepted-event sequence: ``absorb`` is
deterministic, serialization is canonical JSON, and :meth:`digest` is
the sha256 of that canonical form — the bit-identity the crash drill
compares across killed and uninterrupted runs.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.consensus.unl import UNL
from repro.core.fingerprint import FingerprintIndex, PaymentChunk
from repro.core.resolution import FIGURE3_FEATURE_LISTS, FeatureList
from repro.errors import IngestError
from repro.obs.metrics import METRICS
from repro.online.events import (
    KIND_PAYMENT,
    KIND_VALIDATION,
    IngestEvent,
    validate_event_body,
)

#: Snapshot/state schema tag; bump when the serialized layout changes.
STATE_VERSION = 2


def state_digest(canonical_json: str) -> str:
    """The digest of one :meth:`OnlineState.canonical_json` encoding."""
    return hashlib.sha256(canonical_json.encode("utf-8")).hexdigest()


class ForkWatch:
    """Incremental per-view fork detection over the validation stream.

    Holds each main-net validator's UNL and the signer sets observed per
    (sequence, page).  After absorbing a validation it re-evaluates only
    the touched sequence: when two or more pages have reached a view
    quorum there, the sequence is recorded as forked — the same
    condition :func:`repro.consensus.forks.find_forks` finds in batch.
    """

    def __init__(
        self,
        views: Optional[Dict[str, Tuple[str, ...]]] = None,
        quorum: float = 0.80,
        signers: Optional[Dict[int, Dict[str, List[str]]]] = None,
        forked: Optional[List[int]] = None,
    ):
        #: validator name -> sorted UNL member names (main net only).
        self.views: Dict[str, Tuple[str, ...]] = views or {}
        self.quorum = quorum
        #: sequence -> page hex -> sorted signer names.
        self.signers: Dict[int, Dict[str, List[str]]] = signers or {}
        self.forked: List[int] = forked or []
        self._unls: Dict[str, UNL] = {}

    @classmethod
    def from_validators(cls, validators, quorum: float = 0.80) -> "ForkWatch":
        views = {
            v.name: tuple(sorted(v.unl.members))
            for v in validators
            if getattr(v, "network_id", 0) == 0
        }
        return cls(views=views, quorum=quorum)

    def _unl_of(self, viewer: str) -> UNL:
        found = self._unls.get(viewer)
        if found is None:
            found = self._unls[viewer] = UNL.of(self.views[viewer])
        return found

    def absorb(self, body: dict) -> bool:
        """Record one validation; True when it newly forked its sequence."""
        if body["network_id"] != 0 or not self.views:
            return False
        sequence = body["sequence"]
        pages = self.signers.setdefault(sequence, {})
        names = pages.setdefault(body["page_hash"], [])
        if body["validator"] not in names:
            names.append(body["validator"])
            names.sort()
        if sequence in self.forked:
            return False
        validated = 0
        for signers in pages.values():
            signer_set = frozenset(signers)
            for viewer in self.views:
                unl = self._unl_of(viewer)
                if len(signer_set & unl.members) >= unl.quorum_size(
                    self.quorum
                ):
                    validated += 1
                    break
            if validated >= 2:
                self.forked.append(sequence)
                self.forked.sort()
                return True
        return False

    def payload(self) -> dict:
        return {
            "views": {name: list(members) for name, members in
                      sorted(self.views.items())},
            "quorum": self.quorum,
            "signers": {
                str(sequence): {
                    page: list(names) for page, names in sorted(pages.items())
                }
                for sequence, pages in sorted(self.signers.items())
            },
            "forked": list(self.forked),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ForkWatch":
        return cls(
            views={
                str(name): tuple(members)
                for name, members in payload["views"].items()
            },
            quorum=float(payload["quorum"]),
            signers={
                int(sequence): {
                    str(page): [str(n) for n in names]
                    for page, names in pages.items()
                }
                for sequence, pages in payload["signers"].items()
            },
            forked=[int(s) for s in payload["forked"]],
        )


class OnlineState:
    """The full materialized view, replayable from snapshot + WAL tail."""

    def __init__(
        self,
        feature_lists: Tuple[FeatureList, ...] = FIGURE3_FEATURE_LISTS,
        fork_watch: Optional[ForkWatch] = None,
    ):
        self.feature_lists = tuple(feature_lists)
        self.indexes = [FingerprintIndex(fl) for fl in self.feature_lists]
        #: (amount, timestamp, currency, destination) of delivered payments
        #: not yet folded into ``indexes``; every read folds them first.
        self._pending: List[Tuple[float, int, str, str]] = []
        self.fork_watch = fork_watch if fork_watch is not None else ForkWatch()
        #: Highest event sequence folded in (absorbed *or* quarantined).
        self.applied_seq = -1
        self.events = 0
        self.payments = 0
        self.validations = 0
        self.quarantined: Dict[str, int] = {}
        #: Table II-shaped delivery tallies: category -> [submitted, delivered].
        self.delivery: Dict[str, List[int]] = {
            "cross_currency": [0, 0],
            "single_currency": [0, 0],
        }

    # Folding -----------------------------------------------------------------

    def absorb(self, event: IngestEvent) -> None:
        """Fold one accepted event in; raises PoisonEventError on garbage.

        The caller (pipeline or replay) must route a poison event to
        :meth:`note_quarantined` instead — either way ``applied_seq``
        advances, so a snapshot cut covers every decided event.
        """
        validate_event_body(event)
        if event.kind == KIND_PAYMENT:
            self._absorb_payment(event.body)
        elif event.kind == KIND_VALIDATION:
            self._absorb_validation(event.body)
        self.events += 1
        self.applied_seq = event.seq

    def _absorb_payment(self, body: dict) -> None:
        self.payments += 1
        category = "cross_currency" if body["cc"] else "single_currency"
        row = self.delivery[category]
        row[0] += 1
        delivered = bool(body["ok"])
        if delivered:
            row[1] += 1
            # The fingerprint indexes mirror the batch dataset, which is
            # delivered-payments-only — failed payments never reached the
            # public ledger the paper's observer reads.
            self._pending.append(
                (float(body["a"]), int(body["t"]), body["c"], body["d"])
            )

    def _fold_pending(self) -> None:
        """Fold the buffered payments into every index as one chunk."""
        if not self._pending:
            return
        amounts, timestamps, currencies, destinations = zip(*self._pending)
        chunk = PaymentChunk(
            amounts=np.array(amounts, dtype=np.float64),
            timestamps=np.array(timestamps, dtype=np.int64),
            currencies=currencies,
            destinations=destinations,
        )
        for index in self.indexes:
            index.absorb(chunk)
        self._pending = []

    def _absorb_validation(self, body: dict) -> None:
        self.validations += 1
        if self.fork_watch.absorb(body):
            METRICS.count("online.forks")

    def note_quarantined(self, event: IngestEvent, reason: str) -> None:
        """Record a poison event without absorbing it (still advances)."""
        self.quarantined[reason] = self.quarantined.get(reason, 0) + 1
        self.events += 1
        self.applied_seq = event.seq

    # Reads -------------------------------------------------------------------

    @property
    def quarantined_total(self) -> int:
        return sum(self.quarantined.values())

    def figure3_rows(self) -> List[Tuple[str, int, float]]:
        """(label, identified, IG%) per feature list, in Fig. 3 order."""
        self._fold_pending()
        delivered = (
            self.delivery["cross_currency"][1]
            + self.delivery["single_currency"][1]
        )
        rows = []
        for index in self.indexes:
            unique = index.unique
            gain = 100.0 * unique / delivered if delivered else 0.0
            rows.append((index.feature_list.label(), unique, gain))
        return rows

    def delivery_rows(self) -> List[Tuple[str, int, int]]:
        """(category, submitted, delivered) in a stable order + total."""
        cross = self.delivery["cross_currency"]
        single = self.delivery["single_currency"]
        return [
            ("Cross-currency", cross[0], cross[1]),
            ("Single-currency", single[0], single[1]),
            ("Total", cross[0] + single[0], cross[1] + single[1]),
        ]

    # Serialization -----------------------------------------------------------

    def payload(self) -> dict:
        self._fold_pending()
        return {
            "state_version": STATE_VERSION,
            "applied_seq": self.applied_seq,
            "events": self.events,
            "payments": self.payments,
            "validations": self.validations,
            "quarantined": dict(sorted(self.quarantined.items())),
            "delivery": {k: list(v) for k, v in sorted(self.delivery.items())},
            "figure3": [index.payload() for index in self.indexes],
            "fork_watch": self.fork_watch.payload(),
        }

    def canonical_json(self) -> str:
        return json.dumps(
            self.payload(), sort_keys=True, separators=(",", ":")
        )

    def digest(self) -> str:
        """sha256 over the canonical serialized state — the drill's bit."""
        return state_digest(self.canonical_json())

    @classmethod
    def from_payload(cls, payload: dict) -> "OnlineState":
        if payload.get("state_version") != STATE_VERSION:
            raise IngestError(
                f"unsupported state version {payload.get('state_version')!r}"
            )
        figure3 = payload["figure3"]
        if len(figure3) != len(FIGURE3_FEATURE_LISTS):
            raise IngestError("snapshot has a different feature-list set")
        state = cls(
            fork_watch=ForkWatch.from_payload(payload["fork_watch"])
        )
        for index, entry, feature_list in zip(
            range(len(figure3)), figure3, FIGURE3_FEATURE_LISTS
        ):
            if entry.get("label") != feature_list.label():
                raise IngestError(
                    f"snapshot feature list {index} is {entry.get('label')!r},"
                    f" expected {feature_list.label()!r}"
                )
            state.indexes[index] = FingerprintIndex.from_payload(
                feature_list, entry
            )
        state.applied_seq = int(payload["applied_seq"])
        state.events = int(payload["events"])
        state.payments = int(payload["payments"])
        state.validations = int(payload["validations"])
        state.quarantined = {
            str(k): int(v) for k, v in payload["quarantined"].items()
        }
        state.delivery = {
            str(k): [int(x) for x in v]
            for k, v in payload["delivery"].items()
        }
        return state

    def summary(self) -> str:
        """Human-readable status block (CLI + live_status op)."""
        lines = [
            f"events {self.events} (payments {self.payments}, "
            f"validations {self.validations}, quarantined "
            f"{self.quarantined_total})",
            f"applied_seq {self.applied_seq}",
        ]
        for category, submitted, delivered in self.delivery_rows():
            rate = 100.0 * delivered / submitted if submitted else 0.0
            lines.append(
                f"  {category:16s} {delivered}/{submitted} delivered "
                f"({rate:.1f}%)"
            )
        for label, identified, gain in self.figure3_rows():
            lines.append(f"  IG {label:28s} {identified:8d}  {gain:6.2f}%")
        if self.fork_watch.forked:
            lines.append(f"  FORKED sequences: {self.fork_watch.forked}")
        return "\n".join(lines)
