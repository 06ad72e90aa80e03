"""OnlineState: exact batch equivalence, fork watch, canonical digests."""

import json

import pytest

from repro.analysis.archive import record_to_json
from repro.analysis.dataset import TransactionDataset
from repro.consensus.forks import find_forks
from repro.consensus.proposals import Validation
from repro.consensus.unl import UNL
from repro.consensus.validator import Validator
from repro.core.deanonymizer import Deanonymizer
from repro.errors import IngestError
from repro.online.events import payment_event, validation_event
from repro.online.state import ForkWatch, OnlineState
from repro.stream.events import StreamEvent


def feed_payments(state, records, start_seq=0):
    for offset, record in enumerate(records):
        state.absorb(payment_event(start_seq + offset,
                                   record_to_json(record)))


class TestBatchEquivalence:
    """The online indexes must reproduce Fig. 3 *exactly* — identified
    counts and percentages — against the batch Deanonymizer over the
    same payments, across all ten feature lists (including the
    currency-blind ones)."""

    def test_figure3_matches_batch(self, history):
        records = history.records[:1500]
        state = OnlineState()
        feed_payments(state, records)
        batch = Deanonymizer(
            TransactionDataset.from_records(records)
        ).figure3()
        online = state.figure3_rows()
        assert len(online) == len(batch) == 10
        for row, (label, identified, gain) in zip(batch, online):
            assert row.feature_list.label() == label
            assert row.identified == identified
            assert abs(row.percent - gain) < 1e-9

    def test_absorption_order_does_not_matter(self, history):
        records = history.records[:300]
        forward, backward = OnlineState(), OnlineState()
        feed_payments(forward, records)
        for offset, record in enumerate(reversed(records)):
            backward.absorb(payment_event(offset, record_to_json(record)))
        assert (
            [(label, n) for label, n, _ in forward.figure3_rows()]
            == [(label, n) for label, n, _ in backward.figure3_rows()]
        )

    def test_delivery_counters_match_records(self, history):
        records = history.records[:800]
        state = OnlineState()
        feed_payments(state, records)
        rows = dict(
            (category, (submitted, delivered))
            for category, submitted, delivered in state.delivery_rows()
        )
        cross = [r for r in records if r.cross_currency]
        single = [r for r in records if not r.cross_currency]
        assert rows["Cross-currency"] == (
            len(cross), sum(1 for r in cross if r.delivered)
        )
        assert rows["Single-currency"] == (
            len(single), sum(1 for r in single if r.delivered)
        )
        assert rows["Total"] == (len(records),
                                 sum(1 for r in records if r.delivered))


def _validation(validator, sequence, page, network_id=0, sign_time=0):
    return Validation(
        validator=validator,
        sequence=sequence,
        page_hash=page,
        sign_time=sign_time,
        network_id=network_id,
    )


class TestForkWatch:
    """Incremental fork detection agrees with the batch find_forks."""

    def _roster(self):
        # Two camps with disjoint-majority views: camp A trusts a1-a4,
        # camp B trusts b1-b4; one shared member keeps it one network.
        camp_a = ["a1", "a2", "a3", "a4"]
        camp_b = ["b1", "b2", "b3", "b4"]
        return (
            [Validator(n, UNL.of(camp_a)) for n in camp_a]
            + [Validator(n, UNL.of(camp_b)) for n in camp_b]
        )

    def _conflicting(self, sequence):
        page_x, page_y = b"\x01" * 32, b"\x02" * 32
        return (
            [_validation(n, sequence, page_x) for n in
             ("a1", "a2", "a3", "a4")]
            + [_validation(n, sequence, page_y) for n in
               ("b1", "b2", "b3", "b4")]
        )

    def test_conflicting_views_fork(self):
        validators = self._roster()
        validations = self._conflicting(9)
        batch = find_forks(validations, validators)
        assert [f.sequence for f in batch] == [9]

        watch = ForkWatch.from_validators(validators)
        state = OnlineState(fork_watch=watch)
        for seq, validation in enumerate(validations):
            event = validation_event(
                seq, StreamEvent(validation=validation, received_at=seq)
            )
            state.absorb(event)
        assert state.fork_watch.forked == [9]
        assert state.validations == len(validations)

    def test_agreement_is_not_a_fork(self):
        validators = self._roster()
        watch = ForkWatch.from_validators(validators)
        state = OnlineState(fork_watch=watch)
        page = b"\x07" * 32
        for seq, name in enumerate(("a1", "a2", "a3", "a4", "b1", "b2",
                                    "b3", "b4")):
            state.absorb(validation_event(seq, StreamEvent(
                validation=_validation(name, 3, page), received_at=seq)))
        assert state.fork_watch.forked == []

    def test_other_network_ignored(self):
        watch = ForkWatch.from_validators(self._roster())
        state = OnlineState(fork_watch=watch)
        for seq, validation in enumerate(self._conflicting(5)):
            rogue = _validation(
                validation.validator, 5, validation.page_hash, network_id=1
            )
            state.absorb(validation_event(seq, StreamEvent(
                validation=rogue, received_at=seq)))
        assert state.fork_watch.forked == []

    def test_fork_watch_payload_roundtrip(self):
        watch = ForkWatch.from_validators(self._roster())
        for validation in self._conflicting(2):
            watch.absorb({
                "validator": validation.validator,
                "sequence": validation.sequence,
                "page_hash": validation.page_hash.hex(),
                "network_id": validation.network_id,
            })
        restored = ForkWatch.from_payload(watch.payload())
        assert restored.payload() == watch.payload()
        assert restored.forked == [2]


class TestSerialization:
    def test_payload_roundtrip_preserves_digest(self, history):
        state = OnlineState()
        feed_payments(state, history.records[:200])
        state.note_quarantined(payment_event(200, {"bad": 1}), "schema:test")
        restored = OnlineState.from_payload(state.payload())
        assert restored.digest() == state.digest()
        assert restored.applied_seq == 200
        assert restored.quarantined_total == 1

    def test_digest_reflects_every_event(self, history):
        a, b = OnlineState(), OnlineState()
        feed_payments(a, history.records[:50])
        feed_payments(b, history.records[:51])
        assert a.digest() != b.digest()

    def test_version_mismatch_rejected(self):
        state = OnlineState()
        payload = state.payload()
        payload["state_version"] = 99
        with pytest.raises(IngestError):
            OnlineState.from_payload(payload)

    def test_label_mismatch_rejected(self, history):
        state = OnlineState()
        feed_payments(state, history.records[:10])
        payload = state.payload()
        payload["figure3"][0]["label"] = "<bogus>"
        with pytest.raises(IngestError):
            OnlineState.from_payload(payload)


class TestDeferredFold:
    """Payments fold into the indexes at the next read, not at absorb."""

    def test_reads_between_events_do_not_change_the_state(self, history):
        records = history.records[:400]
        read_often, read_once = OnlineState(), OnlineState()
        for seq, record in enumerate(records):
            event = payment_event(seq, record_to_json(record))
            read_often.absorb(event)
            read_once.absorb(event)
            if seq % 37 == 0:
                read_often.digest()
        assert read_often.digest() == read_once.digest()
        assert read_often.figure3_rows() == read_once.figure3_rows()
