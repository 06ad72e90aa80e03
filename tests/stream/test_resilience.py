"""Stream resilience: window contract, reconnect replay, deduplication."""

from repro.consensus.proposals import Validation
from repro.stream.collector import StreamCollector
from repro.stream.events import StreamEvent
from repro.stream.server import StreamServer


def event(received_at: int, validator: str = "v", sequence: int = 1,
          page: bytes = b"\x01" * 32, sign_time: int = 0) -> StreamEvent:
    return StreamEvent(
        validation=Validation(
            validator=validator,
            sequence=sequence,
            page_hash=page,
            sign_time=sign_time,
        ),
        received_at=received_at,
    )


class TestWindowContract:
    """Regression: the collection window is closed on BOTH ends."""

    def test_bounds_are_inclusive(self):
        collector = StreamCollector(window_start=10, window_end=20)
        for t in (9, 10, 11, 19, 20, 21):
            collector.record(event(t))
        assert [e.received_at for e in collector.events] == [10, 11, 19, 20]

    def test_single_instant_window_is_not_empty(self):
        # start == end == T accepts events received exactly at T; a
        # half-open reading would make this window silently empty.
        collector = StreamCollector(window_start=15, window_end=15)
        collector.record(event(14))
        collector.record(event(15))
        collector.record(event(16))
        assert [e.received_at for e in collector.events] == [15]

    def test_unbounded_sides(self):
        collector = StreamCollector(window_start=None, window_end=10)
        collector.record(event(-1000))
        collector.record(event(10))
        collector.record(event(11))
        assert len(collector) == 2


class TestDedupe:
    def test_exact_replays_dropped_when_enabled(self):
        collector = StreamCollector(dedupe=True)
        collector.record(event(5))
        collector.record(event(6))  # same validation, later receive time
        assert len(collector) == 1
        assert collector.duplicates_dropped == 1

    def test_distinct_sign_times_are_kept(self):
        # A validator legitimately re-signing later is NOT a duplicate.
        collector = StreamCollector(dedupe=True)
        collector.record(event(5, sign_time=0))
        collector.record(event(6, sign_time=3))
        assert len(collector) == 2

    def test_multiplicity_preserved_by_default(self):
        collector = StreamCollector()
        collector.record(event(5))
        collector.record(event(6))
        assert collector.total_counts() == {"v": 2}


class FakeChaos:
    """Minimal chaos stub: connection down for sign_time in [down, up)."""

    def __init__(self, down: int, up: int):
        self.down, self.up = down, up

    def stream_disconnected(self, t: int) -> bool:
        return self.down <= t < self.up


class TestReconnectReplay:
    def make_validation(self, i: int) -> Validation:
        return Validation(
            validator="v", sequence=i, page_hash=bytes([i]) * 32, sign_time=i
        )

    def test_buffer_and_replay_with_overlap(self):
        chaos = FakeChaos(down=3, up=6)
        server = StreamServer(mean_delay=0.0, loss_rate=0.0, seed=0,
                              chaos=chaos, replay_overlap=2)
        collector = StreamCollector(dedupe=True)
        server.subscribe(collector)

        for i in range(10):
            server.on_validation(self.make_validation(i))

        # Three validations were held while the connection was down, then
        # replayed together with the 2-event pre-disconnect overlap.
        assert server.buffered == 3
        assert server.reconnects == 1
        assert server.replayed == 5  # 2 overlap + 3 buffered
        # At-least-once upstream, exactly-once downstream: the dedup
        # collector ends with each validation exactly once.
        assert len(collector) == 10
        assert collector.duplicates_dropped == 2

    def test_flush_drains_events_still_buffered_at_end(self):
        chaos = FakeChaos(down=7, up=100)
        server = StreamServer(mean_delay=0.0, loss_rate=0.0, seed=0,
                              chaos=chaos)
        collector = StreamCollector(dedupe=True)
        server.subscribe(collector)
        for i in range(10):
            server.on_validation(self.make_validation(i))
        assert len(collector) == 7  # events 7..9 still buffered
        server.flush()
        assert len(collector) == 10
