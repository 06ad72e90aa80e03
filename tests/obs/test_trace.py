"""The span tracer: nesting, kinds, absorption, deterministic lines."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import METRICS
from repro.obs.trace import VOLATILE_KEYS, Tracer


def _shape(tracer):
    """(seq, parent, name, kind) tuples — the deterministic skeleton."""
    return [
        (r["seq"], r["parent"], r["name"], r["kind"]) for r in tracer.spans
    ]


class TestSpans:
    def test_disabled_tracer_allocates_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("x"):
            with tracer.span("y"):
                pass
        assert tracer.spans == []

    def test_nesting_sets_parents(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer", kind="phase"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        assert _shape(tracer) == [
            (0, None, "outer", "phase"),
            (1, 0, "inner", "detail"),
            (2, 0, "sibling", "detail"),
        ]

    def test_durations_filled_on_exit(self):
        tracer = Tracer(enabled=True)
        with tracer.span("timed"):
            pass
        assert tracer.spans[0]["duration_s"] >= 0.0

    def test_attrs_recorded(self):
        tracer = Tracer(enabled=True)
        with tracer.span("s", shard=3):
            pass
        assert tracer.spans[0]["attrs"] == {"shard": 3}


class TestTiming:
    def test_wall_clock_is_a_transport_annotation_only(self):
        """``wall_ts`` exists for humans; nothing deterministic reads it."""
        tracer = Tracer(enabled=True)
        with tracer.span("s"):
            pass
        record = tracer.spans[0]
        assert record["wall_ts"] > 0
        assert "wall_ts" in VOLATILE_KEYS
        assert "start_ts" not in record  # the old wall-clock field is gone

    def test_start_offsets_are_monotonic_from_the_tracer_origin(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        offsets = [record["start_s"] for record in tracer.spans]
        assert all(offset >= 0.0 for offset in offsets)
        assert offsets == sorted(offsets)

    def test_reset_restarts_the_origin(self):
        tracer = Tracer(enabled=True)
        with tracer.span("warmup"):
            pass
        tracer.reset()
        with tracer.span("fresh"):
            pass
        # a reset tracer starts its timeline near zero again
        assert tracer.spans[0]["start_s"] < 1.0


class TestAbsorb:
    def test_absorb_reparents_and_resequences(self):
        worker = Tracer(enabled=True)
        with worker.span("shard.work"):
            with worker.span("shard.step"):
                pass
        parent = Tracer(enabled=True)
        with parent.span("compute", kind="phase"):
            parent.absorb(worker.snapshot())
        assert _shape(parent) == [
            (0, None, "compute", "phase"),
            (1, 0, "shard.work", "detail"),
            (2, 1, "shard.step", "detail"),
        ]

    def test_absorb_in_index_order_is_deterministic(self):
        def snap(tag):
            worker = Tracer(enabled=True)
            with worker.span(f"shard.{tag}"):
                pass
            return worker.snapshot()

        first = Tracer(enabled=True)
        second = Tracer(enabled=True)
        snaps = [snap(0), snap(1), snap(2)]
        for tracer in (first, second):
            for snapshot in snaps:
                tracer.absorb(snapshot)
        assert first.lines(strip_timing=True) == second.lines(strip_timing=True)

    def test_absorb_when_disabled_is_noop(self):
        tracer = Tracer(enabled=False)
        tracer.absorb([{"seq": 0, "name": "x"}])
        assert tracer.spans == []


class TestRollups:
    def test_rollup_counts_only_requested_kind(self):
        tracer = Tracer(enabled=True)
        with tracer.span("compute", kind="phase"):
            with tracer.span("detailwork"):
                pass
        with tracer.span("render", kind="phase"):
            pass
        with tracer.span("compute", kind="phase"):
            pass
        assert tracer.rollup("phase") == {"compute": 2, "render": 1}
        assert tracer.rollup("detail") == {"detailwork": 1}

    def test_phase_rollup_ignores_worker_detail_spans(self):
        serial = Tracer(enabled=True)
        with serial.span("fig.compute", kind="phase"):
            pass

        parallel = Tracer(enabled=True)
        with parallel.span("fig.compute", kind="phase"):
            worker = Tracer(enabled=True)
            with worker.span("parallel.fig.shard", shard=0):
                pass
            parallel.absorb(worker.snapshot())
        assert serial.rollup("phase") == parallel.rollup("phase")


class TestLines:
    def test_strip_timing_removes_volatile_keys_only(self):
        tracer = Tracer(enabled=True)
        with tracer.span("s", kind="phase", n=1):
            pass
        stripped = json.loads(tracer.lines(strip_timing=True)[0])
        full = json.loads(tracer.lines()[0])
        for key in VOLATILE_KEYS:
            assert key not in stripped
            assert key in full
        assert stripped["name"] == "s" and stripped["attrs"] == {"n": 1}

    def test_equivalent_runs_produce_identical_stripped_lines(self):
        def run():
            tracer = Tracer(enabled=True)
            with tracer.span("a", kind="phase"):
                with tracer.span("b", x=2):
                    pass
            return tracer.lines(strip_timing=True)

        assert run() == run()

    def test_write_emits_jsonl_with_sidecar(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("only"):
            pass
        path = tmp_path / "run.trace.jsonl"
        written = tracer.write(str(path))
        assert written == 1
        assert (tmp_path / "run.trace.jsonl.sha256").exists()
        record = json.loads(path.read_text().strip())
        assert record["name"] == "only"


class TestSpanTimesIntoMetrics:
    """A span is the one timer of its region: it feeds METRICS by name."""

    @pytest.fixture(autouse=True)
    def metrics_on(self):
        was_enabled = METRICS.enabled
        METRICS.reset()
        METRICS.enable()
        yield
        METRICS.reset()
        METRICS.enabled = was_enabled

    def test_untraced_span_still_times(self):
        tracer = Tracer(enabled=False)
        for _ in range(2):
            with tracer.span("region"):
                pass
        assert tracer.spans == []
        assert METRICS.snapshot()["timers"]["region"]["calls"] == 2

    def test_traced_span_times_once(self):
        tracer = Tracer(enabled=True)
        with tracer.span("region"):
            pass
        timer = METRICS.snapshot()["timers"]["region"]
        assert timer["calls"] == 1
        assert timer["seconds"] == tracer.spans[0]["duration_s"]

    def test_nothing_recorded_with_both_off(self):
        METRICS.disable()
        with Tracer(enabled=False).span("region"):
            pass
        assert METRICS.snapshot()["timers"] == {}
