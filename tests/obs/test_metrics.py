"""The unified metrics registry: recording, absorption, expositions."""

from __future__ import annotations

import json

from repro.obs.metrics import MetricsRegistry, prom_name


class TestRecording:
    def test_disabled_records_nothing(self):
        metrics = MetricsRegistry(enabled=False)
        metrics.count("a")
        metrics.gauge("g", 1.5)
        metrics.observe("h", 2.0)
        with metrics.timer("t"):
            pass
        assert metrics.snapshot() == {"counters": {}, "timers": {}}

    def test_gauge_last_write_wins(self):
        metrics = MetricsRegistry(enabled=True)
        metrics.gauge("depth", 3)
        metrics.gauge("depth", 7)
        assert metrics.snapshot()["gauges"] == {"depth": 7}

    def test_histogram_tracks_count_sum_min_max(self):
        metrics = MetricsRegistry(enabled=True)
        for value in (4.0, 1.0, 9.0):
            metrics.observe("latency", value)
        hist = metrics.snapshot()["histograms"]["latency"]
        assert hist == {"count": 3, "sum": 14.0, "min": 1.0, "max": 9.0}

    def test_snapshot_omits_empty_sections(self):
        metrics = MetricsRegistry(enabled=True)
        metrics.count("only", 2)
        snap = metrics.snapshot()
        assert set(snap) == {"counters", "timers"}

    def test_reset_clears_every_family(self):
        metrics = MetricsRegistry(enabled=True)
        metrics.count("a")
        metrics.add_time("b", 1.0)
        metrics.gauge("g", 2.0)
        metrics.observe("h", 3.0)
        metrics.reset()
        assert metrics.snapshot() == {"counters": {}, "timers": {}}


class TestAbsorb:
    def test_absorb_merges_every_metric_family(self):
        parent = MetricsRegistry(enabled=True)
        parent.count("payments", 10)
        parent.add_time("work", 1.0)
        parent.observe("size", 5.0)
        worker = MetricsRegistry(enabled=True)
        worker.count("payments", 4)
        worker.add_time("work", 0.5)
        worker.add_time("work", 0.5)
        worker.observe("size", 11.0)
        worker.gauge("depth", 2)

        parent.absorb(worker.snapshot())
        snap = parent.snapshot()
        assert snap["counters"] == {"payments": 14}
        assert snap["timers"]["work"]["calls"] == 3
        assert abs(snap["timers"]["work"]["seconds"] - 2.0) < 1e-9
        assert snap["histograms"]["size"] == {
            "count": 2, "sum": 16.0, "min": 5.0, "max": 11.0,
        }
        assert snap["gauges"] == {"depth": 2.0}

    def test_absorb_is_noop_when_disabled(self):
        parent = MetricsRegistry(enabled=False)
        parent.absorb({"counters": {"x": 1}})
        assert parent.snapshot()["counters"] == {}


class TestExpositions:
    def test_prom_name_sanitizes(self):
        assert prom_name("engine.submit", "_total") == "repro_engine_submit_total"
        assert prom_name("a-b c") == "repro_a_b_c"

    def test_prom_exposition_golden(self):
        metrics = MetricsRegistry(enabled=True)
        metrics.count("engine.payments", 12)
        metrics.gauge("pool.depth", 4)
        metrics.add_time("etl.load", 0.25)
        metrics.add_time("etl.load", 0.25)
        metrics.observe("shard.rows", 100.0)
        assert metrics.to_prom() == (
            "# TYPE repro_engine_payments_total counter\n"
            "repro_engine_payments_total 12\n"
            "# TYPE repro_pool_depth gauge\n"
            "repro_pool_depth 4\n"
            "# TYPE repro_etl_load_seconds summary\n"
            "repro_etl_load_seconds_count 2\n"
            "repro_etl_load_seconds_sum 0.5\n"
            "# TYPE repro_shard_rows summary\n"
            "repro_shard_rows_count 1\n"
            "repro_shard_rows_sum 100.0\n"
            "repro_shard_rows_min 100.0\n"
            "repro_shard_rows_max 100.0\n"
        )

    def test_report_names_every_counter_and_timer(self):
        metrics = MetricsRegistry(enabled=True)
        metrics.count("payments", 3)
        metrics.count("failures")
        with metrics.timer("work"):
            pass
        metrics.add_time("etl.load", 0.25)
        report = metrics.report()
        for name in ("payments", "failures", "work", "etl.load"):
            assert name in report

    def test_empty_prom_exposition_is_empty(self):
        assert MetricsRegistry(enabled=True).to_prom() == ""

    def test_json_exposition_round_trips(self):
        metrics = MetricsRegistry(enabled=True)
        metrics.count("a", 1)
        parsed = json.loads(metrics.to_json())
        assert parsed["counters"] == {"a": 1}
