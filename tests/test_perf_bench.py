"""The metrics registry as the perf surface: disabled, it records nothing."""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry


class TestPerfRegistry:
    def test_disabled_registry_records_nothing(self):
        perf = MetricsRegistry(enabled=False)
        perf.count("x")
        with perf.timer("y"):
            pass
        assert perf.snapshot() == {"counters": {}, "timers": {}}
