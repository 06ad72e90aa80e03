"""Run manifests: build/write/validate round-trip and the deterministic view."""

from __future__ import annotations

import argparse
import json

import pytest

from repro.obs.manifest import (
    RUN,
    build_manifest,
    deterministic_view,
    load_schema,
    manifest_destination,
    output_entry,
    validate_manifest,
    write_run_manifest,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


@pytest.fixture(autouse=True)
def clean_run_context():
    RUN.reset()
    yield
    RUN.reset()


def _args(**overrides):
    base = dict(
        seed=7, scale=600, payments=1200, archive=None, jobs=None,
        quarantine=False,
    )
    base.update(overrides)
    return argparse.Namespace(**base)


def _build(tmp_path, **kwargs):
    out = tmp_path / "fig.txt"
    out.write_text("rendered\n")
    tracer = Tracer(enabled=True)
    with tracer.span("fig.compute", kind="phase"):
        pass
    return build_manifest(
        "fig3",
        kwargs.pop("args", _args()),
        "rendered",
        [output_entry(str(out))],
        started_at=1.0,
        duration_seconds=0.5,
        tracer=tracer,
        metrics=kwargs.pop("metrics", MetricsRegistry(enabled=False)),
        **kwargs,
    )


class TestRoundTrip:
    def test_built_manifest_validates_against_schema(self, tmp_path):
        payload = _build(tmp_path)
        assert validate_manifest(payload) == []

    def test_write_then_load_preserves_payload(self, tmp_path):
        payload = _build(tmp_path)
        destination = manifest_destination(str(tmp_path / "fig.txt"))
        write_run_manifest(destination, payload)
        assert destination.endswith(".manifest.json")
        with open(destination, "r", encoding="utf-8") as handle:
            loaded = json.load(handle)
        assert loaded == payload
        assert validate_manifest(loaded) == []

    def test_run_context_annotations_land_in_manifest(self, tmp_path):
        RUN.note(ingest={"read": 10, "quarantined": 1, "reasons": {"bad": 1}})
        RUN.count("shard_resubmits")
        RUN.count("shard_resubmits")
        payload = _build(tmp_path)
        assert payload["ingest"]["read"] == 10
        assert payload["events"] == {"shard_resubmits": 2}
        assert validate_manifest(payload) == []

    def test_plan_annotation_becomes_plan_block(self, tmp_path):
        RUN.note(plan_fingerprint="abc123", shards=4, jobs=2)
        payload = _build(tmp_path)
        assert payload["plan"] == {
            "fingerprint": "abc123", "shards": 4, "jobs": 2,
        }
        assert validate_manifest(payload) == []

    def test_metrics_snapshot_included_when_enabled(self, tmp_path):
        metrics = MetricsRegistry(enabled=True)
        metrics.count("payments", 3)
        payload = _build(tmp_path, metrics=metrics)
        assert payload["metrics"]["counters"] == {"payments": 3}
        assert validate_manifest(payload) == []


class TestOutputEntry:
    def test_hashes_and_sizes_file(self, tmp_path):
        path = tmp_path / "data.bin"
        path.write_bytes(b"abc")
        entry = output_entry(str(path))
        assert entry["bytes"] == 3
        assert entry["kind"] == "artifact"
        assert len(entry["sha256"]) == 64
        assert "volatile" not in entry

    def test_volatile_flag(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("{}\n")
        assert output_entry(str(path), kind="trace", volatile=True)[
            "volatile"
        ] is True


class TestDeterministicView:
    def test_strips_strategy_and_timing_fields(self, tmp_path):
        RUN.note(plan_fingerprint="abc", shards=4, jobs=4)
        payload = _build(tmp_path, args=_args(jobs=4))
        view = deterministic_view(payload)
        assert "jobs" not in view["invocation"]
        assert "timing" not in view
        assert "plan" not in view
        assert "phase_seconds" not in view
        assert "artifact_metrics" not in view
        assert view["spans"] == {"fig.compute": 1}

    def test_serial_and_sharded_manifests_agree(self, tmp_path):
        serial = _build(tmp_path)
        RUN.reset()
        RUN.note(plan_fingerprint="abc", shards=4, jobs=4)
        sharded = _build(tmp_path, args=_args(jobs=4))
        assert deterministic_view(serial) == deterministic_view(sharded)

    def test_volatile_outputs_excluded_from_hashes(self, tmp_path):
        trace = tmp_path / "x.trace.jsonl"
        trace.write_text("volatile\n")
        payload = _build(tmp_path)
        payload["outputs"].append(
            output_entry(str(trace), kind="trace", volatile=True)
        )
        stable = [e["sha256"] for e in payload["outputs"] if not e.get("volatile")]
        assert deterministic_view(payload)["output_sha256s"] == sorted(stable)


class TestValidator:
    def test_schema_loads(self):
        schema = load_schema()
        assert schema["type"] == "object"
        assert "manifest_version" in schema["required"]

    def test_missing_required_key_reported(self, tmp_path):
        payload = _build(tmp_path)
        del payload["artifact"]
        errors = validate_manifest(payload)
        assert any("artifact" in error for error in errors)

    def test_wrong_type_reported(self, tmp_path):
        payload = _build(tmp_path)
        payload["manifest_version"] = "one"
        errors = validate_manifest(payload)
        assert any("manifest_version" in error for error in errors)

    def test_unexpected_key_reported(self, tmp_path):
        payload = _build(tmp_path)
        payload["surprise"] = 1
        errors = validate_manifest(payload)
        assert any("surprise" in error for error in errors)

    def test_negative_minimum_reported(self, tmp_path):
        payload = _build(tmp_path)
        payload["outputs"][0]["bytes"] = -1
        errors = validate_manifest(payload)
        assert any("bytes" in error for error in errors)

    def test_bool_is_not_integer(self, tmp_path):
        payload = _build(tmp_path)
        payload["manifest_version"] = True
        assert validate_manifest(payload)

    def test_non_object_payload_rejected(self):
        assert validate_manifest([]) != []
