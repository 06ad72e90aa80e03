"""CLI observability end-to-end: --trace, run manifests, metrics/manifest
subcommands, and the bit-for-bit guarantees the ISSUE pins down."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli import main
from repro.obs.manifest import deterministic_view, validate_manifest
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER

SMALL = ["--payments", "1200", "--seed", "5"]


@pytest.fixture(autouse=True)
def obs_disabled():
    """Each test starts and ends with the process-wide registries cold."""
    TRACER.disable()
    TRACER.reset()
    METRICS.disable()
    METRICS.reset()
    yield
    TRACER.disable()
    TRACER.reset()
    METRICS.disable()
    METRICS.reset()


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestTraceFlag:
    def test_trace_off_leaves_artifact_bytes_unchanged(self, capsys, tmp_path):
        plain = tmp_path / "plain.txt"
        traced = tmp_path / "traced.txt"
        assert main(["fig4", *SMALL, "--out", str(plain)]) == 0
        assert main(["fig4", *SMALL, "--out", str(traced), "--trace"]) == 0
        capsys.readouterr()
        assert _sha(plain) == _sha(traced)

    def test_trace_auto_path_derives_from_out(self, capsys, tmp_path):
        out = tmp_path / "fig4.txt"
        assert main(["fig4", *SMALL, "--out", str(out), "--trace"]) == 0
        capsys.readouterr()
        trace = tmp_path / "fig4.txt.trace.jsonl"
        assert trace.exists()
        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        names = {record["name"] for record in records}
        assert "fig4.compute" in names
        assert "artifact.dataset" in names

    def test_explicit_trace_path_honoured(self, capsys, tmp_path):
        trace = tmp_path / "custom.jsonl"
        assert main(["fig4", *SMALL, "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert trace.exists()
        # No --out: the manifest anchors on the trace file instead.
        assert (tmp_path / "custom.jsonl.manifest.json").exists()

    def test_registries_restored_after_traced_run(self, capsys, tmp_path):
        assert main(["fig4", *SMALL, "--trace",
                     str(tmp_path / "t.jsonl")]) == 0
        capsys.readouterr()
        assert not TRACER.enabled
        assert not METRICS.enabled

    def test_back_to_back_traced_runs_count_alike(self, capsys, tmp_path):
        """A traced run's manifest counts only that run's work."""
        sweep = ["fork_threshold", "--rounds", "30", "--seed", "3"]
        counters = []
        for run in ("first", "second"):
            trace = tmp_path / f"{run}.jsonl"
            assert main([*sweep, "--trace", str(trace)]) == 0
            manifest = _load(tmp_path / f"{run}.jsonl.manifest.json")
            counters.append(manifest["metrics"]["counters"])
        capsys.readouterr()
        for name in ("consensus.rounds", "node.round_retries"):
            assert counters[0][name] == counters[1][name] > 0


class TestRunManifest:
    def test_out_run_emits_valid_manifest(self, capsys, tmp_path):
        out = tmp_path / "fig4.txt"
        assert main(["fig4", *SMALL, "--out", str(out)]) == 0
        capsys.readouterr()
        payload = _load(tmp_path / "fig4.txt.manifest.json")
        assert validate_manifest(payload) == []
        assert payload["artifact"] == "fig4"
        assert payload["invocation"]["seed"] == 5
        assert payload["spans"]["fig4.compute"] == 1
        assert payload["spans"]["fig4.render"] == 1
        assert payload["outputs"][0]["sha256"] == _sha(out)
        assert payload["artifact_metrics"] == {"currencies": 30}

    def test_rendered_sha_matches_stdout(self, capsys, tmp_path):
        out = tmp_path / "fig6.txt"
        assert main(["fig6", *SMALL, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        payload = _load(tmp_path / "fig6.txt.manifest.json")
        rendered = hashlib.sha256(
            stdout.rstrip("\n").encode("utf-8")
        ).hexdigest()
        assert payload["rendered_sha256"] == rendered

    def test_serial_and_jobs4_agree_on_deterministic_view(
        self, capsys, tmp_path
    ):
        # fork_threshold is the artifact with a sharded contract.
        sweep = ["fork_threshold", "--rounds", "60"]
        serial_out = tmp_path / "serial.txt"
        sharded_out = tmp_path / "sharded.txt"
        assert main([*sweep, "--out", str(serial_out), "--trace"]) == 0
        assert main([*sweep, "--jobs", "4", "--out", str(sharded_out),
                     "--trace"]) == 0
        capsys.readouterr()
        serial = _load(tmp_path / "serial.txt.manifest.json")
        sharded = _load(tmp_path / "sharded.txt.manifest.json")
        assert serial_out.read_bytes() == sharded_out.read_bytes()
        assert serial["spans"] == sharded["spans"]
        assert serial["plan"] is None
        assert sharded["plan"] is not None and sharded["plan"]["shards"] > 1
        assert deterministic_view(serial) == deterministic_view(sharded)


class TestArtifactSubcommand:
    def test_generic_dispatch_matches_named_subcommand(self, capsys):
        assert main(["fig4", *SMALL]) == 0
        named = capsys.readouterr().out
        assert main(["artifact", "fig4", *SMALL]) == 0
        generic = capsys.readouterr().out
        assert named == generic

    def test_unknown_name_fails_politely(self, capsys):
        assert main(["artifact", "fig99", *SMALL]) == 2
        assert "unknown artifact" in capsys.readouterr().err


class TestMetricsSubcommand:
    # Each test uses a fresh seed: generate_history is lru_cached, and a
    # cache hit would skip the generation-side counters being asserted.
    def test_prom_exposition_after_artifact(self, capsys):
        assert main(["metrics", "--artifact", "fig4",
                     "--payments", "1200", "--seed", "771"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_engine_payments_total counter" in out
        assert "repro_engine_payments_total 1200" in out

    def test_json_exposition(self, capsys):
        assert main(["metrics", "--artifact", "fig4",
                     "--payments", "1200", "--seed", "772",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"]["engine.payments"] == 1200

    def test_empty_registry_exposes_nothing(self, capsys):
        assert main(["metrics"]) == 0
        assert capsys.readouterr().out == ""


class TestManifestSubcommand:
    def test_valid_manifest_passes(self, capsys, tmp_path):
        out = tmp_path / "fig4.txt"
        assert main(["fig4", *SMALL, "--out", str(out)]) == 0
        capsys.readouterr()
        path = str(tmp_path / "fig4.txt.manifest.json")
        assert main(["manifest", path]) == 0
        assert "valid" in capsys.readouterr().out

    def test_deterministic_flag_prints_view(self, capsys, tmp_path):
        out = tmp_path / "fig4.txt"
        assert main(["fig4", *SMALL, "--out", str(out)]) == 0
        capsys.readouterr()
        path = str(tmp_path / "fig4.txt.manifest.json")
        assert main(["manifest", path, "--deterministic"]) == 0
        view = json.loads(capsys.readouterr().out)
        assert view["artifact"] == "fig4"
        assert "timing" not in view

    def test_invalid_manifest_fails(self, capsys, tmp_path):
        path = tmp_path / "bad.manifest.json"
        path.write_text(json.dumps({"manifest_version": "nope"}))
        assert main(["manifest", str(path)]) == 1
        assert "manifest:" in capsys.readouterr().err

    def test_missing_file_fails(self, capsys, tmp_path):
        assert main(["manifest", str(tmp_path / "absent.json")]) == 2
        assert "manifest:" in capsys.readouterr().err
