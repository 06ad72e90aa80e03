"""Tests of the benchmark itself (run with ``python -m pytest perfbench``).

Two traced runs at a tiny size with one seed must repeat every work
count exactly, every metric ``BENCHMARK.json`` names must be emitted
with its unit, and the benchmark must refuse to run without the
program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCH = json.load(_handle)


def run(workload: str, trace: int, cwd: str = ROOT, ops: int = 2):
    command = [
        sys.executable, os.path.join(cwd, "perfbench", "run.py"),
        "--workload", workload, "--seed", "3", "--seconds", "2",
        "--trace", str(trace), "--size", "tiny", "--ops", str(ops),
    ]
    return subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=600
    )


def result(done) -> dict:
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def is_count(unit: str) -> bool:
    return unit in ("calls/op", "count/op", "B/op", "count")


@pytest.mark.parametrize(
    "workload", [entry["name"] for entry in BENCH["workloads"]]
)
def test_traced_counts_repeat_exactly(workload):
    first, second = result(run(workload, 1)), result(run(workload, 1))
    for outcome in (first, second):
        assert outcome["correct"] and outcome["failed"] == 0
        assert outcome["attempted"] == 4  # two ops untraced, two traced
    counts = {
        name: metric["value"]
        for name, metric in first["metrics"].items()
        if is_count(metric["unit"])
    }
    assert counts == {
        name: second["metrics"][name]["value"] for name in counts
    }
    assert any(value > 0 for value in counts.values())


@pytest.mark.parametrize(
    "workload", [entry["name"] for entry in BENCH["workloads"]]
)
def test_every_metric_is_emitted_with_its_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        outcome = result(run(workload, trace))
        assert outcome["correct"]
        assert outcome["attempted"] >= 1
        expected = {entry["name"]: entry["unit"] for entry in BENCH[key]}
        emitted = {
            name: metric["unit"] for name, metric in outcome["metrics"].items()
        }
        assert emitted == expected
        for name, metric in outcome["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = run(BENCH["workloads"][0]["name"], 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")


def test_interaction_record_names_real_metrics():
    with open(os.path.join(HERE, "interactions.json"), encoding="utf-8") as f:
        record = json.load(f)
    workloads = record["workloads"]
    assert set(workloads) == {w["name"] for w in BENCH["workloads"]}
    gated = {entry["name"] for entry in BENCH["end_to_end"]}
    per_layer = {entry["name"] for entry in BENCH["per_layer"]}
    for entry in record["layers"]:
        layer = entry["layer"].replace("<artifact>", "fig3")
        assert {layer, f"{layer}.ms"} & per_layer, layer
        for move in entry["moves"] + entry["flat"]:
            named = {
                name
                for names in workloads[move["workload"]]["parts"].values()
                for name in names
            }
            assert move["metric"] in gated | named, move
