"""The contract runner's case table, checked without computing anything.

``tools/contracts.py`` only runs in its own CI job, where a renamed flag
or an orphaned golden would surface after minutes of compute.  These
checks catch both in seconds.
"""

from __future__ import annotations

import importlib.util
import os
import sys

import pytest

from repro.api.request import ArtifactRequest
from repro.cli import build_parser

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_contracts():
    path = os.path.join(ROOT, "tools", "contracts.py")
    spec = importlib.util.spec_from_file_location("contracts", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    spec.loader.exec_module(module)
    return module


contracts = _load_contracts()


def test_every_golden_belongs_to_exactly_one_case():
    owned = [case.golden for case in contracts.CASES if case.golden]
    assert len(owned) == len(set(owned))
    examples = os.path.join(ROOT, "examples")
    on_disk = sorted(
        f"examples/{folder}/{name}"
        for folder in os.listdir(examples)
        if os.path.isdir(os.path.join(examples, folder))
        for name in os.listdir(os.path.join(examples, folder))
    )
    assert sorted(owned) == on_disk


def test_case_names_are_unique():
    names = [case.name for case in contracts.CASES]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("case", contracts.CASES, ids=lambda c: c.name)
def test_case_argv_parses_into_a_valid_request(case):
    parser = build_parser()
    for jobs in case.jobs:
        ArtifactRequest.from_namespace(
            parser.parse_args(list(contracts.jobs_argv(case, jobs)))
        )
    ArtifactRequest.from_namespace(parser.parse_args(list(case.argv)))


def test_procedural_commands_parse():
    parser = build_parser()
    parser.parse_args(list(contracts.ingest_argv("a.jsonl.gz", "state")))


def test_one_byte_golden_mismatch_is_a_violation(tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.setattr(contracts, "ROOT", str(tmp_path))
    (tmp_path / "golden.txt").write_text("fork at sequence 17\n")
    runner = contracts.Runner()
    runner.begin("fork_threshold")

    contracts.check_golden(runner, "fork at sequence 17\n", "golden.txt")
    assert runner.failures == []
    contracts.check_golden(runner, "fork at sequence 18\n", "golden.txt")
    assert len(runner.failures) == 1
    assert runner.failures[0].startswith("fork_threshold: ")
    assert "[FAIL]" in capsys.readouterr().out
