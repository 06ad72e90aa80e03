"""The contract runner's case table, checked without computing anything.

``tools/contracts.py`` only runs in its own CI job, where a renamed flag,
an orphaned golden or a ``--update`` that breaks a claim would surface
after minutes of compute.  These checks catch all three in seconds, and
hold EXPERIMENTS.md to the goldens it quotes.
"""

from __future__ import annotations

import importlib.util
import os
import re
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


def _read(relative):
    with open(os.path.join(ROOT, relative), encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize(
    "case", [case for case in contracts.CASES if case.golden and case.claims],
    ids=lambda c: c.name,
)
def test_claims_hold_on_the_committed_golden(case):
    report = _read(case.golden)
    assert [
        message for message, holds in case.claims
        if not contracts.claim_holds(holds, report)
    ] == []


def test_a_report_that_does_not_parse_fails_its_claims():
    for case in contracts.CASES:
        for message, holds in case.claims:
            assert not contracts.claim_holds(holds, ""), message


def test_experiments_quotes_only_numbers_its_goldens_print():
    """Each bold measured value sits verbatim in a golden its section cites."""
    sections = _read("EXPERIMENTS.md").split("\n## ")[1:]
    quoting = 0
    for section in sections:
        quoted = re.findall(r"\*\*(.+?)\*\*", section)
        if not quoted:
            continue
        quoting += 1
        goldens = re.findall(r"`(examples/[\w/.-]+\.txt)`", section)
        title = section.splitlines()[0]
        assert goldens, f"{title}: quotes numbers but cites no golden"
        rendered = "".join(_read(golden) for golden in goldens)
        assert [q for q in quoted if q not in rendered] == [], title
    assert quoting >= 8


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
