"""Golden equivalence: ``--jobs 4`` output is byte-identical to serial.

This is the engine's contract stated as a test: sharding is an execution
strategy, never an answer-changing one.  Each case runs the real CLI
twice — once serial, once across four worker processes — and compares the
written artifacts with sha256, the same check CI applies.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cli import main

SMALL = ["--payments", "1200", "--seed", "5"]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("command", ["fig3", "fig5", "table2", "population"])
@pytest.mark.parametrize("jobs", [2, 4])
def test_cli_sharded_matches_serial_bytes(command, jobs, tmp_path, capsys):
    serial = tmp_path / f"{command}-serial.txt"
    sharded = tmp_path / f"{command}-jobs{jobs}.txt"
    assert main([command, *SMALL, "--jobs", "1", "--out", str(serial)]) == 0
    assert (
        main([command, *SMALL, "--jobs", str(jobs), "--out", str(sharded)])
        == 0
    )
    capsys.readouterr()
    assert serial.read_bytes() == sharded.read_bytes()
    assert _sha256(serial) == _sha256(sharded)
