"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        actions = {
            action.dest: action
            for action in parser._subparsers._group_actions  # noqa: SLF001
        }
        choices = actions["command"].choices
        for command in (
            "figures", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
            "table2", "generate", "attack",
        ):
            assert command in choices

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


SMALL = ["--payments", "1200", "--seed", "5"]


class TestCommands:
    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "table2" in out

    def test_fig3(self, capsys):
        assert main(["fig3", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "<Am; Tsc; C; D>" in out

    def test_fig4(self, capsys):
        assert main(["fig4", *SMALL, "--top", "5"]) == 0
        assert "XRP" in capsys.readouterr().out

    def test_fig6(self, capsys):
        assert main(["fig6", *SMALL]) == 0
        assert "hops" in capsys.readouterr().out

    def test_fig2_single_period(self, capsys):
        assert main(["fig2", "--period", "dec2015", "--scale", "4000"]) == 0
        out = capsys.readouterr().out
        assert "December 2015" in out and "R1" in out

    def test_table2(self, capsys):
        assert main(["table2", *SMALL]) == 0
        assert "Cross-currency" in capsys.readouterr().out

    def test_generate_and_reload(self, capsys, tmp_path):
        out_path = str(tmp_path / "dump.jsonl.gz")
        assert main(["generate", *SMALL, "--out", out_path]) == 0
        assert "wrote 1200 payments" in capsys.readouterr().out
        # fig3 can consume the archive instead of regenerating.
        assert main(["fig3", "--archive", out_path]) == 0
        assert "information gain" in capsys.readouterr().out

    def test_attack(self, capsys):
        code = main(["attack", *SMALL])
        out = capsys.readouterr().out
        assert "observed:" in out
        assert code in (0, 1)  # identified, or honestly ambiguous


class TestDurabilityFlags:
    def test_out_writes_manifest_sidecar(self, capsys, tmp_path):
        out_path = str(tmp_path / "fig6.txt")
        assert main(["fig6", *SMALL, "--out", out_path]) == 0
        capsys.readouterr()
        manifest = json.load(open(out_path + ".sha256"))
        assert manifest["format"] == "repro-artifact/1"
        assert manifest["bytes"] == os.path.getsize(out_path)

    def test_quarantine_flag_survives_bad_lines(self, capsys, tmp_path):
        archive = str(tmp_path / "dump.jsonl")
        assert main(["generate", *SMALL, "--out", archive]) == 0
        capsys.readouterr()
        lines = open(archive).readlines()
        lines[40] = "garbage line\n"
        with open(archive, "w") as handle:
            handle.writelines(lines)
        os.remove(archive + ".sha256")
        # Strict (default): typed failure, exit code 2.
        assert main(["fig4", "--archive", archive]) == 2
        err = capsys.readouterr().err
        assert "line 41" in err
        # Lenient: quarantined, analysis proceeds.
        assert main(["fig4", "--archive", archive, "--quarantine"]) == 0
        captured = capsys.readouterr()
        assert "quarantined 1" in captured.err
        assert os.path.exists(archive + ".quarantine.jsonl")


class TestExtensionCommands:
    def test_defenses(self, capsys):
        assert main(["defenses", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "per-payment-wallets" in out

    def test_rewards(self, capsys):
        assert main(["rewards", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "equilibrium validators" in out


class TestRemainingCommands:
    def test_fig5(self, capsys):
        assert main(["fig5", *SMALL]) == 0
        assert "survival" in capsys.readouterr().out

    def test_fig7(self, capsys):
        assert main(["fig7", *SMALL, "--top", "10"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out and "offer concentration" in out

    def test_fig2_all_periods(self, capsys):
        assert main(["fig2", "--scale", "8000"]) == 0
        out = capsys.readouterr().out
        assert "December 2015" in out and "November 2016" in out


class TestOneLineErrors:
    """Bad input to any command is one stderr line and exit 2."""

    @pytest.mark.parametrize("argv", [
        ["generate", "--payments", "0"],
        ["attack", "--payments", "0"],
        ["defenses", "--payments", "-5"],
        ["rewards", "--scale", "0"],
    ])
    def test_non_artifact_commands_check_the_request(
        self, argv, tmp_path, capsys
    ):
        out = str(tmp_path / "never-written.jsonl.gz")
        assert main(argv + ["--out", out]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"{argv[0]}: ")
        assert ("payments" if "--payments" in argv else "scale") in err[0]
        assert not os.path.exists(out)

    def test_serve_socket_in_missing_directory(self, tmp_path):
        socket_path = tmp_path / "missing" / "repro.sock"
        done = subprocess.run(
            [sys.executable, "-m", "repro", "serve",
             "--socket", str(socket_path),
             "--cache-dir", str(tmp_path / "cache")],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert done.returncode == 2
        err = done.stderr.strip().splitlines()
        assert len(err) == 1, done.stderr
        assert err[0].startswith("serve: cannot bind ")
        assert str(socket_path) in err[0]
