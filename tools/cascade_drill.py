"""Cascade drill — the CI check for the credit-network health family.

Runs the three cascade kinds and the standalone health report at smoke
scale (2 000 payments) and holds them to the claims DESIGN §17 makes:

1. **outage** must walk the deliverability collapse curve to its end —
   the final wave bans *every* market maker and cancels their offers,
   reproducing the Table II counterfactual — and the delivery rate at
   that point must sit strictly below the intact control's;
2. **gateway-default** must do the same for the issuer axis: all
   gateways defaulted by the final wave, delivery collapsing with them;
3. **unwind** must liquidate over-utilized trust lines round by round
   (no replay — the "delivered" column stays em-dashed) with every
   round reporting lines actually unwound;
4. **health** must render all four dimensions of the report;
5. every rendered report must match its committed golden byte for
   byte, and a ``--jobs 2`` run must produce the same bytes as the
   serial one — ``--jobs`` is an execution strategy, not an
   answer-changing one.

Goldens live in ``examples/cascades/``; regenerate them after an
intentional behaviour change with ``--update`` (and say why in the
commit message).

Exit code 0 = pass, 1 = contract violation, 2 = setup failure.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys
from typing import List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "examples", "cascades")

SMOKE = ["--payments", "2000", "--seed", "7"]

#: golden file stem -> the CLI invocation that regenerates it.
CASES = {
    "outage": [
        "cascade", "--kind", "outage", *SMOKE, "--waves", "2",
        "--pairs", "40",
    ],
    "gateway-default": [
        "cascade", "--kind", "gateway-default", *SMOKE, "--waves", "2",
        "--pairs", "40",
    ],
    "unwind": [
        "cascade", "--kind", "unwind", *SMOKE, "--waves", "3",
        "--pairs", "40",
    ],
    "health": ["health", *SMOKE, "--pairs", "80"],
}

_failures: List[str] = []


def check(condition: bool, message: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {message}")
    if not condition:
        _failures.append(message)


def run_cli(cli_args: List[str]) -> str:
    completed = subprocess.run(
        [sys.executable, "-m", "repro", *cli_args],
        check=True,
        capture_output=True,
        text=True,
    )
    return completed.stdout


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def final_wave_rates(report: str, noun: str) -> Optional[dict]:
    """Parse the intact and final-wave delivery rates off the table."""
    intact = re.search(r"^\s*0\s+intact\s+\d+/\d+\s+(\d+\.\d)%",
                       report, re.MULTILINE)
    waves = re.findall(
        rf"^\s*\d+\s+(\d+)/(\d+) {noun} out\s+\d+/\d+\s+(\d+\.\d)%",
        report, re.MULTILINE,
    )
    if not intact or not waves:
        return None
    removed, population, rate = waves[-1]
    return {
        "intact_rate": float(intact.group(1)),
        "final_rate": float(rate),
        "all_removed": removed == population,
    }


def drill(update: bool) -> int:
    reports = {}
    for stem, cli_args in CASES.items():
        print(f"== {stem} ==")
        reports[stem] = run_cli(cli_args)

        golden_path = os.path.join(GOLDEN_DIR, f"{stem}.txt")
        if update:
            with open(golden_path, "w", encoding="utf-8") as handle:
                handle.write(reports[stem])
            print(f"  [updated] {os.path.relpath(golden_path, ROOT)}")
            continue
        with open(golden_path, encoding="utf-8") as handle:
            golden = handle.read()
        check(
            sha(reports[stem]) == sha(golden),
            f"rendered report matches the committed golden "
            f"(sha256 {sha(golden)[:12]})",
        )

    print("== cascade claims ==")
    outage = final_wave_rates(reports["outage"], "makers")
    check(
        outage is not None and outage["all_removed"],
        "outage's final wave removes every market maker (Table II's point)",
    )
    check(
        outage is not None and outage["final_rate"] < outage["intact_rate"],
        "outage delivery collapses below the intact control",
    )
    check(
        "Table II" in reports["outage"],
        "outage report cites the Table II counterfactual",
    )
    default = final_wave_rates(reports["gateway-default"], "gateways")
    check(
        default is not None and default["all_removed"],
        "gateway-default's final wave defaults every gateway",
    )
    check(
        default is not None and default["final_rate"] < default["intact_rate"],
        "gateway default collapses delivery below the intact control",
    )
    unwound = re.findall(r"round \d+: (\d+) lines unwound", reports["unwind"])
    check(
        bool(unwound) and all(int(n) > 0 for n in unwound),
        f"unwind liquidates lines every round ({len(unwound)} round(s))",
    )
    check(
        re.search(r"lines unwound\s+—\s+—", reports["unwind"]) is not None,
        "unwind reports no delivery replay (em-dashed column)",
    )
    check(
        all(
            heading in reports["health"]
            for heading in (
                "Wallet liquidity",
                "IOU issuer concentration",
                "Trust-limit utilization",
                "Settlability",
            )
        ),
        "health report renders all four dimensions",
    )

    print("== serial vs --jobs 2 ==")
    for stem in ("outage", "health"):
        parallel = run_cli([*CASES[stem], "--jobs", "2"])
        check(
            parallel == reports[stem],
            f"--jobs 2 {stem} is bit-for-bit identical to the serial run",
        )

    if update:
        print("\ngoldens regenerated")
    if _failures:
        print(f"\ncascade drill FAILED ({len(_failures)} violation(s)):")
        for failure in _failures:
            print(f"  - {failure}")
        return 1
    print("\ncascade drill passed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the committed goldens from this run's output",
    )
    args = parser.parse_args(argv)
    try:
        return drill(args.update)
    except (subprocess.CalledProcessError, OSError) as exc:
        print(f"cascade drill setup failed: {exc}", file=sys.stderr)
        if isinstance(exc, subprocess.CalledProcessError) and exc.stderr:
            print(exc.stderr, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
