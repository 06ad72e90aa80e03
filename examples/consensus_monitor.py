#!/usr/bin/env python3
"""Consensus monitoring: the paper's Section IV measurement, end to end.

Stands up the December 2015 validator population, attaches a rippled-style
validation-stream server and a collector, runs a scaled collection period,
and cross-references every captured signature against the main ledger —
reproducing the Fig. 2 total/valid bars and the robustness findings.

Run:  python examples/consensus_monitor.py
"""

from repro.core.robustness import RobustnessStudy
from repro.stream.periods import PERIODS

#: 1/600 of a two-week period ≈ 400 consensus rounds per period.
SCALE = 1.0 / 600.0


def main() -> None:
    print("Running the three collection periods (scaled)...\n")
    study = RobustnessStudy.run(PERIODS, scale=SCALE, seed=23)

    for report in study.reports:
        active_non_ripple = [
            name
            for name in report.active_validators()
            if not report.observation(name).is_ripple_labs
        ]
        print(f"=== {report.period.label} ===")
        print(f"  simulated rounds          : {report.rounds} "
              f"(x{1 / report.scale:.0f} for the full two weeks)")
        print(f"  validated rounds          : {report.rounds_validated} "
              f"({report.availability:.1%} availability)")
        print(f"  validators observed       : {report.period.observed_count()} + R1-R5")
        print(f"  active contributors       : {len(active_non_ripple)} non-Ripple "
              f"(paper: {dict(dec2015=3, jul2016=10, nov2016=8)[report.period.key]})")
        print(f"  zero-valid validators     : {len(report.zero_valid_validators())}")
        print("  busiest validators (total / valid pages):")
        top = sorted(report.observations, key=lambda o: -o.valid_pages)[:8]
        for obs in top:
            tag = " [Ripple Labs]" if obs.is_ripple_labs else ""
            print(f"    {obs.name:26s} {obs.total_pages:6d} / {obs.valid_pages:6d}{tag}")
        print()

    print("=== Cross-period findings (Section IV) ===")
    print(f"  distinct validators seen  : {study.validators_seen_total()} (paper: 70)")
    persistent = study.persistent_active()
    print(f"  active in all 3 periods   : {len(persistent)} (paper: 9)")
    print(f"    {', '.join(persistent)}")
    exposure = study.takeover_exposure("nov2016")
    print("  takeover exposure, Nov'16 (share of valid signatures):")
    for top_k, share in exposure.items():
        print(f"    {top_k:5s}: {share:.1%}")
    print("\nThe consensus of the entire system rests on a handful of servers —")
    print("hijacking them would endanger the whole network (the paper's concern).")


if __name__ == "__main__":
    main()
