"""Plain-text rendering of the paper's tables and figures.

The CLI prints these so a terminal run shows the same rows/series the
paper reports — counts per validator (Fig. 2), IG bars (Fig. 3), currency
rankings (Fig. 4), survival samples (Fig. 5), path histograms (Fig. 6),
hub profiles (Fig. 7), and Table II.

(Renderers lived in ``repro.analysis.report`` before the artifact
registry existed; the deprecation shim there completed its cycle and was
removed — import from here.)
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.analysis.gateways import HubProfile
from repro.analysis.market_makers import ReplayResult
from repro.analysis.paths import PathStructure
from repro.analysis.survival import SurvivalCurve
from repro.core.deanonymizer import InformationGain
from repro.core.robustness import PeriodReport


def _bar(fraction: float, width: int = 40) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def render_figure2(report: PeriodReport, scale_note: bool = True) -> str:
    lines = [f"Figure 2 — {report.period.label}"]
    if scale_note:
        lines.append(
            f"  (simulated {report.rounds} rounds = {report.scale:.4f} of the "
            f"two-week period; counts scale by ~{1 / report.scale:.0f}x)"
        )
    lines.append(f"  {'validator':26s} {'total':>8s} {'valid':>8s}")
    for obs in report.observations:
        lines.append(
            f"  {obs.name:26s} {obs.total_pages:8d} {obs.valid_pages:8d}"
        )
    return "\n".join(lines)


def render_figure3(results: Sequence[InformationGain]) -> str:
    lines = ["Figure 3 — information gain per feature list"]
    for ig in results:
        lines.append(
            f"  {ig.feature_list.label():24s} {ig.percent:6.2f}%  {_bar(ig.fraction)}"
        )
    return "\n".join(lines)


def render_figure4(ranking, top: int = 25) -> str:
    lines = ["Figure 4 — most used currencies (payments, log scale in paper)"]
    for usage in ranking[:top]:
        flag = "" if usage.is_recognized else "  [unrecognized]"
        lines.append(
            f"  {usage.code:4s} {usage.payments:9d}  ({usage.share * 100:5.2f}%){flag}"
        )
    return "\n".join(lines)


def render_figure5(curves: Dict[str, SurvivalCurve], points: Sequence[float]) -> str:
    lines = ["Figure 5 — survival of payment amounts  P(amount > x)"]
    header = "  " + "x".rjust(12) + "".join(label.rjust(9) for label in curves)
    lines.append(header)
    for x in points:
        row = f"  {x:12g}"
        for curve in curves.values():
            row += f"{curve.at(x):9.3f}"
        lines.append(row)
    return "\n".join(lines)


def render_figure6(structure: PathStructure) -> str:
    lines = [
        "Figure 6(a) — payments per intermediate-hop count "
        f"(multi-hop total: {structure.multi_hop_payments})"
    ]
    for hops in sorted(structure.hops_histogram):
        count = structure.hops_histogram[hops]
        lines.append(f"  {hops:3d} hops  {count:9d}  ({structure.hop_share(hops) * 100:5.1f}%)")
    lines.append("Figure 6(b) — payments per parallel-path count")
    for paths in sorted(structure.parallel_histogram):
        count = structure.parallel_histogram[paths]
        lines.append(
            f"  {paths:3d} paths {count:9d}  ({structure.parallel_share(paths) * 100:5.1f}%)"
        )
    return "\n".join(lines)


def render_figure7(profiles: Sequence[HubProfile], top: int = 50) -> str:
    lines = [
        "Figure 7 — top intermediaries: relay count, trust (EUR), balance (EUR)",
        f"  {'label':26s} {'relays':>8s} {'in-trust':>12s} {'out-trust':>12s} "
        f"{'balance':>12s}  gateway",
    ]
    for profile in profiles[:top]:
        lines.append(
            f"  {profile.label[:26]:26s} {profile.times_intermediate:8d} "
            f"{profile.incoming_trust_eur:12.3g} {profile.outgoing_trust_eur:12.3g} "
            f"{profile.balance_eur:12.3g}  {'yes' if profile.is_gateway else 'no'}"
        )
    return "\n".join(lines)


def render_table2(result: ReplayResult) -> str:
    lines = [
        "Table II — delivery without Market Makers",
        f"  {'Category':16s} {'Submitted':>10s} {'Delivered':>10s} {'Rate':>8s}",
    ]
    for row in result.rows():
        lines.append(
            f"  {row.category:16s} {row.submitted:10d} {row.delivered:10d} "
            f"{row.delivery_rate * 100:7.1f}%"
        )
    return "\n".join(lines)


def render_population(stats, monthly) -> str:
    """Appendix D population statistics plus the monthly growth curve."""
    lines = [
        "Population — accounts, activity, growth (appendix D)",
        f"  accounts seen              {stats.accounts_seen:12,d}",
        f"  active senders             {stats.active_senders:12,d}"
        f"  ({stats.active_share * 100:5.1f}% of seen)",
        f"  payments / active sender   {stats.payments_per_active_sender:12.2f}",
        f"  activity concentration     {stats.activity_concentration:12.4f}  (Gini)",
        "  monthly volume:",
    ]
    for month, count in monthly:
        lines.append(f"    month {month:4d}  {count:9d}")
    return "\n".join(lines)
