"""CSV export of every figure's data series, for external plotting.

The CLI renders text; researchers who want to re-plot the figures with
their own tooling get machine-readable series here — one CSV per artifact,
column headers first, no dependencies beyond the standard library.
"""

from __future__ import annotations

import csv
import os
from typing import Dict, Iterable, Sequence

from repro.analysis.currencies import CurrencyUsage
from repro.analysis.gateways import HubProfile
from repro.analysis.market_makers import ReplayResult
from repro.analysis.paths import PathStructure
from repro.analysis.survival import SurvivalCurve
from repro.core.deanonymizer import InformationGain
from repro.core.robustness import PeriodReport
from repro.errors import AnalysisError


def _write(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> int:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
            count += 1
    return count


def export_figure2(report: PeriodReport, path: str) -> int:
    return _write(
        path,
        ["validator", "total_pages", "valid_pages", "is_ripple_labs"],
        (
            (obs.name, obs.total_pages, obs.valid_pages, obs.is_ripple_labs)
            for obs in report.observations
        ),
    )


def export_figure3(gains: Sequence[InformationGain], path: str) -> int:
    return _write(
        path,
        ["feature_list", "identified", "total", "percent"],
        (
            (ig.feature_list.label(), ig.identified, ig.total, round(ig.percent, 4))
            for ig in gains
        ),
    )


def export_figure4(ranking: Sequence[CurrencyUsage], path: str) -> int:
    return _write(
        path,
        ["currency", "payments", "share", "recognized"],
        (
            (usage.code, usage.payments, round(usage.share, 6), usage.is_recognized)
            for usage in ranking
        ),
    )


def export_figure5(curves: Dict[str, SurvivalCurve], path: str) -> int:
    labels = list(curves)
    if not labels:
        raise AnalysisError("no curves to export")
    grid = list(curves[labels[0]].grid)
    rows = []
    for index, x in enumerate(grid):
        rows.append([x] + [curves[label].values[index] for label in labels])
    return _write(path, ["amount"] + labels, rows)


def export_figure6(structure: PathStructure, path: str) -> int:
    rows = [
        ("hops", hops, count)
        for hops, count in sorted(structure.hops_histogram.items())
    ] + [
        ("parallel_paths", paths, count)
        for paths, count in sorted(structure.parallel_histogram.items())
    ]
    return _write(path, ["series", "x", "payments"], rows)


def export_figure7(profiles: Sequence[HubProfile], path: str) -> int:
    return _write(
        path,
        [
            "label", "address", "is_gateway", "times_intermediate",
            "incoming_trust_eur", "outgoing_trust_eur", "balance_eur",
        ],
        (
            (
                profile.label,
                profile.account.address,
                profile.is_gateway,
                profile.times_intermediate,
                profile.incoming_trust_eur,
                profile.outgoing_trust_eur,
                profile.balance_eur,
            )
            for profile in profiles
        ),
    )


def export_table2(result: ReplayResult, path: str) -> int:
    return _write(
        path,
        ["category", "submitted", "delivered", "delivery_rate"],
        (
            (row.category, row.submitted, row.delivered, round(row.delivery_rate, 6))
            for row in result.rows()
        ),
    )
