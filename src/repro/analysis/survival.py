"""Survival functions of exchanged amounts (Fig. 5).

For a currency, the survival function S(x) is the fraction of its payments
exchanging an amount *larger* than x.  The paper reads several findings off
these curves: EUR and USD nearly coincide; BTC (strong) and CCK live in the
micro-amount regime; MTL's curve is a cliff at ~10^9 — the spam signature;
"Global" is the currency-unaware mixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.dataset import TransactionDataset
from repro.errors import AnalysisError

#: The x-grid of Fig. 5 (log-spaced from 1e-4 to 1e12).
DEFAULT_GRID = tuple(float(x) for x in np.logspace(-4, 12, 65))

#: Currencies Fig. 5 plots, plus the currency-unaware "Global" curve.
FIGURE5_CURRENCIES = ("BTC", "CCK", "CNY", "EUR", "MTL", "USD", "XRP")


@dataclass(frozen=True)
class SurvivalCurve:
    """One curve of Fig. 5."""

    label: str
    grid: Sequence[float]
    values: Sequence[float]
    samples: int

    def at(self, x: float) -> float:
        """Interpolated S(x) (step interpolation, as an ECDF complement)."""
        grid = np.asarray(self.grid)
        values = np.asarray(self.values)
        index = int(np.searchsorted(grid, x, side="right")) - 1
        if index < 0:
            return 1.0
        return float(values[min(index, len(values) - 1)])

    def median(self) -> Optional[float]:
        """Amount where survival crosses 0.5 (None for empty curves)."""
        values = np.asarray(self.values)
        below = np.flatnonzero(values <= 0.5)
        if len(below) == 0 or self.samples == 0:
            return None
        return float(np.asarray(self.grid)[below[0]])


def survival_curve(
    amounts: np.ndarray, label: str, grid: Sequence[float] = DEFAULT_GRID
) -> SurvivalCurve:
    data = np.sort(np.asarray(amounts, dtype=float))
    if data.size == 0:
        return SurvivalCurve(label=label, grid=grid, values=[0.0] * len(grid), samples=0)
    positions = np.searchsorted(data, np.asarray(grid), side="right")
    values = 1.0 - positions / data.size
    return SurvivalCurve(
        label=label, grid=grid, values=values.tolist(), samples=int(data.size)
    )


def figure5_curves(
    dataset: TransactionDataset,
    currencies: Sequence[str] = FIGURE5_CURRENCIES,
    grid: Sequence[float] = DEFAULT_GRID,
) -> Dict[str, SurvivalCurve]:
    """All Fig. 5 curves keyed by label (including 'Global')."""
    curves: Dict[str, SurvivalCurve] = {
        "Global": survival_curve(dataset.amounts, "Global", grid)
    }
    for code in currencies:
        mask = dataset.rows_for_currency(code)
        curves[code] = survival_curve(dataset.amounts[mask], code, grid)
    return curves


def curve_distance(a: SurvivalCurve, b: SurvivalCurve) -> float:
    """Max vertical gap between two curves (0 = identical shape).

    Used to assert the paper's 'EUR and USD are remarkably similar' and to
    verify CCK tracks BTC's micro-transaction profile.
    """
    if list(a.grid) != list(b.grid):
        raise AnalysisError("curves must share a grid")
    return float(np.max(np.abs(np.asarray(a.values) - np.asarray(b.values))))
