"""Order statistics shared by the runner, the set runner and compare."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty sample."""
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """``n``, median and the quartiles the driver's spread rule uses."""
    if len(values) < 2:
        q1 = q3 = float(values[0])
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values),
        "median": median(values),
        "q1": float(q1),
        "q3": float(q3),
    }
