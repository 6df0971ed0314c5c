"""Small statistics shared by the runner, the comparer and the tests."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: Percentiles a timing row may report, lowest first.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is only reported with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> Optional[float]:
    """The highest percentile of :data:`LADDER` that still has at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it, or None when even the
    median does not (n < 20)."""
    best = None
    for p in LADDER:
        if round(n * (100.0 - p) / 100.0, 6) >= MIN_BEYOND:  # 99.9 is not exact in binary
            best = p
    return best


def timing_row(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """Median, sample count and the highest valid percentile of a timing."""
    p = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": statistics.median(values),
        "tail_p": p,
        "tail": percentile(values, p) if p is not None else None,
    }


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    return math.exp(sum(math.log(v) for v in values) / len(values))


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and the third quartile (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def quartile_spread(values: Sequence[float]) -> float:
    """The inter-quartile distance as a share of the median — the steadiness
    measure the benchmark is accepted on."""
    return iqr(values) / abs(statistics.median(values))
