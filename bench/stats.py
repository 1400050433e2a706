"""Sample summaries: median, quartiles, and the tail-percentile rule.

A timing is reported as its median plus the highest tail percentile
that has at least :data:`MIN_BEYOND` samples beyond it, and always with
its sample count ``n``.  Three samples get a median and quartiles only;
three hundred also get a p90.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie beyond a tail percentile before it is reported.
MIN_BEYOND = 10

#: Tail percentiles tried, highest first.
TAIL_PERCENTILES = (99.9, 99, 90)


def quartiles(samples: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(samples, n=4)``.

    One sample is its own quartiles; the quantiles function needs two.
    """
    if not samples:
        raise ValueError("no samples")
    if len(samples) == 1:
        only = float(samples[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def spread(samples: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one sample)."""
    q1, median, q3 = quartiles(samples)
    return (q3 - q1) / abs(median) if median else 0.0


def tail_percentile(samples: Sequence[float]) -> tuple[float, float] | None:
    """``(p, value)`` for the highest percentile with enough samples beyond.

    Nearest-rank: the value is the ``ceil(p/100 * n)``-th smallest
    sample, and the samples beyond it are the ``n - rank`` larger ones.
    ``None`` when even p90 has fewer than :data:`MIN_BEYOND` beyond it.
    """
    n = len(samples)
    ordered = sorted(samples)
    for p in TAIL_PERCENTILES:
        # round() first: 99.9 / 100 * 10000 is 9990.000000000002.
        rank = math.ceil(round(p * n / 100.0, 9))
        if rank >= 1 and n - rank >= MIN_BEYOND:
            return p, ordered[rank - 1]
    return None


def percentile_key(p: float) -> str:
    """``90 -> "p90"``, ``99.9 -> "p99.9"``."""
    return "p" + (f"{p:g}")


def summarize(samples: Sequence[float]) -> dict[str, float | int]:
    """``n``, median, quartiles and the tail percentile the rule allows."""
    q1, median, q3 = quartiles(samples)
    summary: dict[str, float | int] = {
        "n": len(samples), "median": median, "q1": q1, "q3": q3,
    }
    tail = tail_percentile(samples)
    if tail is not None:
        summary[percentile_key(tail[0])] = tail[1]
    return summary
