"""Summary statistics for the benchmark: percentiles and latency summaries."""

from __future__ import annotations

import math


def percentile(values, p: float) -> float:
    """The p-th percentile (0 <= p <= 100), interpolating linearly between
    the closest ranks, as numpy's default method does."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def latency_summary(seconds) -> dict:
    """p50 and p90 in ms, with the sample count and how many samples lie
    above the p90."""
    ms = [1000.0 * s for s in seconds]
    p90 = percentile(ms, 90)
    return {
        "samples": len(ms),
        "p50_ms": percentile(ms, 50),
        "p90_ms": p90,
        "samples_above_p90": sum(1 for v in ms if v > p90),
    }
